//! Cross-decoder agreement: on cleanly alignable pairs, the
//! maximum-posterior path recovered from the forward–backward marginals
//! must coincide with the Viterbi path, and both must track the planted
//! alignment.

use genome::alphabet::Base;
use genome::read::SequencedRead;
use genome::seq::DnaSeq;
use pairhmm::emission::EmissionTable;
use pairhmm::marginal::PosteriorAlignment;
use pairhmm::params::PhmmParams;
use pairhmm::pwm::Pwm;
use pairhmm::viterbi::{viterbi, AlignOp};

fn emit_for(read_s: &str, genome_s: &str, q: u8, params: &PhmmParams) -> (EmissionTable, Pwm) {
    let read = SequencedRead::with_uniform_quality("r", read_s.parse().unwrap(), q);
    let window: Vec<Option<Base>> = genome_s.parse::<DnaSeq>().unwrap().iter().collect();
    let pwm = Pwm::from_read(&read);
    (pwm.emission_table(&window, params), pwm)
}

#[test]
fn posterior_argmax_matches_viterbi_on_clean_pairs() {
    let params = PhmmParams::default();
    for (r, g) in [
        ("ACGTACGTACGT", "ACGTACGTACGT"),
        ("ACGTACGTACGT", "ACGTACGGACGT"), // one mismatch
        ("TTGACCAGTTCAGG", "TTGACCAGTTCAGG"),
    ] {
        let (emit, _) = emit_for(r, g, 35, &params);
        let v = viterbi(emit.view(), &params);
        assert!(v.ops.iter().all(|&o| o == AlignOp::Match));
        // For each read base, the posterior-argmax genome column must be
        // the diagonal one Viterbi chose.
        let post = PosteriorAlignment::from_emissions(emit.view(), &params, None);
        for i in 1..=r.len() {
            let best_j = (1..=g.len())
                .max_by(|&a, &b| {
                    post.match_posterior(i, a)
                        .total_cmp(&post.match_posterior(i, b))
                })
                .unwrap();
            assert_eq!(best_j, i, "read base {i} should sit on the diagonal");
            assert!(post.match_posterior(i, i) > 0.9);
        }
    }
}

#[test]
fn posterior_argmax_matches_viterbi_through_an_indel() {
    let params = PhmmParams::with_gap_rates(0.05, 0.5, 0.02);
    // Genome has one extra base at offset 6 (0-based): read skips it.
    let (emit, _) = emit_for("TTGACCAGTTCAGG", "TTGACCGAGTTCAGG", 35, &params);
    let v = viterbi(emit.view(), &params);
    let dels: Vec<usize> = v
        .ops
        .iter()
        .enumerate()
        .filter(|(_, &o)| o == AlignOp::DelGenome)
        .map(|(idx, _)| idx)
        .collect();
    assert_eq!(dels.len(), 1, "exactly one genome deletion: {:?}", v.ops);

    // The posterior must put substantial deletion mass on the same genome
    // column Viterbi skipped. Column = count of non-InsRead ops up to and
    // including the deletion.
    let skipped_col = v.ops[..=dels[0]]
        .iter()
        .filter(|&&o| o != AlignOp::InsRead)
        .count();
    let post = PosteriorAlignment::from_emissions(emit.view(), &params, None);
    let del_mass: f64 = (1..=14)
        .map(|i| post.deletion_posterior(i, skipped_col))
        .sum();
    assert!(
        del_mass > 0.5,
        "deletion mass at column {skipped_col} should dominate: {del_mass}"
    );
}

#[test]
fn viterbi_probability_is_a_large_share_on_unambiguous_pairs() {
    // When there is a single overwhelmingly best alignment, the Viterbi
    // path should carry most of the total probability mass.
    let params = PhmmParams::default();
    let (emit, _) = emit_for("ACGGTTCAGGCATTGC", "ACGGTTCAGGCATTGC", 40, &params);
    let v = viterbi(emit.view(), &params);
    let total = pairhmm::forward::forward(emit.view(), &params, None).total;
    assert!(
        v.probability / total > 0.9,
        "share {}",
        v.probability / total
    );
}
