//! GNUMAP-SNP vs the MAQ-style baseline — the qualitative claims behind
//! paper Table I and the introduction's repeat-region argument.

use gnumap_snp::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use simulate::reads::{simulate_reads, ReadSimConfig, ReadSource};
use simulate::{ErrorProfile, GenomeConfig};
use std::collections::HashSet;

#[test]
fn both_callers_find_snps_in_unique_sequence() {
    let mut rng = ChaCha8Rng::seed_from_u64(100);
    let reference = simulate::generate_genome(
        &GenomeConfig {
            length: 8_000,
            repeat_families: 0,
            ..Default::default()
        },
        &mut rng,
    );
    let catalog = simulate::generate_snp_catalog(
        &reference,
        &simulate::SnpCatalogConfig {
            count: 8,
            ..Default::default()
        },
        &mut rng,
    );
    let individual = simulate::apply_snps_monoploid(&reference, &catalog);
    let cfg = ReadSimConfig {
        coverage: 14.0,
        ..Default::default()
    };
    let reads: Vec<_> = simulate_reads(
        &ReadSource::Monoploid(&individual),
        cfg.read_count(reference.len()),
        &cfg,
        &mut rng,
    )
    .into_iter()
    .map(|r| r.read)
    .collect();

    let truth: Vec<_> = catalog.iter().map(|s| (s.pos, s.alt)).collect();
    let truth_positions: HashSet<usize> = truth.iter().map(|&(p, _)| p).collect();

    let gnumap = run_pipeline(
        &reference,
        &reads,
        &GnumapConfig::default(),
        &Observer::disabled(),
    );
    let g = score_snp_calls(&gnumap.calls, &truth);

    let maq = run_baseline(&reference, &reads, &BaselineConfig::default(), &mut rng);
    let m =
        gnumap_snp::core::report::score_positions(maq.snps.iter().map(|s| s.pos), &truth_positions);

    // Paper Table I: on plain sequence the two approaches are comparable.
    assert!(g.sensitivity() >= 0.75, "gnumap {g:?}");
    assert!(m.sensitivity() >= 0.75, "baseline {m:?}");
    assert!(g.precision() >= 0.85, "gnumap {g:?}");
    assert!(m.precision() >= 0.85, "baseline {m:?}");
}

#[test]
fn gnumap_keeps_repeat_snps_that_the_baseline_drops() {
    // A SNP inside an exact two-copy repeat. The MAQ-style mapper gives
    // repeat reads mapping quality 0 and (with the paper-standard mapQ
    // filter) discards them — so the baseline goes blind there, while the
    // marginal accumulator still sees half-weight evidence from both
    // copies plus full-weight evidence from boundary-spanning reads.
    let mut rng = ChaCha8Rng::seed_from_u64(101);
    let mut reference = simulate::generate_genome(
        &GenomeConfig {
            length: 7_000,
            repeat_families: 0,
            ..Default::default()
        },
        &mut rng,
    );
    // Exact 300-bp duplication: 2000..2300 → 5000..5300.
    let unit: Vec<_> = (2_000..2_300).map(|p| reference.get(p)).collect();
    for (off, &b) in unit.iter().enumerate() {
        reference.set(5_000 + off, b);
    }
    let snp_pos = 2_150;
    let alt = reference.get(snp_pos).unwrap().transition();
    let mut individual = reference.clone();
    individual.set(snp_pos, Some(alt));

    let cfg = ReadSimConfig {
        coverage: 20.0,
        profile: ErrorProfile::perfect(), // isolate the repeat effect
        ..Default::default()
    };
    let reads: Vec<_> = simulate_reads(
        &ReadSource::Monoploid(&individual),
        cfg.read_count(reference.len()),
        &cfg,
        &mut rng,
    )
    .into_iter()
    .map(|r| r.read)
    .collect();

    let gnumap = run_pipeline(
        &reference,
        &reads,
        &GnumapConfig::default(),
        &Observer::disabled(),
    );
    let gnumap_found = gnumap
        .calls
        .iter()
        .any(|c| c.pos == snp_pos && c.allele == alt);
    assert!(gnumap_found, "GNUMAP-SNP must call the repeat-interior SNP");

    let maq = run_baseline(&reference, &reads, &BaselineConfig::default(), &mut rng);
    let baseline_found = maq.snps.iter().any(|s| s.pos == snp_pos);
    assert!(
        !baseline_found,
        "the mapQ-filtered baseline should be blind inside the exact repeat \
         (if this starts passing, the fixture's repeat is no longer exact)"
    );
}

#[test]
fn baseline_random_assignment_halves_repeat_evidence() {
    // With the mapQ filter disabled the baseline keeps repeat reads but
    // assigns each to a random copy — so the SNP site sees a ~50/50 mix of
    // alt evidence and (clean) reference evidence from the other copy,
    // exactly the bias the paper describes.
    let mut rng = ChaCha8Rng::seed_from_u64(102);
    let mut reference = simulate::generate_genome(
        &GenomeConfig {
            length: 7_000,
            repeat_families: 0,
            ..Default::default()
        },
        &mut rng,
    );
    let unit: Vec<_> = (2_000..2_300).map(|p| reference.get(p)).collect();
    for (off, &b) in unit.iter().enumerate() {
        reference.set(5_000 + off, b);
    }
    let snp_pos = 2_150;
    let alt = reference.get(snp_pos).unwrap().transition();
    let mut individual = reference.clone();
    individual.set(snp_pos, Some(alt));

    let cfg = ReadSimConfig {
        coverage: 24.0,
        profile: ErrorProfile::perfect(),
        ..Default::default()
    };
    let reads: Vec<_> = simulate_reads(
        &ReadSource::Monoploid(&individual),
        cfg.read_count(reference.len()),
        &cfg,
        &mut rng,
    )
    .into_iter()
    .map(|r| r.read)
    .collect();

    let no_filter = baseline::MaqConfig {
        min_mapping_quality: 0,
        ..Default::default()
    };
    let maq = run_baseline(
        &reference,
        &reads,
        &BaselineConfig {
            mapper: no_filter,
            ..Default::default()
        },
        &mut rng,
    );
    // The mirrored position in the second copy receives the *alt* reads
    // that were randomly assigned there: phantom evidence at 5150.
    let phantom = maq.snps.iter().find(|s| s.pos == 5_150);
    let real = maq.snps.iter().find(|s| s.pos == snp_pos);
    // At minimum, the evidence is corrupted: either the phantom site gets
    // called, or the real site's support is heavily contaminated. GNUMAP
    // by contrast puts ≤ half-weight evidence at each copy *consistently*.
    assert!(
        phantom.is_some() || real.is_none() || real.unwrap().depth < 20,
        "random assignment should visibly corrupt repeat evidence; got real={real:?} phantom={phantom:?}"
    );
}
