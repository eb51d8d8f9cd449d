//! Quickstart: simulate a small genome with planted SNPs, run GNUMAP-SNP
//! end to end, and print the calls against the truth.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use gnumap_snp::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use simulate::reads::{simulate_reads, ReadSimConfig, ReadSource};

fn main() {
    let mut rng = ChaCha8Rng::seed_from_u64(42);

    // 1. A 20 kb reference with a couple of repeat families.
    let reference = simulate::generate_genome(
        &simulate::GenomeConfig {
            length: 20_000,
            repeat_families: 2,
            ..Default::default()
        },
        &mut rng,
    );

    // 2. Plant 10 SNPs (dbSNP-like transition bias) into an individual.
    let snps = simulate::generate_snp_catalog(
        &reference,
        &simulate::SnpCatalogConfig {
            count: 10,
            ..Default::default()
        },
        &mut rng,
    );
    let individual = simulate::apply_snps_monoploid(&reference, &snps);

    // 3. Sequence the individual: 62-bp Illumina-profile reads at 12x.
    let read_cfg = ReadSimConfig {
        coverage: 12.0,
        ..Default::default()
    };
    let reads: Vec<_> = simulate_reads(
        &ReadSource::Monoploid(&individual),
        read_cfg.read_count(reference.len()),
        &read_cfg,
        &mut rng,
    )
    .into_iter()
    .map(|r| r.read)
    .collect();
    println!(
        "simulated {} reads over a {} bp genome ({} planted SNPs)",
        reads.len(),
        reference.len(),
        snps.len()
    );

    // 4. Run the full pipeline: k-mer seeding → Pair-HMM marginal
    //    alignment → LRT SNP calling at α = 0.05.
    let report = run_pipeline(
        &reference,
        &reads,
        &GnumapConfig::default(),
        &Observer::disabled(),
    );
    println!(
        "mapped {}/{} reads in {:.2}s ({:.0} seqs/sec)\n",
        report.reads_mapped,
        report.reads_processed,
        report.elapsed_secs,
        report.seqs_per_sec()
    );

    // 5. Print the calls annotated against the truth.
    let truth: Vec<_> = snps.iter().map(|s| (s.pos, s.alt)).collect();
    println!(
        "{:>9}  {:>3}  {:>6}  {:>10}  {:>9}  verdict",
        "pos", "ref", "called", "-2logλ", "p(adj)"
    );
    for call in &report.calls {
        let verdict = match truth.iter().find(|&&(p, _)| p == call.pos) {
            Some(&(_, alt)) if call.carries(alt) => "TRUE POSITIVE",
            Some(_) => "WRONG ALLELE",
            None => "false positive",
        };
        let genotype = match call.second_allele {
            Some(second) => format!("{}/{}", call.allele, second),
            None => call.allele.to_string(),
        };
        println!(
            "{:>9}  {:>3}  {:>6}  {:>10.2}  {:>9.2e}  {verdict}",
            call.pos, call.reference, genotype, call.statistic, call.p_adjusted
        );
    }
    let accuracy = score_snp_calls(&report.calls, &truth);
    println!(
        "\nTP {}  FP {}  FN {}  precision {:.1}%  sensitivity {:.1}%",
        accuracy.true_positives,
        accuracy.false_positives,
        accuracy.false_negatives,
        100.0 * accuracy.precision(),
        100.0 * accuracy.sensitivity()
    );
}
