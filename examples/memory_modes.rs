//! The three accumulator memory layouts on one workload: footprint,
//! speed, and what discretization does to the calls (a miniature of paper
//! Table III).
//!
//! ```sh
//! cargo run --release --example memory_modes
//! ```

use gnumap_snp::core::accum::AccumulatorMode;
use gnumap_snp::core::footprint::{human_bytes, FootprintModel, HUMAN_GENOME_BASES};
use gnumap_snp::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use simulate::reads::{simulate_reads, ReadSimConfig, ReadSource};

fn main() {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let reference = simulate::generate_genome(
        &simulate::GenomeConfig {
            length: 25_000,
            ..Default::default()
        },
        &mut rng,
    );
    let snps = simulate::generate_snp_catalog(
        &reference,
        &simulate::SnpCatalogConfig {
            count: 8,
            ..Default::default()
        },
        &mut rng,
    );
    let individual = simulate::apply_snps_monoploid(&reference, &snps);
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
    let truth: Vec<_> = snps.iter().map(|s| (s.pos, s.alt)).collect();

    println!(
        "{:>9} {:>12} {:>8} {:>4} {:>4} {:>10} {:>22}",
        "mode", "acc bytes", "time", "TP", "FP", "precision", "model @ human genome"
    );
    for mode in [
        AccumulatorMode::Norm,
        AccumulatorMode::CharDisc,
        AccumulatorMode::CentDisc,
    ] {
        let config = GnumapConfig {
            accumulator: mode,
            ..Default::default()
        };
        let report = run_pipeline(&reference, &reads, &config, &Observer::disabled());
        let accuracy = score_snp_calls(&report.calls, &truth);
        let projected = FootprintModel::for_mode(mode).project(HUMAN_GENOME_BASES);
        println!(
            "{:>9} {:>12} {:>7.2}s {:>4} {:>4} {:>9.1}% {:>22}",
            mode.name(),
            report.accumulator_bytes,
            report.elapsed_secs,
            accuracy.true_positives,
            accuracy.false_positives,
            100.0 * accuracy.precision(),
            human_bytes(projected),
        );
    }
    println!(
        "\nCHARDISC halves the accumulator at minimal accuracy cost;\n\
         CENTDISC shrinks it 4x but its equal-weight codeword additions\n\
         forget history exponentially — do not use it in production\n\
         (the paper reaches the same conclusion in Table III)."
    );
}
