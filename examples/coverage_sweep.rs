//! Sensitivity vs read coverage — the paper's motivating regime.
//!
//! The introduction stresses that "SNPs must often be called from as few
//! as 5-20 overlapping reads". This example sweeps coverage over that
//! range on one fixed genome + SNP catalogue and reports GNUMAP-SNP's
//! sensitivity/precision alongside the MAQ-style baseline's, showing where
//! the statistical machinery starts to pay off.
//!
//! ```sh
//! cargo run --release --example coverage_sweep
//! ```

use gnumap_snp::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use simulate::reads::{simulate_reads, ReadSimConfig, ReadSource};
use std::collections::HashSet;

fn main() {
    let mut rng = ChaCha8Rng::seed_from_u64(2019);
    let reference = simulate::generate_genome(
        &simulate::GenomeConfig {
            length: 30_000,
            repeat_families: 1,
            ..Default::default()
        },
        &mut rng,
    );
    let catalog = simulate::generate_snp_catalog(
        &reference,
        &simulate::SnpCatalogConfig {
            count: 20,
            ..Default::default()
        },
        &mut rng,
    );
    let individual = simulate::apply_snps_monoploid(&reference, &catalog);
    let truth: Vec<_> = catalog.iter().map(|s| (s.pos, s.alt)).collect();
    let truth_positions: HashSet<usize> = truth.iter().map(|&(p, _)| p).collect();

    println!(
        "{:>9}  {:>7}  {:>18}  {:>18}",
        "coverage", "reads", "GNUMAP sens/prec", "MAQ-style sens/prec"
    );
    for coverage in [3.0f64, 5.0, 8.0, 12.0, 16.0, 20.0] {
        let cfg = ReadSimConfig {
            coverage,
            ..Default::default()
        };
        let mut read_rng = ChaCha8Rng::seed_from_u64(coverage.to_bits());
        let reads: Vec<_> = simulate_reads(
            &ReadSource::Monoploid(&individual),
            cfg.read_count(reference.len()),
            &cfg,
            &mut read_rng,
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
        let g = score_snp_calls(&gnumap.calls, &truth);

        let maq = run_baseline(
            &reference,
            &reads,
            &BaselineConfig::default(),
            &mut read_rng,
        );
        let m = gnumap_snp::core::report::score_positions(
            maq.snps.iter().map(|s| s.pos),
            &truth_positions,
        );

        println!(
            "{:>8.0}x  {:>7}  {:>7.0}% / {:>5.0}%  {:>8.0}% / {:>5.0}%",
            coverage,
            reads.len(),
            100.0 * g.sensitivity(),
            100.0 * g.precision(),
            100.0 * m.sensitivity(),
            100.0 * m.precision(),
        );
    }
    println!(
        "\nsensitivity climbs with depth; the marginal-evidence caller keeps\n\
         precision high even at the 5x low end, where hard-call pileups get\n\
         thin (the paper's low-coverage motivation)."
    );
}
