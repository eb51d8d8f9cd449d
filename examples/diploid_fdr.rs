//! Diploid SNP calling with FDR control: heterozygous and homozygous
//! planted variants, called with the paper's Equation 2 LRT under
//! Benjamini–Hochberg false-discovery control.
//!
//! ```sh
//! cargo run --release --example diploid_fdr
//! ```

use gnumap_snp::core::snpcall::{Cutoff, SnpCallConfig};
use gnumap_snp::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use simulate::reads::{simulate_reads, ReadSimConfig, ReadSource};
use simulate::Zygosity;

fn main() {
    let mut rng = ChaCha8Rng::seed_from_u64(2012);

    // Repeat-free reference: diverged repeat copies cross-map reads and
    // deposit minor-allele evidence at their paralogous sites, which the
    // diploid LRT then (correctly, given the evidence) flags as
    // heterozygous — the classic paralog-induced false-het problem every
    // diploid caller shares. This demo isolates the genotyping behaviour;
    // see tests/baseline_comparison.rs for the repeat-region experiments.
    let reference = simulate::generate_genome(
        &simulate::GenomeConfig {
            length: 15_000,
            repeat_families: 0,
            ..Default::default()
        },
        &mut rng,
    );
    // Half the planted SNPs heterozygous — the case the diploid LRT's
    // second alternative hypothesis exists for.
    let snps = simulate::generate_snp_catalog(
        &reference,
        &simulate::SnpCatalogConfig {
            count: 12,
            heterozygous_fraction: 0.5,
            ..Default::default()
        },
        &mut rng,
    );
    let individual = simulate::apply_snps_diploid(&reference, &snps, &mut rng);

    // Diploid sites need more depth: each haplotype gets half the reads.
    let read_cfg = ReadSimConfig {
        coverage: 20.0,
        ..Default::default()
    };
    let reads: Vec<_> = simulate_reads(
        &ReadSource::Diploid(&individual),
        read_cfg.read_count(reference.len()),
        &read_cfg,
        &mut rng,
    )
    .into_iter()
    .map(|r| r.read)
    .collect();

    let config = GnumapConfig {
        calling: SnpCallConfig {
            ploidy: Ploidy::Diploid,
            cutoff: Cutoff::Fdr(0.05), // "a false discovery control"
            min_total: 6.0,
        },
        ..Default::default()
    };
    let report = run_pipeline(&reference, &reads, &config, &Observer::disabled());

    println!(
        "diploid run: {} reads, {} calls under BH FDR q=0.05\n",
        reads.len(),
        report.calls.len()
    );
    println!(
        "{:>9}  {:>3}  {:>8}  {:>9}  truth",
        "pos", "ref", "genotype", "p(adj)"
    );
    for call in &report.calls {
        let genotype = match call.second_allele {
            Some(second) => format!("{}/{}", call.allele, second),
            None => format!("{}/{}", call.allele, call.allele),
        };
        let truth =
            snps.iter()
                .find(|s| s.pos == call.pos)
                .map_or("false positive".to_string(), |s| {
                    let zygo = match s.zygosity {
                        Zygosity::Heterozygous => "het",
                        Zygosity::Homozygous => "hom",
                    };
                    format!("planted {} {}→{}", zygo, s.reference, s.alt)
                });
        println!(
            "{:>9}  {:>3}  {:>8}  {:>9.2e}  {truth}",
            call.pos, call.reference, genotype, call.p_adjusted
        );
    }

    let truth: Vec<_> = snps.iter().map(|s| (s.pos, s.alt)).collect();
    let accuracy = score_snp_calls(&report.calls, &truth);
    let het_called = report
        .calls
        .iter()
        .filter(|c| c.second_allele.is_some())
        .count();
    println!(
        "\nTP {}  FP {}  FN {}  precision {:.1}%   ({} calls reported heterozygous)",
        accuracy.true_positives,
        accuracy.false_positives,
        accuracy.false_negatives,
        100.0 * accuracy.precision(),
        het_called
    );
}
