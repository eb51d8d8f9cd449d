//! Cross-crate integration tests: the full GNUMAP-SNP pipeline on
//! simulated workloads, exercising the paper's headline claims.

use gnumap_snp::core::snpcall::{Cutoff, SnpCallConfig};
use gnumap_snp::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use simulate::reads::{simulate_reads, ReadSimConfig, ReadSource};
use simulate::{ErrorProfile, GenomeConfig, SnpCatalogConfig, Zygosity};

struct Setup {
    reference: genome::DnaSeq,
    truth: Vec<(usize, Base)>,
    reads: Vec<SequencedRead>,
}

fn setup(genome_len: usize, snps: usize, coverage: f64, seed: u64) -> Setup {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let reference = simulate::generate_genome(
        &GenomeConfig {
            length: genome_len,
            repeat_families: 1,
            repeat_length: 150,
            repeat_copies: 2,
            repeat_divergence: 0.02,
            ..Default::default()
        },
        &mut rng,
    );
    let catalog = simulate::generate_snp_catalog(
        &reference,
        &SnpCatalogConfig {
            count: snps,
            ..Default::default()
        },
        &mut rng,
    );
    let individual = simulate::apply_snps_monoploid(&reference, &catalog);
    let cfg = ReadSimConfig {
        coverage,
        ..Default::default()
    };
    let reads = simulate_reads(
        &ReadSource::Monoploid(&individual),
        cfg.read_count(genome_len),
        &cfg,
        &mut rng,
    )
    .into_iter()
    .map(|r| r.read)
    .collect();
    Setup {
        reference,
        truth: catalog.iter().map(|s| (s.pos, s.alt)).collect(),
        reads,
    }
}

#[test]
fn pipeline_has_high_sensitivity_and_precision() {
    let s = setup(8_000, 10, 14.0, 1);
    let report = run_pipeline(
        &s.reference,
        &s.reads,
        &GnumapConfig::default(),
        &Observer::disabled(),
    );
    let acc = score_snp_calls(&report.calls, &s.truth);
    assert!(acc.sensitivity() >= 0.8, "sensitivity too low: {acc:?}");
    assert!(acc.precision() >= 0.9, "precision too low: {acc:?}");
}

#[test]
fn clean_genome_produces_essentially_no_calls() {
    // Specificity: reads from an unmutated individual, with realistic
    // sequencing errors, must not generate a pile of SNPs.
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let reference = simulate::generate_genome(
        &GenomeConfig {
            length: 8_000,
            repeat_families: 0,
            ..Default::default()
        },
        &mut rng,
    );
    let cfg = ReadSimConfig {
        coverage: 14.0,
        ..Default::default()
    };
    let reads: Vec<_> = simulate_reads(
        &ReadSource::Monoploid(&reference),
        cfg.read_count(reference.len()),
        &cfg,
        &mut rng,
    )
    .into_iter()
    .map(|r| r.read)
    .collect();
    let report = run_pipeline(
        &reference,
        &reads,
        &GnumapConfig::default(),
        &Observer::disabled(),
    );
    assert!(
        report.calls.len() <= 2,
        "clean genome produced {} calls",
        report.calls.len()
    );
}

#[test]
fn snp_inside_a_repeat_is_still_called() {
    // The paper's repeat-region claim: plant a SNP inside a duplicated
    // segment. Single-alignment callers randomly split or discard the
    // evidence; the marginal accumulator still concentrates it.
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    // Build a genome with an exact 200-bp duplication.
    let mut reference = simulate::generate_genome(
        &GenomeConfig {
            length: 6_000,
            repeat_families: 0,
            ..Default::default()
        },
        &mut rng,
    );
    let unit: Vec<_> = (1_000..1_200).map(|p| reference.get(p)).collect();
    for (off, &b) in unit.iter().enumerate() {
        reference.set(4_000 + off, b);
    }
    // SNP in the middle of the *first* copy.
    let snp_pos = 1_100;
    let reference_base = reference.get(snp_pos).unwrap();
    let alt = reference_base.transition();
    let mut individual = reference.clone();
    individual.set(snp_pos, Some(alt));

    let cfg = ReadSimConfig {
        coverage: 20.0,
        profile: ErrorProfile::default(),
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

    let report = run_pipeline(
        &reference,
        &reads,
        &GnumapConfig::default(),
        &Observer::disabled(),
    );
    assert!(
        report
            .calls
            .iter()
            .any(|c| c.pos == snp_pos && c.allele == alt),
        "SNP inside the repeat was missed; calls: {:?}",
        report.calls.iter().map(|c| c.pos).collect::<Vec<_>>()
    );
}

#[test]
fn fdr_cutoff_is_no_looser_than_alpha() {
    let s = setup(8_000, 10, 12.0, 4);
    let alpha = run_pipeline(
        &s.reference,
        &s.reads,
        &GnumapConfig::default(),
        &Observer::disabled(),
    );
    let fdr = run_pipeline(
        &s.reference,
        &s.reads,
        &GnumapConfig {
            calling: SnpCallConfig {
                cutoff: Cutoff::Fdr(0.05),
                ..Default::default()
            },
            ..Default::default()
        },
        &Observer::disabled(),
    );
    let acc_alpha = score_snp_calls(&alpha.calls, &s.truth);
    let acc_fdr = score_snp_calls(&fdr.calls, &s.truth);
    // BH at q=0.05 over mostly-null sites is conservative relative to a
    // raw α=0.05: no more false positives.
    assert!(acc_fdr.false_positives <= acc_alpha.false_positives);
    // Strong planted SNPs (tiny p-values) survive FDR control.
    assert!(acc_fdr.true_positives >= acc_alpha.true_positives.saturating_sub(1));
}

#[test]
fn diploid_pipeline_reports_heterozygous_sites() {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
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
        &SnpCatalogConfig {
            count: 8,
            heterozygous_fraction: 1.0, // all het: the hard case
            ..Default::default()
        },
        &mut rng,
    );
    let individual = simulate::apply_snps_diploid(&reference, &catalog, &mut rng);
    let cfg = ReadSimConfig {
        coverage: 24.0,
        ..Default::default()
    };
    let reads: Vec<_> = simulate_reads(
        &ReadSource::Diploid(&individual),
        cfg.read_count(reference.len()),
        &cfg,
        &mut rng,
    )
    .into_iter()
    .map(|r| r.read)
    .collect();

    let report = run_pipeline(
        &reference,
        &reads,
        &GnumapConfig {
            calling: SnpCallConfig {
                ploidy: Ploidy::Diploid,
                min_total: 6.0,
                ..Default::default()
            },
            ..Default::default()
        },
        &Observer::disabled(),
    );
    let truth: Vec<_> = catalog.iter().map(|s| (s.pos, s.alt)).collect();
    let acc = score_snp_calls(&report.calls, &truth);
    assert!(acc.true_positives >= 6, "het sensitivity too low: {acc:?}");
    // Most recovered sites should be flagged heterozygous (carry both the
    // reference and alternate alleles).
    let het_calls = report
        .calls
        .iter()
        .filter(|c| c.second_allele.is_some())
        .count();
    assert!(
        het_calls * 2 >= acc.true_positives,
        "too few calls marked heterozygous: {het_calls}/{}",
        acc.true_positives
    );
    assert_eq!(
        catalog
            .iter()
            .filter(|s| s.zygosity == Zygosity::Heterozygous)
            .count(),
        catalog.len()
    );
}

#[test]
fn indel_bearing_reads_still_map_and_call() {
    // Reads with occasional insertions/deletions exercise the Pair-HMM's
    // gap states end to end; with a non-zero window pad the mapper should
    // still place them and recover the planted SNPs.
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let reference = simulate::generate_genome(
        &GenomeConfig {
            length: 6_000,
            repeat_families: 0,
            ..Default::default()
        },
        &mut rng,
    );
    let catalog = simulate::generate_snp_catalog(
        &reference,
        &SnpCatalogConfig {
            count: 6,
            ..Default::default()
        },
        &mut rng,
    );
    let individual = simulate::apply_snps_monoploid(&reference, &catalog);
    let cfg = ReadSimConfig {
        coverage: 16.0,
        insertion_rate: 0.002,
        deletion_rate: 0.002,
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

    let mut config = GnumapConfig::default();
    config.mapping.window_pad = 3; // room for deletions at the window end
    let report = run_pipeline(&reference, &reads, &config, &Observer::disabled());
    assert!(
        report.reads_mapped as f64 > reads.len() as f64 * 0.9,
        "indel reads should still map: {}/{}",
        report.reads_mapped,
        reads.len()
    );
    let truth: Vec<_> = catalog.iter().map(|s| (s.pos, s.alt)).collect();
    let acc = score_snp_calls(&report.calls, &truth);
    assert!(acc.true_positives >= 5, "{acc:?}");
}

#[test]
fn quality_aware_calling_beats_quality_blind_data() {
    // Same error pattern, but one run's reads carry honest qualities and
    // the other claims max quality everywhere. The honest run must not be
    // worse — the PWM is the paper's central extension.
    let s = setup(6_000, 8, 12.0, 6);
    let report_honest = run_pipeline(
        &s.reference,
        &s.reads,
        &GnumapConfig::default(),
        &Observer::disabled(),
    );
    let lying_reads: Vec<SequencedRead> = s
        .reads
        .iter()
        .map(|r| SequencedRead::with_uniform_quality(r.id.clone(), r.seq.clone(), 60))
        .collect();
    let report_lying = run_pipeline(
        &s.reference,
        &lying_reads,
        &GnumapConfig::default(),
        &Observer::disabled(),
    );
    let acc_honest = score_snp_calls(&report_honest.calls, &s.truth);
    let acc_lying = score_snp_calls(&report_lying.calls, &s.truth);
    assert!(
        acc_honest.false_positives <= acc_lying.false_positives,
        "honest qualities should not increase FPs: {acc_honest:?} vs {acc_lying:?}"
    );
}

#[test]
fn call_reports_a_bad_fastq_in_one_line_and_exits_1() {
    let dir = std::env::temp_dir().join(format!("gnumap-bad-fastq-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let reference = dir.join("reference.fa");
    let reads = dir.join("reads.fq");
    std::fs::write(&reference, ">chr\nACGTACGTACGTACGTACGT\n").unwrap();
    std::fs::write(&reads, "@r1\nACGT\n+\nII\u{1}I\n").unwrap();
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_gnumap"))
        .arg("call")
        .arg("--reference")
        .arg(&reference)
        .arg("--reads")
        .arg(&reads)
        .arg("--out")
        .arg(dir.join("calls.vcf"))
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.starts_with("gnumap: "), "{stderr}");
    assert!(stderr.contains("line 4"), "{stderr}");
    assert!(!stderr.contains("USAGE"), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
}
