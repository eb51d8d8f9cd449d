//! File-level integration: the pipeline run from FASTA + FASTQ files on
//! disk, exactly as a downstream user would drive it.

use genome::fasta::{read_fasta, write_fasta, FastaRecord};
use genome::fastq::{read_fastq, write_fastq};
use gnumap_snp::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use simulate::reads::{simulate_reads, ReadSimConfig, ReadSource};
use simulate::{GenomeConfig, SnpCatalogConfig};
use std::fs::File;
use std::io::{BufReader, BufWriter};

#[test]
fn pipeline_from_files_matches_in_memory_run() {
    let mut rng = ChaCha8Rng::seed_from_u64(77);
    let reference = simulate::generate_genome(
        &GenomeConfig {
            length: 5_000,
            repeat_families: 0,
            ..Default::default()
        },
        &mut rng,
    );
    let catalog = simulate::generate_snp_catalog(
        &reference,
        &SnpCatalogConfig {
            count: 5,
            ..Default::default()
        },
        &mut rng,
    );
    let individual = simulate::apply_snps_monoploid(&reference, &catalog);
    let cfg = ReadSimConfig {
        coverage: 12.0,
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

    // Write to a unique temp directory.
    let dir = std::env::temp_dir().join(format!("gnumap-snp-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let fasta_path = dir.join("reference.fa");
    let fastq_path = dir.join("reads.fq");
    write_fasta(
        BufWriter::new(File::create(&fasta_path).unwrap()),
        &[FastaRecord {
            id: "sim_chr".into(),
            seq: reference.clone(),
        }],
        70,
    )
    .unwrap();
    write_fastq(BufWriter::new(File::create(&fastq_path).unwrap()), &reads).unwrap();

    // Read back and verify exact round trips.
    let fasta = read_fasta(BufReader::new(File::open(&fasta_path).unwrap())).unwrap();
    assert_eq!(fasta.len(), 1);
    assert_eq!(fasta[0].seq, reference);
    let reads_back = read_fastq(BufReader::new(File::open(&fastq_path).unwrap())).unwrap();
    assert_eq!(reads_back, reads);

    // Run the pipeline from the file-loaded data: identical calls.
    let from_memory = run_pipeline(
        &reference,
        &reads,
        &GnumapConfig::default(),
        &Observer::disabled(),
    );
    let from_files = run_pipeline(
        &fasta[0].seq,
        &reads_back,
        &GnumapConfig::default(),
        &Observer::disabled(),
    );
    assert_eq!(from_files.calls, from_memory.calls);

    // And the calls actually recover the planted SNPs.
    let truth: Vec<_> = catalog.iter().map(|s| (s.pos, s.alt)).collect();
    let acc = score_snp_calls(&from_files.calls, &truth);
    assert!(acc.true_positives >= 4, "{acc:?}");

    std::fs::remove_dir_all(&dir).ok();
}
