//! Decomposition-independence: the serial pipeline, the rayon driver and
//! both simulated-MPI drivers must produce the same SNP calls on the same
//! input (NORM accumulator, p-value cutoff) — the strongest evidence that
//! the parallelisation is semantics-preserving, which is what lets the
//! paper claim its speedups come "for free".

use gnumap_snp::engine;
use gnumap_snp::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use simulate::reads::{simulate_reads, ReadSimConfig, ReadSource};
use simulate::{GenomeConfig, SnpCatalogConfig};

fn workload() -> (DnaSeq, Vec<SequencedRead>) {
    let mut rng = ChaCha8Rng::seed_from_u64(12);
    let reference = simulate::generate_genome(
        &GenomeConfig {
            length: 6_000,
            repeat_families: 2,
            repeat_length: 150,
            repeat_copies: 2,
            repeat_divergence: 0.01,
            ..Default::default()
        },
        &mut rng,
    );
    let catalog = simulate::generate_snp_catalog(
        &reference,
        &SnpCatalogConfig {
            count: 8,
            ..Default::default()
        },
        &mut rng,
    );
    let individual = simulate::apply_snps_monoploid(&reference, &catalog);
    let cfg = ReadSimConfig {
        coverage: 12.0,
        ..Default::default()
    };
    let reads = simulate_reads(
        &ReadSource::Monoploid(&individual),
        cfg.read_count(reference.len()),
        &cfg,
        &mut rng,
    )
    .into_iter()
    .map(|r| r.read)
    .collect();
    (reference, reads)
}

fn call_keys(calls: &[SnpCall]) -> Vec<(usize, Base)> {
    calls.iter().map(|c| (c.pos, c.allele)).collect()
}

/// Run the registry driver `name` (NORM accumulator, p-value cutoff)
/// with `threads` threads or ranks.
fn run(name: &str, reference: &DnaSeq, reads: &[SequencedRead], threads: usize) -> RunReport {
    let mut ctx = RunContext::new(reference);
    ctx.threads = threads;
    DriverRegistry::standard()
        .get(name)
        .expect("registered driver")
        .run(&ctx, engine::ReadSource::Slice(reads), &mut NullSink)
        .expect("run succeeds")
}

#[test]
fn all_four_drivers_agree() {
    let (reference, reads) = workload();
    let serial = run("serial", &reference, &reads, 1);
    let serial_keys = call_keys(&serial.calls);
    assert!(
        !serial_keys.is_empty(),
        "fixture must produce at least one call"
    );

    let rayon = run("rayon", &reference, &reads, 3);
    assert_eq!(call_keys(&rayon.calls), serial_keys, "rayon differs");

    let read_split = run("read-split", &reference, &reads, 3);
    assert_eq!(
        call_keys(&read_split.calls),
        serial_keys,
        "read-split differs"
    );

    let genome_split = run("genome-split", &reference, &reads, 3);
    assert_eq!(
        call_keys(&genome_split.calls),
        serial_keys,
        "genome-split differs"
    );
}

#[test]
fn rank_count_does_not_change_results() {
    let (reference, reads) = workload();
    let one = run("read-split", &reference, &reads, 1);
    let keys = call_keys(&one.calls);
    for ranks in [2usize, 4, 7] {
        let r = run("read-split", &reference, &reads, ranks);
        assert_eq!(call_keys(&r.calls), keys, "read-split ranks={ranks}");
        let g = run("genome-split", &reference, &reads, ranks);
        assert_eq!(call_keys(&g.calls), keys, "genome-split ranks={ranks}");
    }
}

#[test]
fn repeated_runs_are_bit_deterministic() {
    let (reference, reads) = workload();
    let a = run("read-split", &reference, &reads, 4);
    let b = run("read-split", &reference, &reads, 4);
    assert_eq!(a.calls, b.calls, "same input, same ranks → identical calls");
    assert_eq!(a.reads_mapped, b.reads_mapped);
}
