//! Integration tests for the paper's memory-optimization claims
//! (Tables II/III) and the simulated-scaling machinery (Figures 4/5) as
//! executable assertions.

use gnumap_snp::core::accum::{
    AccumulatorMode, CentDiscAccumulator, CharDiscAccumulator, GenomeAccumulator, NormAccumulator,
};
use gnumap_snp::core::report::CommModel;
use gnumap_snp::engine;
use gnumap_snp::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use simulate::reads::{simulate_reads, ReadSimConfig, ReadSource};
use simulate::{GenomeConfig, SnpCatalogConfig};

fn workload(
    len: usize,
    snps: usize,
    coverage: f64,
    seed: u64,
) -> (genome::DnaSeq, Vec<(usize, Base)>, Vec<SequencedRead>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let reference = simulate::generate_genome(
        &GenomeConfig {
            length: len,
            repeat_families: 1,
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
        cfg.read_count(len),
        &cfg,
        &mut rng,
    )
    .into_iter()
    .map(|r| r.read)
    .collect();
    (
        reference,
        catalog.iter().map(|s| (s.pos, s.alt)).collect(),
        reads,
    )
}

/// Table II's shape as a test: accumulator bytes strictly ordered
/// NORM > CHARDISC > CENTDISC at identical genome length.
#[test]
fn accumulator_memory_ordering() {
    let len = 50_000;
    let norm = NormAccumulator::new(len).heap_bytes();
    let chard = CharDiscAccumulator::new(len).heap_bytes();
    let cent = CentDiscAccumulator::new(len).heap_bytes();
    assert!(norm > chard && chard > cent, "{norm} > {chard} > {cent}");
    // And the per-base arithmetic matches the mode constants.
    assert_eq!(norm, len * AccumulatorMode::Norm.bytes_per_base());
    assert_eq!(chard, len * AccumulatorMode::CharDisc.bytes_per_base());
    assert_eq!(cent, len * AccumulatorMode::CentDisc.bytes_per_base());
}

/// Table III's shape as a test: CHARDISC keeps precision while CENTDISC's
/// precision collapses on the same workload.
#[test]
fn centdisc_accuracy_collapses_but_chardisc_does_not() {
    let (reference, truth, reads) = workload(20_000, 10, 12.0, 31);
    let run = |mode: AccumulatorMode| {
        let report = run_pipeline(
            &reference,
            &reads,
            &GnumapConfig {
                accumulator: mode,
                ..Default::default()
            },
            &Observer::disabled(),
        );
        score_snp_calls(&report.calls, &truth)
    };
    let norm = run(AccumulatorMode::Norm);
    let chard = run(AccumulatorMode::CharDisc);
    let cent = run(AccumulatorMode::CentDisc);

    assert!(norm.precision() >= 0.9, "NORM baseline: {norm:?}");
    assert!(
        chard.precision() >= norm.precision() - 0.1,
        "CHARDISC must hold precision: {chard:?} vs {norm:?}"
    );
    assert!(
        cent.false_positives >= norm.false_positives + 5,
        "CENTDISC should produce a burst of false positives: {cent:?}"
    );
    assert!(
        cent.precision() < 0.8,
        "CENTDISC precision must collapse: {cent:?}"
    );
}

/// Figure 4/5 machinery: per-rank CPU shrinks with more ranks (read-split
/// divides the mapping work), so the simulated parallel time improves.
#[test]
fn simulated_scaling_improves_with_ranks() {
    let (reference, _, reads) = workload(15_000, 5, 10.0, 32);
    let model = CommModel::default();
    let read_split = DriverRegistry::standard();
    let read_split = read_split.get("read-split").expect("registered driver");
    let best = |ranks: usize| -> f64 {
        // Best of 3 to dodge scheduler interference on busy CI hosts.
        (0..3)
            .map(|_| {
                let mut ctx = RunContext::new(&reference);
                ctx.threads = ranks;
                read_split
                    .run(&ctx, engine::ReadSource::Slice(&reads), &mut NullSink)
                    .unwrap()
                    .simulated_parallel_secs(&model)
                    .expect("MPI driver reports rank CPU")
            })
            .fold(f64::INFINITY, f64::min)
    };
    let t1 = best(1);
    let t4 = best(4);
    assert!(
        t4 < t1 * 0.6,
        "4 ranks should beat 1 rank by well over 40%: {t1:.3}s vs {t4:.3}s"
    );
}

/// The communication model itself.
#[test]
fn comm_model_arithmetic() {
    let model = CommModel {
        latency_secs: 1e-3,
        bytes_per_sec: 1e6,
    };
    let traffic = mpisim::TrafficStats {
        messages: 10,
        payload_bytes: 2_000_000,
        barriers: 0,
        collectives: 0,
    };
    // 10 ms latency + 2 s transfer.
    assert!((model.seconds(&traffic) - 2.01).abs() < 1e-9);
}
