//! Engine contract tests: every registry driver honours the run
//! contract on a small seeded workload, and the bit-exact ones match the
//! serial fixed-point digest.

use engine::{DriverRegistry, EngineError, ReadSource, RunContext, VecSink};
use exec::MemoryStream;
use genome::read::SequencedRead;
use genome::seq::DnaSeq;
use gnumap_core::accum::AccumulatorMode;
use gnumap_core::observe::Observer;
use gnumap_core::observe::{Event, MemorySink};
use gnumap_core::GnumapConfig;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use simulate::reads::{simulate_reads, ReadSimConfig, ReadSource as SimSource};
use simulate::{
    apply_snps_monoploid, generate_genome, generate_snp_catalog, GenomeConfig, SnpCatalogConfig,
};
use std::sync::Arc;

fn fixture(seed: u64) -> (DnaSeq, Vec<SequencedRead>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let reference = generate_genome(
        &GenomeConfig {
            length: 3_000,
            repeat_families: 1,
            ..GenomeConfig::default()
        },
        &mut rng,
    );
    let snps = generate_snp_catalog(
        &reference,
        &SnpCatalogConfig {
            count: 4,
            ..SnpCatalogConfig::default()
        },
        &mut rng,
    );
    let individual = apply_snps_monoploid(&reference, &snps);
    let cfg = ReadSimConfig {
        coverage: 8.0,
        ..ReadSimConfig::default()
    };
    let count = cfg.read_count(reference.len());
    let reads = simulate_reads(&SimSource::Monoploid(&individual), count, &cfg, &mut rng)
        .into_iter()
        .map(|r| r.read)
        .collect();
    (reference, reads)
}

#[test]
fn every_bit_exact_driver_matches_the_serial_fixed_digest() {
    let (reference, reads) = fixture(2024);
    let registry = DriverRegistry::standard();

    let mut ctx = RunContext::new(&reference);
    ctx.config = GnumapConfig {
        accumulator: AccumulatorMode::Fixed,
        ..GnumapConfig::default()
    };
    ctx.threads = 3;
    ctx.batch_size = 16;

    let serial = registry
        .get("serial")
        .unwrap()
        .run(&ctx, ReadSource::Slice(&reads), &mut VecSink::default())
        .expect("serial run");
    let want = serial.accumulator_digest.expect("serial digest");

    for driver in registry.all() {
        if !driver.capabilities().supports(AccumulatorMode::Fixed) {
            continue;
        }
        let mut sink = VecSink::default();
        let report = driver
            .run(&ctx, ReadSource::Slice(&reads), &mut sink)
            .unwrap_or_else(|e| panic!("{} failed: {e}", driver.name()));
        assert_eq!(
            report.accumulator_digest,
            Some(want),
            "{} digest diverged from serial",
            driver.name()
        );
        assert_eq!(
            sink.calls.len(),
            serial.calls.len(),
            "{} delivered a different call count to the sink",
            driver.name()
        );
        assert_eq!(
            report.reads_mapped,
            serial.reads_mapped,
            "{}",
            driver.name()
        );
    }
}

#[test]
fn stream_source_and_slice_source_agree() {
    let (reference, reads) = fixture(77);
    let registry = DriverRegistry::standard();
    let driver = registry.get("stream").unwrap();

    let mut ctx = RunContext::new(&reference);
    ctx.config.accumulator = AccumulatorMode::Fixed;
    ctx.threads = 2;
    ctx.batch_size = 16;

    let from_slice = driver
        .run(&ctx, ReadSource::Slice(&reads), &mut VecSink::default())
        .expect("slice run");
    let mut stream = MemoryStream::new(reads.clone());
    let from_stream = driver
        .run(
            &ctx,
            ReadSource::Stream(&mut stream),
            &mut VecSink::default(),
        )
        .expect("stream run");
    assert_eq!(
        from_slice.accumulator_digest,
        from_stream.accumulator_digest
    );

    // Slice-based drivers drain a stream source the same way.
    let serial = registry.get("serial").unwrap();
    let mut stream = MemoryStream::new(reads.clone());
    let drained = serial
        .run(
            &ctx,
            ReadSource::Stream(&mut stream),
            &mut VecSink::default(),
        )
        .expect("serial over stream source");
    assert_eq!(drained.accumulator_digest, from_slice.accumulator_digest);
}

#[test]
fn unsupported_accumulators_are_typed_errors() {
    let (reference, reads) = fixture(5);
    let registry = DriverRegistry::standard();
    let mut ctx = RunContext::new(&reference);
    ctx.config.accumulator = AccumulatorMode::CharDisc;

    for name in ["rayon", "read-split-ring", "stream", "server"] {
        let driver = registry.get(name).unwrap();
        assert!(!driver.capabilities().supports(AccumulatorMode::CharDisc));
        let err = driver
            .run(&ctx, ReadSource::Slice(&reads), &mut VecSink::default())
            .expect_err(name);
        match err {
            EngineError::UnsupportedAccumulator { driver, mode, .. } => {
                assert_eq!(driver, name);
                assert_eq!(mode, AccumulatorMode::CharDisc);
            }
            other => panic!("{name}: unexpected error {other:?}"),
        }
    }
}

#[test]
fn every_driver_emits_run_events_through_the_context_observer() {
    let (reference, reads) = fixture(91);
    let registry = DriverRegistry::standard();

    for driver in registry.all() {
        let sink = Arc::new(MemorySink::default());
        let mut ctx = RunContext::new(&reference);
        ctx.config.accumulator = if driver.capabilities().supports(AccumulatorMode::Fixed) {
            AccumulatorMode::Fixed
        } else {
            AccumulatorMode::Norm
        };
        ctx.threads = 2;
        ctx.observer = Observer::new(sink.clone());
        driver
            .run(&ctx, ReadSource::Slice(&reads), &mut VecSink::default())
            .unwrap_or_else(|e| panic!("{} failed: {e}", driver.name()));
        let events = sink.events();
        let kinds: Vec<&str> = events.iter().map(|e| e.kind()).collect();
        assert_eq!(
            kinds.first().copied(),
            Some("run_start"),
            "{}: events {kinds:?}",
            driver.name()
        );
        assert!(
            kinds.contains(&"stage_end"),
            "{}: no stage timings in {kinds:?}",
            driver.name()
        );
    }
}

#[test]
fn invalid_context_is_rejected_before_running() {
    let (reference, reads) = fixture(1);
    let registry = DriverRegistry::standard();
    let mut ctx = RunContext::new(&reference);
    ctx.threads = 0;
    let err = registry
        .get("rayon")
        .unwrap()
        .run(&ctx, ReadSource::Slice(&reads), &mut VecSink::default())
        .expect_err("zero threads");
    assert!(matches!(err, EngineError::InvalidContext(_)), "{err:?}");
}

/// Σ`kept` and Σ`deposited_columns` over a run's `batch` events.
fn batch_totals(events: &[Event]) -> Option<(u64, u64)> {
    let mut totals = None;
    for event in events {
        if let Event::Batch {
            kept,
            deposited_columns,
            ..
        } = event
        {
            let (k, c) = totals.get_or_insert((0, 0));
            *k += kept;
            *c += deposited_columns;
        }
    }
    totals
}

#[test]
fn batch_counters_sum_to_the_serial_totals_for_every_driver() {
    let (reference, reads) = fixture(1109);
    let registry = DriverRegistry::standard();
    let run = |name: &str| {
        let sink = Arc::new(MemorySink::default());
        let mut ctx = RunContext::new(&reference);
        ctx.config.accumulator = AccumulatorMode::Norm;
        ctx.threads = 3;
        ctx.batch_size = 16;
        ctx.observer = Observer::new(sink.clone());
        registry
            .get(name)
            .unwrap()
            .run(&ctx, ReadSource::Slice(&reads), &mut VecSink::default())
            .unwrap_or_else(|e| panic!("{name} failed: {e}"));
        batch_totals(&sink.take())
    };
    let (serial_kept, serial_columns) = run("serial").expect("serial emits batch events");
    assert!(serial_kept >= reads.len() as u64 / 2, "{serial_kept}");

    let mut checked = 0;
    for name in registry.names() {
        let Some((kept, columns)) = run(name) else {
            continue;
        };
        assert_eq!(kept, serial_kept, "{name}: Σkept differs from serial");
        assert_eq!(
            columns, serial_columns,
            "{name}: Σdeposited_columns differs from serial"
        );
        checked += 1;
    }
    assert!(checked >= 6, "only {checked} drivers emitted batch events");

    // The server counts the same kept alignments into its Stats frame.
    let handle = server::start(
        reference.clone(),
        GnumapConfig::default(),
        server::ServerConfig::default(),
        "127.0.0.1:0",
    )
    .expect("server starts");
    let mut client = server::Client::connect(handle.addr()).expect("connect");
    let session = client
        .open_session(server::SessionConfig::default())
        .expect("open session");
    for chunk in reads.chunks(64) {
        client
            .submit_reads_retrying(session, chunk)
            .expect("submit");
    }
    client.finalize(session, 60_000).expect("finalize");
    let stats = client.stats().expect("stats");
    handle.shutdown();
    handle.join();
    assert_eq!(stats.alignments_kept, serial_kept);
    assert_eq!(stats.deposit_columns, serial_columns);
}
