//! Decomposition-independence for the streaming engine: on a ~100 kb
//! genome with planted SNPs, `run_stream::<FixedAccumulator>` must call
//! exactly the same SNPs as the serial pipeline — for any worker count,
//! batch size, and checkpoint/kill/resume split. Integer accumulation
//! makes this bit-exact, not approximately equal.

use exec::{
    run_stream, CheckpointPolicy, ExecError, FastqStream, MemoryStream, ReadStream, StreamConfig,
};
use genome::{DnaSeq, SequencedRead};
use gnumap_core::accum::{AccumulatorMode, FixedAccumulator};
use gnumap_core::pipeline::run_pipeline;
use gnumap_core::{GnumapConfig, Observer, RunReport};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use simulate::reads::{simulate_reads, ReadSimConfig, ReadSource};
use simulate::{GenomeConfig, PlantedSnp, SnpCatalogConfig};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

struct Workload {
    reference: DnaSeq,
    snps: Vec<PlantedSnp>,
    reads: Vec<SequencedRead>,
}

/// ~100 kb reference, 120 planted SNPs, ~5x coverage (~8k reads).
/// Built once and shared across tests — the mapping runs dominate test
/// time, not this.
fn workload() -> &'static Workload {
    static W: OnceLock<Workload> = OnceLock::new();
    W.get_or_init(|| {
        let mut rng = ChaCha8Rng::seed_from_u64(2012);
        let reference = simulate::generate_genome(
            &GenomeConfig {
                length: 100_000,
                repeat_families: 3,
                ..Default::default()
            },
            &mut rng,
        );
        let snps = simulate::generate_snp_catalog(
            &reference,
            &SnpCatalogConfig {
                count: 120,
                ..Default::default()
            },
            &mut rng,
        );
        let individual = simulate::apply_snps_monoploid(&reference, &snps);
        let sim = ReadSimConfig {
            coverage: 5.0,
            ..Default::default()
        };
        let reads = simulate_reads(
            &ReadSource::Monoploid(&individual),
            sim.read_count(reference.len()),
            &sim,
            &mut rng,
        )
        .into_iter()
        .map(|r| r.read)
        .collect();
        Workload {
            reference,
            snps,
            reads,
        }
    })
}

fn serial_reference() -> &'static RunReport {
    static R: OnceLock<RunReport> = OnceLock::new();
    R.get_or_init(|| {
        let w = workload();
        run_pipeline(
            &w.reference,
            &w.reads,
            &GnumapConfig {
                accumulator: AccumulatorMode::Fixed,
                ..GnumapConfig::default()
            },
            &Observer::disabled(),
        )
    })
}

/// Small windows so runs span many scheduling windows and barriers.
fn small_windows() -> StreamConfig {
    StreamConfig {
        workers: 2,
        batch_size: 16,
        ..Default::default()
    }
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("exec-it-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn serial_reference_recovers_planted_snps() {
    let w = workload();
    let serial = serial_reference();
    assert!(!serial.calls.is_empty());
    let called: std::collections::HashSet<usize> = serial.calls.iter().map(|c| c.pos).collect();
    let recovered = w.snps.iter().filter(|s| called.contains(&s.pos)).count();
    assert!(
        recovered * 10 > w.snps.len() * 7,
        "only {recovered}/{} planted SNPs recovered",
        w.snps.len()
    );
}

#[test]
fn stream_calls_match_serial_bit_exactly() {
    let w = workload();
    let serial = serial_reference();
    let config = GnumapConfig::default();
    for (workers, batch_size) in [(1, 64), (2, 32), (4, 128)] {
        let mut stream = MemoryStream::new(w.reads.clone());
        let sc = StreamConfig {
            workers,
            batch_size,
            ..Default::default()
        };
        let report = run_stream::<FixedAccumulator>(
            &w.reference,
            &mut stream,
            &config,
            &sc,
            &Observer::disabled(),
        )
        .unwrap_or_else(|e| panic!("workers={workers}: {e}"));
        assert_eq!(
            report.calls, serial.calls,
            "calls diverged at workers={workers} batch={batch_size}"
        );
        assert_eq!(report.reads_processed, w.reads.len());
        assert_eq!(report.reads_mapped, serial.reads_mapped);
        assert_eq!(report.accumulator_bytes, serial.accumulator_bytes);
        let stats = report.stream.expect("streaming driver reports stats");
        assert_eq!(stats.workers, workers);
        assert_eq!(report.rank_cpu_secs.len(), workers);
    }
}

#[test]
fn fastq_streamed_run_matches_serial() {
    let w = workload();
    let serial = serial_reference();
    let dir = tmpdir("fastq");
    let path = dir.join("reads.fq");
    {
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path).unwrap());
        genome::fastq::write_fastq(&mut f, &w.reads).unwrap();
    }
    let mut stream = FastqStream::open(&path).unwrap();
    let report = run_stream::<FixedAccumulator>(
        &w.reference,
        &mut stream,
        &GnumapConfig::default(),
        &small_windows(),
        &Observer::disabled(),
    )
    .unwrap();
    assert_eq!(report.calls, serial.calls);
    assert_eq!(report.reads_processed, w.reads.len());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_kill_resume_matches_uninterrupted() {
    let w = workload();
    let serial = serial_reference();
    let config = GnumapConfig::default();
    let dir = tmpdir("resume");
    let path = dir.join("run.ckpt");

    // Kill after 12 batches (3 windows of 4 batches); checkpoints land
    // every 8 batches, so the last one on disk is older than the kill
    // point and the resumed run must redo the lost window.
    let killed_cfg = StreamConfig {
        checkpoint: Some(CheckpointPolicy {
            path: path.clone(),
            every_batches: 8,
            resume: false,
        }),
        abort_after_batches: Some(12),
        ..small_windows()
    };
    let mut stream = MemoryStream::new(w.reads.clone());
    let err = run_stream::<FixedAccumulator>(
        &w.reference,
        &mut stream,
        &config,
        &killed_cfg,
        &Observer::disabled(),
    )
    .unwrap_err();
    let killed_cursor = match err {
        ExecError::Aborted { cursor } => cursor,
        other => panic!("expected kill, got {other}"),
    };
    assert!(killed_cursor > 0 && killed_cursor < w.reads.len());

    let cp = exec::checkpoint::load(&path)
        .unwrap()
        .expect("a checkpoint survives the kill");
    assert!(
        cp.cursor < killed_cursor,
        "checkpoint ({}) must predate the kill point ({killed_cursor}) to prove lost work is redone",
        cp.cursor
    );

    let resume_cfg = StreamConfig {
        checkpoint: Some(CheckpointPolicy {
            path: path.clone(),
            every_batches: 8,
            resume: true,
        }),
        ..small_windows()
    };
    let mut stream = MemoryStream::new(w.reads.clone());
    let resumed = run_stream::<FixedAccumulator>(
        &w.reference,
        &mut stream,
        &config,
        &resume_cfg,
        &Observer::disabled(),
    )
    .unwrap();

    assert_eq!(resumed.calls, serial.calls, "resumed calls diverged");
    assert_eq!(resumed.reads_processed, w.reads.len());
    assert_eq!(resumed.reads_mapped, serial.reads_mapped);
    let stats = resumed.stream.unwrap();
    assert!(stats.resumed_from_checkpoint);
    assert!(stats.checkpoints_written > 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_without_checkpoint_file_starts_from_scratch() {
    let w = workload();
    let serial = serial_reference();
    let dir = tmpdir("fresh");
    let resume_cfg = StreamConfig {
        checkpoint: Some(CheckpointPolicy {
            path: dir.join("never-written.ckpt"),
            every_batches: usize::MAX,
            resume: true,
        }),
        ..small_windows()
    };
    let mut stream = MemoryStream::new(w.reads.clone());
    let report = run_stream::<FixedAccumulator>(
        &w.reference,
        &mut stream,
        &GnumapConfig::default(),
        &resume_cfg,
        &Observer::disabled(),
    )
    .unwrap();
    assert_eq!(report.calls, serial.calls);
    let stats = report.stream.unwrap();
    assert!(!stats.resumed_from_checkpoint);
    assert_eq!(stats.checkpoints_written, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// A source that takes `delay` to produce each chunk of at most `per_call`
/// reads, like a slow disk or network feed.
struct SlowStream {
    inner: MemoryStream,
    per_call: usize,
    delay: Duration,
}

impl ReadStream for SlowStream {
    fn next_chunk(&mut self, max: usize) -> Result<Vec<SequencedRead>, ExecError> {
        std::thread::sleep(self.delay);
        self.inner.next_chunk(max.min(self.per_call))
    }

    fn skip(&mut self, n: usize) -> Result<(), ExecError> {
        self.inner.skip(n)
    }
}

#[test]
fn idle_workers_do_not_burn_cpu_while_the_source_is_slow() {
    let w = workload();
    // Eight windows of 2 workers × 2 batches × 4 reads, one 30 ms chunk
    // per window: the run is mostly waiting on the source.
    let sc = StreamConfig {
        workers: 2,
        batch_size: 4,
        ..Default::default()
    };
    let window = 16;
    let mut stream = SlowStream {
        inner: MemoryStream::new(w.reads[..8 * window].to_vec()),
        per_call: window,
        delay: Duration::from_millis(30),
    };
    let started = Instant::now();
    let report = run_stream::<FixedAccumulator>(
        &w.reference,
        &mut stream,
        &GnumapConfig::default(),
        &sc,
        &Observer::disabled(),
    )
    .unwrap();
    let wall = started.elapsed().as_secs_f64();
    assert_eq!(report.reads_processed, 8 * window);
    let cpu: f64 = report.rank_cpu_secs.iter().sum();
    assert!(
        cpu < wall / 4.0,
        "workers used {cpu:.3} CPU-s over a {wall:.3} s run that mostly waits on its source"
    );
}
