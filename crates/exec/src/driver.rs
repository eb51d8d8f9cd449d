//! The streaming batch scheduler and worker pool.
//!
//! Topology:
//!
//! ```text
//! source thread ──bounded channel──▶ scheduler ──injector──▶ N workers
//!   (ReadStream)   (backpressure)      │    ▲                 │
//!                                      │    └──batch results──┘
//!                                      └─▶ checkpoint at window barriers
//! ```
//!
//! The **source thread** pulls fixed-size chunks from the [`ReadStream`]
//! and sends them down a bounded channel; when workers fall behind, the
//! channel fills and the source blocks — backpressure, measured as
//! `source_stall_secs`.
//!
//! The **scheduler** (caller's thread) drains chunks into a *window* of
//! `workers × batches_per_worker × batch_size` reads, stable-sorts the
//! window by read length (so a micro-batch holds similar-length reads and
//! its Pair-HMM work is even), splits it into micro-batches and pushes
//! them onto a work-stealing injector. It then waits for every batch of
//! the window to complete — the *window barrier* — advances the stream
//! cursor, and (on schedule) writes a checkpoint. Window composition
//! depends only on stream order and configuration, never on timing, which
//! is what makes runs reproducible.
//!
//! **Workers** steal batches, map each read, and deposit evidence directly
//! into the [`ShardedAccumulator`] — no per-worker replica, no final
//! merge. With [`FixedAccumulator`] deposits commute bit-exactly, so any
//! steal order yields the identical accumulator.
//!
//! [`FixedAccumulator`]: gnumap_core::accum::FixedAccumulator

use crate::checkpoint::{self, Checkpoint};
use crate::error::ExecError;
use crate::sharded::ShardedAccumulator;
use crate::stream::ReadStream;
use crossbeam::channel;
use crossbeam::deque::{Injector, Steal};
use crossbeam::utils::Backoff;
use genome::read::SequencedRead;
use genome::seq::DnaSeq;
use gnumap_core::accum::GenomeAccumulator;
use gnumap_core::mapping::AlignScratch;
use gnumap_core::observe::{Event, Observer, Stage, StageTimer};
use gnumap_core::pipeline::accumulate_reads_with;
use gnumap_core::report::{RunReport, StreamStats};
use gnumap_core::snpcall::call_snps;
use gnumap_core::{GnumapConfig, MappingEngine};
use mpisim::ThreadCpuTimer;
use parking_lot::Mutex;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// When and where to snapshot engine state.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointPolicy {
    /// Checkpoint file path (its parent directory must exist).
    pub path: PathBuf,
    /// Write a checkpoint every `every_batches` dispatched batches
    /// (rounded up to the next window barrier).
    pub every_batches: usize,
    /// On startup, load `path` if present and resume from its cursor.
    pub resume: bool,
}

/// Streaming engine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamConfig {
    /// Worker threads mapping reads.
    pub workers: usize,
    /// Reads per micro-batch.
    pub batch_size: usize,
    /// Reads per source chunk (one channel message).
    pub chunk_size: usize,
    /// Bounded channel capacity in chunks; the source blocks when the
    /// scheduler falls this far behind.
    pub channel_capacity: usize,
    /// Micro-batches per worker per scheduling window.
    pub batches_per_worker: usize,
    /// Lock stripes in the shared accumulator.
    pub shards: usize,
    /// Periodic checkpointing; `None` disables it.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Kill hook for tests: abort (as if killed) at the first window
    /// barrier where at least this many batches have been dispatched.
    pub abort_after_batches: Option<usize>,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            workers: 1,
            batch_size: 64,
            chunk_size: 256,
            channel_capacity: 4,
            batches_per_worker: 2,
            shards: 16,
            checkpoint: None,
            abort_after_batches: None,
        }
    }
}

/// One unit of worker work.
struct Batch {
    reads: Vec<SequencedRead>,
}

/// Completion message from a worker.
struct BatchDone {
    reads: usize,
    mapped: usize,
}

/// Run the streaming engine over `stream`, calling SNPs at end of input.
///
/// With `A = FixedAccumulator` the returned calls are bit-identical to
/// the serial pipeline's on the same reads, for any worker count, batch
/// size, chunking or checkpoint/resume split. `observer` receives one
/// [`Event::Batch`] per stolen micro-batch (tagged with the stealing
/// worker's index), an [`Event::Checkpoint`] for every checkpoint record
/// written, and stage timings taken on the scheduler thread.
pub fn run_stream<A: GenomeAccumulator>(
    reference: &DnaSeq,
    stream: &mut dyn ReadStream,
    config: &GnumapConfig,
    sc: &StreamConfig,
    observer: &Observer,
) -> Result<RunReport, ExecError> {
    assert!(sc.workers >= 1, "need at least one worker");
    assert!(sc.batch_size >= 1, "batches must hold at least one read");
    assert!(sc.chunk_size >= 1, "chunks must hold at least one read");
    observer.emit(|| Event::run_start("stream", config.accumulator));
    let start = Instant::now();

    // ---- resume --------------------------------------------------------
    let sharded = ShardedAccumulator::<A>::new(reference.len(), sc.shards);
    let mut cursor = 0usize;
    let mut mapped_total = 0usize;
    let mut resumed = false;
    if let Some(policy) = &sc.checkpoint {
        if policy.resume {
            if let Some(cp) = checkpoint::load(&policy.path)? {
                if cp.counts.len() != reference.len() {
                    return Err(ExecError::Checkpoint(format!(
                        "{}: snapshot covers {} positions, reference has {}",
                        policy.path.display(),
                        cp.counts.len(),
                        reference.len()
                    )));
                }
                sharded.load_counts(&cp.counts);
                cursor = cp.cursor;
                mapped_total = cp.reads_mapped;
                stream.skip(cursor)?;
                resumed = true;
            }
        }
    }

    let timer = StageTimer::start(observer, Stage::Index);
    let engine = MappingEngine::new(reference, config.mapping);
    timer.finish(observer);
    let window_reads = sc.workers * sc.batches_per_worker * sc.batch_size;

    // ---- plumbing ------------------------------------------------------
    let (chunk_tx, chunk_rx) = channel::bounded::<Vec<SequencedRead>>(sc.channel_capacity);
    let (done_tx, done_rx) = channel::unbounded::<BatchDone>();
    let injector = Injector::<Batch>::new();
    let shutdown = AtomicBool::new(false);
    let source_stall_nanos = AtomicU64::new(0);
    let source_error: Mutex<Option<ExecError>> = Mutex::new(None);

    // ---- stats ---------------------------------------------------------
    let mut batches_dispatched = 0usize;
    let mut reads_dispatched = 0usize;
    let mut max_queue_depth = 0usize;
    let mut queue_depth_sum = 0usize;
    let mut queue_samples = 0usize;
    let mut checkpoints_written = 0usize;
    let mut batches_since_checkpoint = 0usize;
    let mut aborted = false;

    let map_timer = StageTimer::start(observer, Stage::Map);
    let worker_outcomes = std::thread::scope(|scope| -> Result<Vec<(f64, f64)>, ExecError> {
        // Source thread: chunk the stream into the bounded channel. It
        // owns the only sender, so the channel disconnects (and the
        // scheduler sees end of stream) the moment this thread returns.
        let source_error_ref = &source_error;
        let source_stall_ref = &source_stall_nanos;
        scope.spawn(move || {
            let tx = chunk_tx;
            loop {
                let chunk = match stream.next_chunk(sc.chunk_size) {
                    Ok(c) => c,
                    Err(e) => {
                        *source_error_ref.lock() = Some(e);
                        break;
                    }
                };
                if chunk.is_empty() {
                    break; // end of stream
                }
                let blocked = Instant::now();
                if tx.send(chunk).is_err() {
                    break; // scheduler gone (abort): stop producing
                }
                source_stall_ref.fetch_add(blocked.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
        });

        // Worker pool: steal batches, map, deposit.
        let workers: Vec<_> = (0..sc.workers)
            .map(|worker_index| {
                let injector = &injector;
                let shutdown = &shutdown;
                let mut sink = &sharded;
                let engine = &engine;
                let done_tx = done_tx.clone();
                scope.spawn(move || {
                    let cpu = ThreadCpuTimer::start();
                    let mut stall = Duration::ZERO;
                    let mut backoff = Backoff::new();
                    // Per-worker scratch arena, reused for every stolen
                    // batch this thread ever processes.
                    let mut scratch = AlignScratch::new();
                    loop {
                        match injector.steal() {
                            Steal::Success(batch) => {
                                backoff.reset();
                                let counts = accumulate_reads_with(
                                    engine,
                                    &batch.reads,
                                    &mut sink,
                                    &mut scratch,
                                );
                                observer.emit(|| counts.event(worker_index));
                                let _ = done_tx.send(BatchDone {
                                    reads: batch.reads.len(),
                                    mapped: counts.mapped as usize,
                                });
                            }
                            Steal::Retry => {}
                            Steal::Empty => {
                                if shutdown.load(Ordering::Acquire) {
                                    break;
                                }
                                let idle = Instant::now();
                                backoff.snooze();
                                stall += idle.elapsed();
                            }
                        }
                    }
                    (cpu.elapsed(), stall.as_secs_f64())
                })
            })
            .collect();

        // Scheduler: windows → sorted micro-batches → barrier → checkpoint.
        let mut pending: Vec<SequencedRead> = Vec::with_capacity(window_reads);
        let mut source_done = false;
        'windows: while !source_done || !pending.is_empty() {
            // Fill a window (or take what is left at end of stream).
            while pending.len() < window_reads && !source_done {
                match chunk_rx.recv() {
                    Ok(chunk) => {
                        let depth = chunk_rx.len();
                        max_queue_depth = max_queue_depth.max(depth);
                        queue_depth_sum += depth;
                        queue_samples += 1;
                        pending.extend(chunk);
                    }
                    Err(_) => source_done = true,
                }
            }
            if pending.is_empty() {
                break;
            }
            let window: Vec<SequencedRead> = if pending.len() > window_reads {
                let rest = pending.split_off(window_reads);
                std::mem::replace(&mut pending, rest)
            } else {
                std::mem::take(&mut pending)
            };
            let window_len = window.len();

            // Length-sorted micro-batches: similar-length reads cost
            // similar Pair-HMM time, keeping batch runtimes even. The
            // sort is stable, so composition is deterministic.
            let mut sorted = window;
            sorted.sort_by_key(SequencedRead::len);
            let mut window_batches = 0usize;
            while !sorted.is_empty() {
                let tail = sorted.split_off(sorted.len().min(sc.batch_size));
                let batch = std::mem::replace(&mut sorted, tail);
                reads_dispatched += batch.len();
                injector.push(Batch { reads: batch });
                window_batches += 1;
            }
            batches_dispatched += window_batches;
            batches_since_checkpoint += window_batches;

            // Window barrier: every dispatched batch reports back.
            let mut window_reads_done = 0usize;
            for _ in 0..window_batches {
                let done = done_rx.recv().expect("workers outlive the scheduler");
                mapped_total += done.mapped;
                window_reads_done += done.reads;
            }
            debug_assert_eq!(window_reads_done, window_len);
            cursor += window_len;

            // Periodic checkpoint, at a barrier so the snapshot is
            // consistent with the cursor.
            if let Some(policy) = &sc.checkpoint {
                if batches_since_checkpoint >= policy.every_batches {
                    checkpoint::save(
                        &policy.path,
                        &Checkpoint {
                            cursor,
                            reads_mapped: mapped_total,
                            counts: sharded.snapshot_counts(),
                        },
                    )?;
                    checkpoints_written += 1;
                    batches_since_checkpoint = 0;
                    observer.emit(|| Event::Checkpoint {
                        cursor: cursor as u64,
                        reads_mapped: mapped_total as u64,
                    });
                }
            }

            // Kill hook: die after the barrier, like a SIGKILL between
            // windows — whatever checkpoint exists on disk is all a
            // restart will see.
            if let Some(limit) = sc.abort_after_batches {
                if batches_dispatched >= limit {
                    aborted = true;
                    break 'windows;
                }
            }
        }

        // Drain and stop: workers exit at the next Empty steal.
        shutdown.store(true, Ordering::Release);
        drop(chunk_rx); // unblock a source stuck on a full channel
        let mut outcomes = Vec::with_capacity(sc.workers);
        for w in workers {
            outcomes.push(w.join().expect("worker panicked"));
        }
        Ok(outcomes)
    })?;
    map_timer.finish(observer);

    if let Some(e) = source_error.into_inner() {
        return Err(e);
    }
    if aborted {
        return Err(ExecError::Aborted { cursor });
    }

    let rank_cpu_secs: Vec<f64> = worker_outcomes.iter().map(|&(cpu, _)| cpu).collect();
    let worker_stall_secs: f64 = worker_outcomes.iter().map(|&(_, stall)| stall).sum();
    let stats = StreamStats {
        workers: sc.workers,
        batch_size: sc.batch_size,
        batches_dispatched,
        mean_batch_occupancy: if batches_dispatched == 0 {
            0.0
        } else {
            reads_dispatched as f64 / (batches_dispatched * sc.batch_size) as f64
        },
        max_queue_depth,
        mean_queue_depth: if queue_samples == 0 {
            0.0
        } else {
            queue_depth_sum as f64 / queue_samples as f64
        },
        source_stall_secs: source_stall_nanos.load(Ordering::Relaxed) as f64 * 1e-9,
        worker_stall_secs,
        checkpoints_written,
        resumed_from_checkpoint: resumed,
    };

    let accumulator_bytes = sharded.heap_bytes();
    let full = sharded.into_full();
    let timer = StageTimer::start(observer, Stage::Call);
    let calls = call_snps(&full, reference, &config.calling);
    timer.finish(observer);
    let report = RunReport {
        calls,
        reads_processed: cursor,
        reads_mapped: mapped_total,
        elapsed_secs: start.elapsed().as_secs_f64(),
        accumulator_bytes,
        traffic: None,
        rank_cpu_secs,
        stream: Some(stats),
        accumulator_digest: Some(full.digest()),
    };
    observer.emit(|| report.run_end());
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::MemoryStream;
    use gnumap_core::accum::FixedAccumulator;

    fn tiny_workload() -> (DnaSeq, Vec<SequencedRead>) {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(77);
        let genome = simulate::generate_genome(
            &simulate::GenomeConfig {
                length: 2_500,
                repeat_families: 0,
                ..Default::default()
            },
            &mut rng,
        );
        let cfg = simulate::reads::ReadSimConfig {
            coverage: 6.0,
            ..Default::default()
        };
        let reads = simulate::reads::simulate_reads(
            &simulate::reads::ReadSource::Monoploid(&genome),
            cfg.read_count(genome.len()),
            &cfg,
            &mut rng,
        )
        .into_iter()
        .map(|r| r.read)
        .collect();
        (genome, reads)
    }

    #[test]
    fn empty_stream_produces_empty_report() {
        let (genome, _) = tiny_workload();
        let mut stream = MemoryStream::new(Vec::new());
        let report = run_stream::<FixedAccumulator>(
            &genome,
            &mut stream,
            &GnumapConfig::default(),
            &StreamConfig::default(),
            &Observer::disabled(),
        )
        .unwrap();
        assert_eq!(report.reads_processed, 0);
        assert_eq!(report.reads_mapped, 0);
        assert!(report.calls.is_empty());
        let stats = report.stream.unwrap();
        assert_eq!(stats.batches_dispatched, 0);
        assert!(!stats.resumed_from_checkpoint);
    }

    #[test]
    fn processes_every_read_and_reports_stats() {
        let (genome, reads) = tiny_workload();
        let n = reads.len();
        let mut stream = MemoryStream::new(reads);
        let sc = StreamConfig {
            workers: 2,
            batch_size: 16,
            chunk_size: 32,
            ..Default::default()
        };
        let report = run_stream::<FixedAccumulator>(
            &genome,
            &mut stream,
            &GnumapConfig::default(),
            &sc,
            &Observer::disabled(),
        )
        .unwrap();
        assert_eq!(report.reads_processed, n);
        assert!(report.reads_mapped > n * 9 / 10);
        assert_eq!(report.rank_cpu_secs.len(), 2);
        let stats = report.stream.unwrap();
        assert_eq!(stats.workers, 2);
        assert_eq!(stats.batch_size, 16);
        assert!(stats.batches_dispatched >= n / 16);
        assert!(stats.mean_batch_occupancy > 0.0 && stats.mean_batch_occupancy <= 1.0);
        assert!(
            StreamStats::reads_per_cpu_sec(n, &report.rank_cpu_secs) > 0.0,
            "CPU-time throughput must be measurable"
        );
    }

    #[test]
    fn batch_size_and_worker_count_do_not_change_results() {
        let (genome, reads) = tiny_workload();
        let cfg = GnumapConfig::default();
        let baseline = {
            let mut s = MemoryStream::new(reads.clone());
            run_stream::<FixedAccumulator>(
                &genome,
                &mut s,
                &cfg,
                &StreamConfig::default(),
                &Observer::disabled(),
            )
            .unwrap()
        };
        for (workers, batch_size, chunk_size) in [(2, 8, 16), (3, 31, 7), (4, 64, 500)] {
            let mut s = MemoryStream::new(reads.clone());
            let sc = StreamConfig {
                workers,
                batch_size,
                chunk_size,
                ..Default::default()
            };
            let r =
                run_stream::<FixedAccumulator>(&genome, &mut s, &cfg, &sc, &Observer::disabled())
                    .unwrap();
            assert_eq!(
                r.calls, baseline.calls,
                "workers={workers} batch={batch_size} chunk={chunk_size}"
            );
            assert_eq!(r.reads_mapped, baseline.reads_mapped);
        }
    }

    #[test]
    fn observed_stream_emits_batches_and_checkpoints() {
        use gnumap_core::observe::MemorySink;
        use std::sync::Arc;
        let (genome, reads) = tiny_workload();
        let cfg = GnumapConfig::default();
        let plain = {
            let mut s = MemoryStream::new(reads.clone());
            run_stream::<FixedAccumulator>(
                &genome,
                &mut s,
                &cfg,
                &StreamConfig::default(),
                &Observer::disabled(),
            )
            .unwrap()
        };
        let dir = std::env::temp_dir().join(format!("gnumap-obs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sc = StreamConfig {
            workers: 2,
            batch_size: 16,
            chunk_size: 32,
            checkpoint: Some(CheckpointPolicy {
                path: dir.join("cp.bin"),
                every_batches: 2,
                resume: false,
            }),
            ..Default::default()
        };
        let sink = Arc::new(MemorySink::new());
        let mut s = MemoryStream::new(reads.clone());
        let observed = run_stream::<FixedAccumulator>(
            &genome,
            &mut s,
            &cfg,
            &sc,
            &Observer::new(sink.clone()),
        )
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(observed.accumulator_digest, plain.accumulator_digest);

        let events = sink.take();
        let batch_reads: u64 = events
            .iter()
            .filter_map(|e| match e {
                Event::Batch { reads, .. } => Some(*reads),
                _ => None,
            })
            .sum();
        assert_eq!(batch_reads, reads.len() as u64);
        let checkpoints = events
            .iter()
            .filter(|e| matches!(e, Event::Checkpoint { .. }))
            .count();
        assert_eq!(
            checkpoints,
            observed.stream.as_ref().unwrap().checkpoints_written
        );
        assert!(checkpoints > 0, "expected at least one checkpoint event");
        assert!(events.iter().any(|e| matches!(
            e,
            Event::StageEnd {
                stage: Stage::Map,
                ..
            }
        )));
    }

    #[test]
    fn abort_hook_reports_cursor_at_a_barrier() {
        let (genome, reads) = tiny_workload();
        let mut stream = MemoryStream::new(reads);
        let sc = StreamConfig {
            workers: 1,
            batch_size: 8,
            chunk_size: 8,
            abort_after_batches: Some(3),
            ..Default::default()
        };
        let err = run_stream::<FixedAccumulator>(
            &genome,
            &mut stream,
            &GnumapConfig::default(),
            &sc,
            &Observer::disabled(),
        )
        .unwrap_err();
        match err {
            ExecError::Aborted { cursor } => {
                assert!(cursor > 0, "abort fires after at least one window");
            }
            other => panic!("expected Aborted, got {other}"),
        }
    }
}
