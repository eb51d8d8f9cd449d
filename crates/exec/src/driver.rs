//! The streaming batch scheduler: one loop on the caller's thread.
//!
//! ```text
//! ReadStream ──fill──▶ window ──stable sort by length──▶ micro-batches
//!                                                            │
//!      std::thread::scope: N workers claim batches ◀─────────┘
//!      while the caller fills the next window
//!                          │
//!      end of scope = window barrier ──▶ cursor, checkpoint, abort hook
//! ```
//!
//! The caller pulls chunks from the [`ReadStream`] into a *window* of
//! `workers × 2 × batch_size` reads, until the window is full or the
//! stream ends, and stable-sorts it by read length (so a micro-batch
//! holds similar-length reads and its Pair-HMM work is even). It then
//! runs the window's micro-batches inside one [`std::thread::scope`]:
//! each worker claims batch indices from a shared counter, maps each
//! read, and deposits evidence directly into the [`ShardedAccumulator`]
//! — no per-worker replica, no final merge. Meanwhile the caller reads
//! the next window, so at most two windows are in memory. The end of the
//! scope is the *window barrier*: the cursor advances and (on schedule)
//! a checkpoint is written. Window composition depends only on stream
//! order and configuration, never on timing, and with
//! [`FixedAccumulator`] deposits commute bit-exactly, so any claim order
//! yields the identical accumulator.
//!
//! [`FixedAccumulator`]: gnumap_core::accum::FixedAccumulator

use crate::checkpoint::{self, Checkpoint};
use crate::error::ExecError;
use crate::sharded::ShardedAccumulator;
use crate::stream::ReadStream;
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
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Micro-batches per worker in one scheduling window: a worker that
/// finishes a short batch early claims another before the barrier.
const BATCHES_PER_WORKER: usize = 2;

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
            shards: 16,
            checkpoint: None,
            abort_after_batches: None,
        }
    }
}

/// What a worker keeps from one window to the next.
#[derive(Default)]
struct Worker {
    /// Scratch arena reused for every batch this worker maps.
    scratch: AlignScratch,
    /// CPU seconds spent mapping, summed over windows.
    cpu_secs: f64,
}

/// Pull reads until the window holds `size` of them or the stream ends.
/// A source error also ends the stream: it comes back with the reads
/// pulled before it, which the run still processes.
fn fill_window(
    stream: &mut dyn ReadStream,
    size: usize,
) -> (Vec<SequencedRead>, Option<ExecError>) {
    let mut window = Vec::with_capacity(size);
    while window.len() < size {
        match stream.next_chunk(size - window.len()) {
            Ok(chunk) if chunk.is_empty() => break,
            Ok(chunk) => window.extend(chunk),
            Err(e) => return (window, Some(e)),
        }
    }
    (window, None)
}

/// Run the streaming engine over `stream`, calling SNPs at end of input.
///
/// With `A = FixedAccumulator` the returned calls are bit-identical to
/// the serial pipeline's on the same reads, for any worker count, batch
/// size, chunking or checkpoint/resume split. `observer` receives one
/// [`Event::Batch`] per micro-batch (tagged with the index of the worker
/// that mapped it), an [`Event::Checkpoint`] for every checkpoint record
/// written, and stage timings taken on the caller's thread.
pub fn run_stream<A: GenomeAccumulator>(
    reference: &DnaSeq,
    stream: &mut dyn ReadStream,
    config: &GnumapConfig,
    sc: &StreamConfig,
    observer: &Observer,
) -> Result<RunReport, ExecError> {
    assert!(sc.workers >= 1, "need at least one worker");
    assert!(sc.batch_size >= 1, "batches must hold at least one read");
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
    let window_size = sc.workers * BATCHES_PER_WORKER * sc.batch_size;
    let mut workers: Vec<Worker> = std::iter::repeat_with(Worker::default)
        .take(sc.workers)
        .collect();

    let mut batches_dispatched = 0usize;
    let mut reads_dispatched = 0usize;
    let mut checkpoints_written = 0usize;
    let mut batches_since_checkpoint = 0usize;
    let mut aborted = false;

    let map_timer = StageTimer::start(observer, Stage::Map);
    let (mut window, mut source_error) = fill_window(stream, window_size);
    while !window.is_empty() {
        // Length-sorted micro-batches: similar-length reads cost similar
        // Pair-HMM time, keeping batch runtimes even. The sort is stable,
        // so composition is deterministic.
        window.sort_by_key(SequencedRead::len);
        let window_len = window.len();
        let batches: Vec<&[SequencedRead]> = window.chunks(sc.batch_size).collect();
        let window_batches = batches.len();
        // A short window means the stream ended or failed: read no further.
        let read_ahead = source_error.is_none() && window_len >= window_size;
        let next_batch = AtomicUsize::new(0);
        let window_mapped = AtomicUsize::new(0);
        let (next_window, next_error) = std::thread::scope(|scope| {
            for (worker_index, worker) in workers.iter_mut().take(window_batches).enumerate() {
                let (batches, next_batch, window_mapped) = (&batches, &next_batch, &window_mapped);
                let (engine, mut sink) = (&engine, &sharded);
                scope.spawn(move || {
                    let cpu = ThreadCpuTimer::start();
                    let claim = || batches.get(next_batch.fetch_add(1, Ordering::Relaxed));
                    while let Some(&batch) = claim() {
                        let counts =
                            accumulate_reads_with(engine, batch, &mut sink, &mut worker.scratch);
                        observer.emit(|| counts.event(worker_index));
                        window_mapped.fetch_add(counts.mapped as usize, Ordering::Relaxed);
                    }
                    worker.cpu_secs += cpu.elapsed();
                });
            }
            // Read ahead while the workers map this window.
            if read_ahead {
                fill_window(stream, window_size)
            } else {
                (Vec::new(), None)
            }
        });
        // Window barrier: the scope has joined every worker, so each
        // batch of this window is deposited.
        window = next_window;
        source_error = source_error.or(next_error);
        batches_dispatched += window_batches;
        batches_since_checkpoint += window_batches;
        reads_dispatched += window_len;
        cursor += window_len;
        mapped_total += window_mapped.into_inner();

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
        // windows — whatever checkpoint exists on disk is all a restart
        // will see.
        if let Some(limit) = sc.abort_after_batches {
            if batches_dispatched >= limit {
                aborted = true;
                break;
            }
        }
    }
    map_timer.finish(observer);

    if let Some(e) = source_error {
        return Err(e);
    }
    if aborted {
        return Err(ExecError::Aborted { cursor });
    }

    let rank_cpu_secs: Vec<f64> = workers.iter().map(|w| w.cpu_secs).collect();
    let stats = StreamStats {
        workers: sc.workers,
        batch_size: sc.batch_size,
        batches_dispatched,
        mean_batch_occupancy: if batches_dispatched == 0 {
            0.0
        } else {
            reads_dispatched as f64 / (batches_dispatched * sc.batch_size) as f64
        },
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
        for (workers, batch_size) in [(2, 8), (3, 31), (4, 64)] {
            let mut s = MemoryStream::new(reads.clone());
            let sc = StreamConfig {
                workers,
                batch_size,
                ..Default::default()
            };
            let r =
                run_stream::<FixedAccumulator>(&genome, &mut s, &cfg, &sc, &Observer::disabled())
                    .unwrap();
            assert_eq!(
                r.calls, baseline.calls,
                "workers={workers} batch={batch_size}"
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
