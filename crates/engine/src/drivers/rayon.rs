//! The shared-memory (rayon) driver.
//!
//! Reads are split into one chunk per worker; each worker maps its chunk
//! into a private accumulator against the shared genome + index (built
//! once — this is the "all the genome in shared memory for every process"
//! mode of paper Figure 4, minus the per-process index duplication that
//! real processes would pay). Private accumulators are then folded in
//! chunk order, so the result is deterministic regardless of scheduling.

use crate::context::RunContext;
use crate::contract::{run_layout, Capabilities, Driver, LayoutDriver};
use crate::error::EngineError;
use crate::sink::CallSink;
use crate::source::ReadSource;
use genome::read::SequencedRead;
use gnumap_core::accum::{AccumulatorMode, GenomeAccumulator};
use gnumap_core::mapping::{AlignScratch, MappingEngine};
use gnumap_core::observe::{Event, Stage, StageTimer};
use gnumap_core::pipeline::{accumulate_batches, BatchCounts};
use gnumap_core::report::RunReport;
use gnumap_core::snpcall::call_snps;
use rayon::prelude::*;
use std::time::Instant;

/// Chunk-per-worker threads with a deterministic chunk-ordered fold (the
/// paper's shared-memory platform). The discretized accumulators' merges
/// are order-sensitive, so only the norm and fixed-point layouts run
/// here.
pub struct RayonDriver;

impl Driver for RayonDriver {
    fn name(&self) -> &'static str {
        "rayon"
    }

    fn aliases(&self) -> &'static [&'static str] {
        &["threads", "shared"]
    }

    fn description(&self) -> &'static str {
        "shared-memory worker threads, deterministic chunk-ordered reduction"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            accumulators: &[AccumulatorMode::Norm, AccumulatorMode::Fixed],
            parallel: true,
            streaming: false,
            checkpointing: false,
            bit_exact_parallel: true,
        }
    }

    fn run(
        &self,
        ctx: &RunContext<'_>,
        source: ReadSource<'_>,
        sink: &mut dyn CallSink,
    ) -> Result<RunReport, EngineError> {
        run_layout(self, ctx, source, sink)
    }
}

impl LayoutDriver for RayonDriver {
    fn run_with<A: GenomeAccumulator>(
        &self,
        ctx: &RunContext<'_>,
        reads: &[SequencedRead],
    ) -> Result<RunReport, EngineError> {
        let (reference, config, observer) = (ctx.reference, &ctx.config, &ctx.observer);
        // A one-thread budget still gets a pool of two: `--threads N`
        // selecting this driver has always meant "actually parallel".
        let threads = ctx.threads.max(2);
        observer.emit(|| Event::run_start(self.name(), config.accumulator));
        let start = Instant::now();
        let timer = StageTimer::start(observer, Stage::Index);
        let engine = MappingEngine::new(reference, config.mapping);
        timer.finish(observer);

        // One contiguous chunk per worker keeps the reduction order defined.
        let chunk_size = reads.len().div_ceil(threads).max(1);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("thread pool");

        let timer = StageTimer::start(observer, Stage::Map);
        let partials: Vec<(A, BatchCounts)> = pool.install(|| {
            reads
                .par_chunks(chunk_size)
                .enumerate()
                .map(|(worker, chunk)| {
                    let mut acc = A::new(reference.len());
                    // Per-chunk scratch: the Pair-HMM planes and column
                    // arena are allocated once here and reused for every
                    // read in the worker's chunk.
                    let mut scratch = AlignScratch::new();
                    let counts = accumulate_batches(
                        &engine,
                        chunk,
                        &mut acc,
                        &mut scratch,
                        observer,
                        worker,
                    );
                    (acc, counts)
                })
                .collect()
        });
        timer.finish(observer);

        // Deterministic fold in chunk order.
        let timer = StageTimer::start(observer, Stage::Reduce);
        let mut iter = partials.into_iter();
        let (mut acc, mut counts) = iter
            .next()
            .unwrap_or_else(|| (A::new(reference.len()), BatchCounts::default()));
        for (partial, c) in iter {
            acc.merge_from(&partial);
            counts += c;
        }
        timer.finish(observer);

        let timer = StageTimer::start(observer, Stage::Call);
        let calls = call_snps(&acc, reference, &config.calling);
        timer.finish(observer);
        let report = RunReport {
            calls,
            reads_processed: reads.len(),
            reads_mapped: counts.mapped as usize,
            elapsed_secs: start.elapsed().as_secs_f64(),
            accumulator_bytes: acc.heap_bytes(),
            accumulator_digest: Some(acc.digest()),
            ..RunReport::default()
        };
        observer.emit(|| report.run_end());
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drivers::test_support::{fixture, run_norm};
    use crate::drivers::SerialDriver;

    #[test]
    fn rayon_matches_serial_for_norm() {
        let (reference, _, reads) = fixture(4_000, 5, 12.0, 77);
        let serial = run_norm(&SerialDriver, &reference, &reads, 1);
        for threads in [1usize, 2, 4] {
            let parallel = run_norm(&RayonDriver, &reference, &reads, threads);
            assert_eq!(
                parallel.calls.len(),
                serial.calls.len(),
                "threads={threads}: call count must match serial"
            );
            for (p, s) in parallel.calls.iter().zip(&serial.calls) {
                assert_eq!(p.pos, s.pos, "threads={threads}");
                assert_eq!(p.allele, s.allele);
                // f32 accumulation order differs between chunkings; the
                // statistics agree to float tolerance.
                assert!((p.statistic - s.statistic).abs() < 1e-3);
            }
            assert_eq!(parallel.reads_mapped, serial.reads_mapped);
        }
    }

    #[test]
    fn rayon_finds_the_planted_snps() {
        let (reference, truth, reads) = fixture(4_000, 5, 12.0, 77);
        let report = run_norm(&RayonDriver, &reference, &reads, 3);
        let acc = gnumap_core::score_snp_calls(&report.calls, &truth);
        assert!(acc.true_positives >= 4, "{acc:?}");
    }

    #[test]
    fn empty_reads_are_fine() {
        let (reference, _, _) = fixture(4_000, 5, 12.0, 77);
        let report = run_norm(&RayonDriver, &reference, &[], 2);
        assert!(report.calls.is_empty());
        assert_eq!(report.reads_processed, 0);
    }
}
