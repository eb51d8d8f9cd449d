//! The read-split MPI drivers (paper Section VI Step 1, first mode).
//!
//! "If the genome is small enough to fit on a single computer, each machine
//! will process the entire genome, then map a different portion of the
//! reads. At the end of the run, each of the machines will communicate the
//! state of their genome and SNPs will be called accordingly."
//!
//! Every rank builds the full index (duplicated work, like the real
//! system) and maps its strided share of the reads into a full-genome
//! accumulator. The two drivers share that rank body and differ only in
//! the reduce step: the star gather folds every accumulator at rank 0 in
//! rank order; the ring allreduce moves `≈ 2 × 20 B/base` through every
//! rank regardless of rank count. Communication is one genome-sized
//! accumulator per rank — large but happening exactly once, which is why
//! this mode scales almost linearly in Figure 4.

use crate::context::RunContext;
use crate::contract::{check_preconditions, run_layout, Capabilities, Driver, LayoutDriver};
use crate::drivers::{root_report, stage_observer};
use crate::error::EngineError;
use crate::sink::{deliver, CallSink};
use crate::source::ReadSource;
use genome::read::SequencedRead;
use gnumap_core::accum::{AccumulatorMode, GenomeAccumulator, NormAccumulator};
use gnumap_core::driver::encode_calls;
use gnumap_core::mapping::{AlignScratch, MappingEngine};
use gnumap_core::observe::{Event, Stage, StageTimer};
use gnumap_core::pipeline::accumulate_reads_with;
use gnumap_core::report::RunReport;
use gnumap_core::snpcall::call_snps;
use mpisim::{Rank, World};
use std::time::Instant;

/// The paper's first decomposition: every rank holds the full genome and
/// index, reads are partitioned across ranks, and accumulators gather at
/// rank 0.
pub struct ReadSplitDriver;

impl Driver for ReadSplitDriver {
    fn name(&self) -> &'static str {
        "read-split"
    }

    fn aliases(&self) -> &'static [&'static str] {
        &["mpi-read"]
    }

    fn description(&self) -> &'static str {
        "MPI read partitioning, full genome per rank, star gather at rank 0"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            // All four layouts: every rank deposits into its own partial
            // accumulator over identical read subsets regardless of mode,
            // and the Figure 5 reproduction sweeps the discretized pair.
            accumulators: &[
                AccumulatorMode::Norm,
                AccumulatorMode::CharDisc,
                AccumulatorMode::CentDisc,
                AccumulatorMode::Fixed,
            ],
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

impl LayoutDriver for ReadSplitDriver {
    fn run_with<A: GenomeAccumulator>(
        &self,
        ctx: &RunContext<'_>,
        reads: &[SequencedRead],
    ) -> Result<RunReport, EngineError> {
        let len = ctx.reference.len();
        run_ranks(self.name(), ctx, reads, |rank, acc: A, mapped| {
            // Gather accumulator wires at rank 0, which folds them in rank
            // order.
            let wires = rank.gather(0, acc.to_wire());
            let mapped_counts = rank.gather(0, mapped);
            wires.zip(mapped_counts).map(|(wires, mapped_counts)| {
                let mut total = A::new(len);
                for wire in wires {
                    total.merge_wire(&wire);
                }
                (total, mapped_counts.iter().sum())
            })
        })
    }
}

/// Read partitioning with a ring allreduce instead of a star gather.
/// The ring needs a flat elementwise-summable wire, so this driver is
/// pinned to the float norm accumulator, whose summation order varies
/// with the rank count — the one driver whose parallel runs are only
/// semantically (not bit-) identical to serial. Included as an ablation
/// of the reduction strategy.
pub struct ReadSplitRingDriver;

impl Driver for ReadSplitRingDriver {
    fn name(&self) -> &'static str {
        "read-split-ring"
    }

    fn aliases(&self) -> &'static [&'static str] {
        &["ring"]
    }

    fn description(&self) -> &'static str {
        "MPI read partitioning with ring allreduce (float norm accumulator only)"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            accumulators: &[AccumulatorMode::Norm],
            parallel: true,
            streaming: false,
            checkpointing: false,
            bit_exact_parallel: false,
        }
    }

    fn run(
        &self,
        ctx: &RunContext<'_>,
        source: ReadSource<'_>,
        sink: &mut dyn CallSink,
    ) -> Result<RunReport, EngineError> {
        check_preconditions(self, ctx)?;
        let reads = source.collect()?;
        let len = ctx.reference.len();
        let report = run_ranks(
            self.name(),
            ctx,
            &reads,
            |rank, acc: NormAccumulator, mapped| {
                // Every rank ends up with the fully reduced accumulator.
                let reduced = rank.ring_allreduce(acc.to_wire(), |a, b| a + b);
                let mapped_total = rank.allreduce(mapped, |a, b| a + b);
                (rank.id() == 0).then(|| {
                    let mut total = NormAccumulator::new(len);
                    total.merge_wire(&reduced);
                    (total, mapped_total)
                })
            },
        )?;
        deliver(report, sink)
    }
}

/// The read-split rank body: every rank indexes the whole genome, maps
/// its strided share of `reads` (rank r maps reads r, r+n, r+2n, ...) in
/// place, and hands its accumulator and mapped count to `reduce`, which
/// returns the reduced pair on rank 0. Rank 0 then calls SNPs. Stage
/// timings are taken on rank 0 (every rank does the same index/map work,
/// so rank 0 is representative); each rank emits one [`Event::Batch`].
fn run_ranks<A, R>(
    driver: &'static str,
    ctx: &RunContext<'_>,
    reads: &[SequencedRead],
    reduce: R,
) -> Result<RunReport, EngineError>
where
    A: GenomeAccumulator,
    R: Fn(&mut Rank, A, u64) -> Option<(A, u64)> + Sync,
{
    let (reference, config, observer) = (ctx.reference, &ctx.config, &ctx.observer);
    observer.emit(|| Event::run_start(driver, config.accumulator));
    let start = Instant::now();
    let world = World::new(ctx.threads);

    let (mut results, world_report) = world.run_with_report(|rank| {
        let stages = stage_observer(rank, observer);
        let timer = StageTimer::start(&stages, Stage::Index);
        let engine = MappingEngine::new(reference, config.mapping);
        timer.finish(&stages);

        let timer = StageTimer::start(&stages, Stage::Map);
        let mut acc = A::new(reference.len());
        let share = reads.iter().skip(rank.id()).step_by(rank.size());
        let counts = accumulate_reads_with(&engine, share, &mut acc, &mut AlignScratch::new());
        observer.emit(|| counts.event(rank.id()));
        timer.finish(&stages);

        let timer = StageTimer::start(&stages, Stage::Reduce);
        let reduced = reduce(rank, acc, counts.mapped);
        timer.finish(&stages);
        reduced.map(|(total, mapped)| {
            let timer = StageTimer::start(&stages, Stage::Call);
            let calls = call_snps(&total, reference, &config.calling);
            timer.finish(&stages);
            (
                encode_calls(&calls),
                mapped,
                total.heap_bytes(),
                total.digest(),
            )
        })
    });

    let root = results.swap_remove(0).expect("rank 0 returns the result");
    root_report(root, world_report, reads.len(), start, observer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drivers::test_support::{fixture, run_mode, run_norm};
    use crate::drivers::SerialDriver;

    #[test]
    fn read_split_matches_serial_for_norm() {
        let (reference, _, reads) = fixture(4_000, 5, 12.0, 321);
        let serial = run_norm(&SerialDriver, &reference, &reads, 1);
        for ranks in [1usize, 2, 3, 5] {
            let parallel = run_norm(&ReadSplitDriver, &reference, &reads, ranks);
            assert_eq!(
                parallel.calls.len(),
                serial.calls.len(),
                "ranks={ranks}: call count must match serial"
            );
            for (p, s) in parallel.calls.iter().zip(&serial.calls) {
                assert_eq!(p.pos, s.pos);
                assert_eq!(p.allele, s.allele);
                // f32 accumulation order differs; statistics agree closely.
                assert!((p.statistic - s.statistic).abs() < 1e-3);
            }
            assert_eq!(parallel.reads_mapped, serial.reads_mapped);
        }
    }

    #[test]
    fn traffic_is_reported_and_scales_with_ranks() {
        let (reference, _, reads) = fixture(4_000, 5, 12.0, 321);
        let two = run_norm(&ReadSplitDriver, &reference, &reads, 2);
        let four = run_norm(&ReadSplitDriver, &reference, &reads, 4);
        let t2 = two.traffic.unwrap();
        let t4 = four.traffic.unwrap();
        assert!(t4.payload_bytes > t2.payload_bytes, "{t2} vs {t4}");
        // Each non-root rank ships one genome-sized accumulator (~20 B/base).
        assert!(t2.payload_bytes as usize >= reference.len() * 20);
    }

    #[test]
    fn ring_reduction_matches_star_reduction() {
        let (reference, _, reads) = fixture(4_000, 5, 12.0, 321);
        for ranks in [1usize, 2, 4] {
            let star = run_norm(&ReadSplitDriver, &reference, &reads, ranks);
            let ring = run_norm(&ReadSplitRingDriver, &reference, &reads, ranks);
            let star_keys: Vec<_> = star.calls.iter().map(|c| (c.pos, c.allele)).collect();
            let ring_keys: Vec<_> = ring.calls.iter().map(|c| (c.pos, c.allele)).collect();
            assert_eq!(ring_keys, star_keys, "ranks={ranks}");
            assert_eq!(ring.reads_mapped, star.reads_mapped);
        }
    }

    #[test]
    fn chardisc_read_split_still_finds_snps() {
        let (reference, truth, reads) = fixture(4_000, 5, 12.0, 321);
        let report = run_mode(
            &ReadSplitDriver,
            &reference,
            &reads,
            AccumulatorMode::CharDisc,
            3,
        );
        let acc = gnumap_core::score_snp_calls(&report.calls, &truth);
        assert!(acc.true_positives >= 3, "{acc:?}");
    }
}
