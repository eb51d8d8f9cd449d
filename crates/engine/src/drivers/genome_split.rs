//! The genome-split (spread-memory) MPI driver (paper Section VI
//! Step 1, second mode).
//!
//! "The genome is split into equal segments and distributed across the
//! participating machines ... In order to find the normalized posterior
//! probability score for each read at a given location, GNUMAP must find
//! all locations throughout the entire genome to which a given read
//! aligns. Communication between machines via message passing determines
//! \[these\] additional locations and calculates the final score."
//!
//! Concretely:
//!
//! 1. Rank `r` owns the contiguous shard `[s_r, e_r)` and indexes only its
//!    own slice (plus a margin of one window so boundary-crossing
//!    placements are still seen by their owner). Memory per rank shrinks
//!    by ~`1/ranks` — the entire point of this mode.
//! 2. Every rank scans **all** reads, scoring only placements whose window
//!    starts inside its shard. Each read's candidate summaries
//!    `(strand, placement, likelihood)` are then combined across ranks
//!    with an allreduce per read batch — this is the communication that
//!    makes the mode slower than read-split (Figure 4). Sorting the merged
//!    candidates into the serial engine's evaluation order and weighing
//!    them with the mapper's own rule (`mapping::posterior_weights`) makes
//!    the posterior weights (and, with the FIXED layout, the accumulator)
//!    bit-identical to a serial run.
//! 3. Evidence deposited into the margin beyond `e_r` is shipped to the
//!    next rank and folded in.
//! 4. Each rank calls SNPs on its own shard; calls are gathered at rank 0.
//!
//! FDR note: with `Cutoff::Fdr` each shard applies Benjamini–Hochberg over
//! its own positions (a per-shard approximation); use `Cutoff::PValue` when
//! bit-identical agreement with the serial pipeline is required.

use crate::context::RunContext;
use crate::contract::{run_layout, Capabilities, Driver, LayoutDriver};
use crate::drivers::{root_report, stage_observer};
use crate::error::EngineError;
use crate::sink::CallSink;
use crate::source::ReadSource;
use genome::read::SequencedRead;
use genome::region::Region;
use gnumap_core::accum::{AccumulatorMode, GenomeAccumulator};
use gnumap_core::driver::{decode_calls, encode_calls, CallWireError};
use gnumap_core::mapping::{posterior_weights, AlignScratch, MappingEngine};
use gnumap_core::observe::{Event, Stage, StageTimer};
use gnumap_core::pipeline::{deposit, BatchCounts};
use gnumap_core::report::RunReport;
use gnumap_core::snpcall::call_snps_with_offset;
use mpisim::World;
use std::ops::Range;
use std::time::Instant;

/// Reads per normalisation round-trip. The paper's description implies the
/// cross-rank score combination happens per read; batching 16 reads per
/// allreduce keeps the simulation tractable while leaving the
/// communication latency visible — it is exactly this per-batch traffic
/// that makes the spread-memory mode trail the shared-memory mode in
/// Figure 4.
const BATCH: usize = 16;

/// Message tag for margin hand-off.
const MARGIN_TAG: u64 = 11;

/// A placement this shard owns, held until its batch's allreduce returns
/// the read's weights.
struct Owned {
    /// The read's index within its batch.
    read: usize,
    /// `(strand, global placement)`, its key in the merged list.
    key: (u64, u64),
    /// Its columns in the rank's arena.
    cols: Range<usize>,
}

/// The paper's second decomposition: the genome (index + accumulator) is
/// sharded across ranks, every read is scored on every shard, and
/// per-read normalising constants travel by allreduce. Lower memory per
/// rank, more communication — the Figure 4 trade-off.
pub struct GenomeSplitDriver;

impl Driver for GenomeSplitDriver {
    fn name(&self) -> &'static str {
        "genome-split"
    }

    fn aliases(&self) -> &'static [&'static str] {
        &["mpi-genome"]
    }

    fn description(&self) -> &'static str {
        "MPI genome sharding, per-read normalisers by allreduce"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            // Genome shards are disjoint, so every layout is safe: no two
            // ranks ever merge counts for the same position.
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

/// One [`Event::Batch`] per rank: every rank scans all reads; kept
/// alignments and deposited columns are counted per shard, so they sum
/// to the serial totals, and the exact global mapped count is carried by
/// rank 0's event. Stage timings are taken on rank 0.
impl LayoutDriver for GenomeSplitDriver {
    fn run_with<A: GenomeAccumulator>(
        &self,
        ctx: &RunContext<'_>,
        reads: &[SequencedRead],
    ) -> Result<RunReport, EngineError> {
        let (reference, config, observer) = (ctx.reference, &ctx.config, &ctx.observer);
        observer.emit(|| Event::run_start(self.name(), config.accumulator));
        let start = Instant::now();
        let world = World::new(ctx.threads);
        let shards = Region::shards(reference.len(), ctx.threads);
        let max_read_len = reads.iter().map(SequencedRead::len).max().unwrap_or(0);
        // A window can start pad bases before its placement and extend pad
        // beyond the read; one full window of margin covers every overhang.
        let margin = max_read_len + 2 * config.mapping.window_pad;

        let (mut results, world_report) = world.run_with_report(|rank| {
            let stages = stage_observer(rank, observer);
            let shard = shards[rank.id()];
            let slice_start = shard.start;
            let slice_end = (shard.end + margin).min(reference.len());
            let slice = reference.window(slice_start, slice_end);

            // Index only the local slice — the per-rank memory saving.
            let timer = StageTimer::start(&stages, Stage::Index);
            let engine = MappingEngine::new(&slice, config.mapping);
            timer.finish(&stages);
            let mut acc = A::new(slice.len());
            let mut counts = BatchCounts::default();
            let map_timer = StageTimer::start(&stages, Stage::Map);
            // One scratch, one column arena and one placement list per
            // rank, reused across every batch. Only placements this shard
            // owns are copied out of the scratch (their columns must
            // outlive the allreduce below), so out-of-shard candidates
            // never touch the arena.
            let mut scratch = AlignScratch::new();
            let mut cols = Vec::new();
            let mut owned = Vec::new();

            for batch in reads.chunks(BATCH) {
                cols.clear();
                owned.clear();
                // Score each read locally; keep only placements owned by this
                // shard (window start within [shard.start, shard.end)). Each
                // is summarised for the wire as a `(strand, global placement,
                // likelihood)` triple.
                let mut triples: Vec<Vec<(u64, u64, f64)>> = Vec::with_capacity(batch.len());
                for (i, read) in batch.iter().enumerate() {
                    engine.map_read_raw_with(read, &mut scratch);
                    let mut mine = Vec::new();
                    for a in scratch.alignments() {
                        let placement = slice_start + a.window_start;
                        if !shard.contains(placement) {
                            continue;
                        }
                        let key = (a.reverse as u64, placement as u64);
                        mine.push((key.0, key.1, a.score));
                        let start = cols.len();
                        cols.extend_from_slice(a.columns);
                        owned.push(Owned {
                            read: i,
                            key,
                            cols: start..cols.len(),
                        });
                    }
                    triples.push(mine);
                }

                // Normalisation needs every shard's candidates — the per-batch
                // communication of this mode. Concatenating per rank and then
                // sorting strand-major/position-minor reconstructs the exact
                // candidate order the serial engine's `map_read_with` sees
                // (forward placements ascending, then reverse), so the one
                // posterior-weight rule evaluates in the serial operation
                // order: the resulting deposits are bit-identical to a serial
                // run.
                let mut merged = rank.allreduce(triples, |mut a, b| {
                    for (mine, theirs) in a.iter_mut().zip(b) {
                        mine.extend(theirs);
                    }
                    a
                });
                for kept in &mut merged {
                    kept.sort_by_key(|t| (t.0, t.1));
                    posterior_weights(kept, config.mapping.min_weight, |t| &mut t.2);
                    // Every rank derives the same kept set, so counting reads
                    // on rank 0 alone gives the exact global mapped count (a
                    // cross-shard read is still one read).
                    if rank.id() == 0 && !kept.is_empty() {
                        counts.mapped += 1;
                    }
                }
                for o in &owned {
                    let kept = &merged[o.read];
                    if let Ok(k) = kept.binary_search_by(|t| (t.0, t.1).cmp(&o.key)) {
                        counts.kept += 1;
                        counts.deposited_columns += o.cols.len() as u64;
                        let window_start = o.key.1 as usize - slice_start;
                        deposit(&mut acc, window_start, kept[k].2, &cols[o.cols.clone()]);
                    }
                }
                counts.reads += batch.len() as u64;
            }
            map_timer.finish(&stages);
            observer.emit(|| counts.event(rank.id()));

            // Hand the margin's evidence to the rank that owns it.
            let reduce_timer = StageTimer::start(&stages, Stage::Reduce);
            if rank.id() + 1 < rank.size() {
                let own_len = shard.len();
                let mut margin_wire: Vec<f64> = Vec::new();
                for idx in own_len..acc.len() {
                    let c = acc.counts(idx);
                    margin_wire.extend_from_slice(&c);
                }
                rank.send(rank.id() + 1, MARGIN_TAG, margin_wire);
            }
            if rank.id() > 0 {
                let margin_wire: Vec<f64> = rank.recv(rank.id() - 1, MARGIN_TAG);
                for (offset, chunk) in margin_wire.chunks_exact(5).enumerate() {
                    let mut delta = [0.0; 5];
                    delta.copy_from_slice(chunk);
                    if delta.iter().sum::<f64>() > 0.0 && offset < acc.len() {
                        acc.add(offset, &delta);
                    }
                }
            }

            // Call SNPs over the owned region only (margin belongs to the
            // neighbour) and gather everything at rank 0.
            // A shard-length view: reuse the accumulator but stop the scan
            // at the shard boundary by zero-extending a shard-only copy.
            let mut shard_acc = A::new(shard.len());
            for idx in 0..shard.len() {
                let c = acc.counts(idx);
                if c.iter().sum::<f64>() > 0.0 {
                    shard_acc.add(idx, &c);
                }
            }
            reduce_timer.finish(&stages);
            let call_timer = StageTimer::start(&stages, Stage::Call);
            let calls = call_snps_with_offset(&shard_acc, reference, slice_start, &config.calling);
            call_timer.finish(&stages);
            // Shards cover disjoint global ranges exactly once, so XORing the
            // per-shard digests (each keyed by global position) reproduces the
            // digest a serial full-genome accumulator would report.
            let shard_digest = shard_acc.digest_with_offset(slice_start);
            let call_wires = rank.gather(0, encode_calls(&calls));
            let mapped_counts = rank.gather(0, counts.mapped);
            let digest = rank.reduce(0, shard_digest, |a, b| a ^ b);
            let acc_bytes = rank.reduce(0, acc.heap_bytes() as u64, |a, b| a + b);

            if rank.id() == 0 {
                let decode_all = || -> Result<Vec<gnumap_core::snpcall::SnpCall>, CallWireError> {
                    let mut all_calls = Vec::new();
                    for wire in call_wires.expect("root gathers") {
                        all_calls.extend(decode_calls(&wire)?);
                    }
                    all_calls.sort_by_key(|c| c.pos);
                    Ok(all_calls)
                };
                let mapped_total: u64 = mapped_counts.expect("root gathers").iter().sum();
                Some(decode_all().map(|all_calls| {
                    (
                        encode_calls(&all_calls),
                        mapped_total,
                        acc_bytes.expect("root reduces") as usize,
                        digest.expect("root reduces"),
                    )
                }))
            } else {
                None
            }
        });

        let root = results.swap_remove(0).expect("rank 0 returns the result")?;
        root_report(root, world_report, reads.len(), start, observer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drivers::test_support::{fixture, run_norm, run_with_config};
    use crate::drivers::{ReadSplitDriver, SerialDriver};

    #[test]
    fn genome_split_matches_serial_calls() {
        let (reference, _, reads) = fixture(4_000, 5, 12.0, 555);
        let serial = run_norm(&SerialDriver, &reference, &reads, 1);
        for ranks in [1usize, 2, 4] {
            let parallel = run_norm(&GenomeSplitDriver, &reference, &reads, ranks);
            let serial_pos: Vec<(usize, genome::alphabet::Base)> =
                serial.calls.iter().map(|c| (c.pos, c.allele)).collect();
            let parallel_pos: Vec<(usize, genome::alphabet::Base)> =
                parallel.calls.iter().map(|c| (c.pos, c.allele)).collect();
            assert_eq!(
                parallel_pos, serial_pos,
                "ranks={ranks}: genome-split must agree with serial"
            );
        }
    }

    #[test]
    fn cross_shard_repeat_matches_the_serial_digest_and_counters() {
        // An exact copy of [500, 800) at [4500, 4800): reads from either
        // copy keep one alignment in each, and at 2, 3 and 5 ranks the two
        // copies lie in different shards, so the cross-shard merge decides
        // every such read's weights. A reverse-complement copy puts a
        // read's two alignments on opposite strands as well, so the merged
        // list arrives out of the serial order and must be sorted back.
        use gnumap_core::observe::{MemorySink, Observer};
        use rand::SeedableRng;
        use rand_chacha::ChaCha8Rng;
        use simulate::reads::{simulate_reads, ReadSimConfig, ReadSource as SimSource};
        use simulate::{generate_genome, GenomeConfig};
        use std::sync::Arc;

        /// Fixed-point digest and summed `Batch` counters (kept, deposited
        /// columns, mapped), plus the largest per-event read count.
        fn run(
            driver: &dyn Driver,
            reference: &genome::seq::DnaSeq,
            reads: &[SequencedRead],
            ranks: usize,
        ) -> (u64, [u64; 3], u64) {
            let sink = Arc::new(MemorySink::new());
            let mut ctx = RunContext::new(reference);
            ctx.config.accumulator = AccumulatorMode::Fixed;
            ctx.threads = ranks;
            ctx.observer = Observer::new(sink.clone());
            let report = driver
                .run(&ctx, ReadSource::Slice(reads), &mut crate::NullSink)
                .unwrap();
            let (mut sums, mut max_reads) = ([0u64; 3], 0);
            for event in sink.take() {
                if let Event::Batch {
                    reads,
                    mapped,
                    kept,
                    deposited_columns,
                    ..
                } = event
                {
                    sums[0] += kept;
                    sums[1] += deposited_columns;
                    sums[2] += mapped;
                    max_reads = max_reads.max(reads);
                }
            }
            (report.accumulator_digest.unwrap(), sums, max_reads)
        }

        for (seed, inverted) in [(3u64, false), (17, false), (40, true), (41, true)] {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let genome = generate_genome(
                &GenomeConfig {
                    length: 6_000,
                    repeat_families: 0,
                    ..GenomeConfig::default()
                },
                &mut rng,
            );
            let mut text = genome.to_string();
            let copy = match inverted {
                false => genome.window(500, 800),
                true => genome.window(500, 800).reverse_complement(),
            };
            text.replace_range(4500..4800, &copy.to_string());
            let reference: genome::seq::DnaSeq = text.parse().unwrap();
            let cfg = ReadSimConfig {
                coverage: 8.0,
                ..ReadSimConfig::default()
            };
            let reads: Vec<SequencedRead> = simulate_reads(
                &SimSource::Monoploid(&reference),
                cfg.read_count(reference.len()),
                &cfg,
                &mut rng,
            )
            .into_iter()
            .map(|r| r.read)
            .collect();

            let (digest, sums, _) = run(&SerialDriver, &reference, &reads, 1);
            let [kept, _, mapped] = sums;
            assert!(
                kept >= mapped + 20,
                "seed {seed}: too few multi-mapped reads ({kept} kept, {mapped} mapped)"
            );
            for ranks in [2usize, 3, 5] {
                let (gs_digest, gs_sums, gs_reads) =
                    run(&GenomeSplitDriver, &reference, &reads, ranks);
                assert_eq!(gs_digest, digest, "seed {seed}, ranks {ranks}: digest");
                assert_eq!(gs_sums, sums, "seed {seed}, ranks {ranks}: counters");
                // Every rank scans every read.
                assert_eq!(gs_reads, reads.len() as u64, "seed {seed}, ranks {ranks}");
            }
        }
    }

    #[test]
    fn per_rank_memory_shrinks_with_ranks() {
        let (reference, _, reads) = fixture(4_000, 5, 12.0, 555);
        let one = run_norm(&GenomeSplitDriver, &reference, &reads, 1);
        let four = run_norm(&GenomeSplitDriver, &reference, &reads, 4);
        // Total accumulator bytes are similar (sum over ranks), but each of
        // the 4 ranks holds ~1/4 + margin.
        let per_rank_four = four.accumulator_bytes / 4;
        assert!(
            per_rank_four < one.accumulator_bytes / 2,
            "per-rank accumulator should shrink: {} vs {}",
            per_rank_four,
            one.accumulator_bytes
        );
    }

    #[test]
    fn genome_split_communicates_more_than_read_split() {
        // The Figure 4 mechanism: per-batch allreduces beat read-split's
        // single end-of-run reduction in message count.
        let (reference, _, reads) = fixture(4_000, 5, 12.0, 555);
        let gs = run_norm(&GenomeSplitDriver, &reference, &reads, 4);
        let rs = run_norm(&ReadSplitDriver, &reference, &reads, 4);
        let gs_msgs = gs.traffic.unwrap().messages;
        let rs_msgs = rs.traffic.unwrap().messages;
        assert!(
            gs_msgs > rs_msgs,
            "genome-split should send more messages: {gs_msgs} vs {rs_msgs}"
        );
    }

    #[test]
    fn per_shard_fdr_still_recovers_strong_snps() {
        // Under Cutoff::Fdr each shard runs Benjamini–Hochberg over its own
        // positions (documented approximation). Strongly supported planted
        // SNPs must survive regardless of how the shards cut the genome.
        use gnumap_core::snpcall::{Cutoff, SnpCallConfig};
        let (reference, truth, reads) = fixture(4_000, 5, 14.0, 808);
        let cfg = gnumap_core::GnumapConfig {
            calling: SnpCallConfig {
                cutoff: Cutoff::Fdr(0.05),
                ..SnpCallConfig::default()
            },
            ..gnumap_core::GnumapConfig::default()
        };
        let report = run_with_config(&GenomeSplitDriver, &reference, &reads, cfg, 5);
        let acc = gnumap_core::score_snp_calls(&report.calls, &truth);
        assert!(acc.true_positives >= 4, "{acc:?}");
        assert!(acc.false_positives <= 1, "{acc:?}");
    }

    #[test]
    fn boundary_snps_are_not_lost() {
        // Place the shard boundary near a planted SNP by using many ranks
        // on a small genome; every planted SNP must still be recovered.
        let (reference, truth, reads) = fixture(3_000, 6, 14.0, 999);
        let report = run_norm(&GenomeSplitDriver, &reference, &reads, 6);
        let acc = gnumap_core::score_snp_calls(&report.calls, &truth);
        assert!(
            acc.true_positives >= 5,
            "boundary handling lost SNPs: {acc:?}"
        );
    }
}
