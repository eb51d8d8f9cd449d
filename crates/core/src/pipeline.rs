//! The serial end-to-end pipeline: index → map → accumulate → call.
//!
//! [`run_pipeline`] is the reference implementation every parallel
//! driver must agree with. [`accumulate_reads_with`] is the one
//! map → deposit body every driver's hot loop calls, whatever its
//! evidence sink: a plain accumulator (serial, rayon, read-split), the
//! stream driver's sharded accumulator, or a server session.

use crate::accum::{GenomeAccumulator, WithAccumulator};
use crate::config::GnumapConfig;
use crate::mapping::{AlignScratch, MappingEngine};
use crate::observe::{Event, Observer, Stage, StageTimer};
use crate::report::RunReport;
use crate::snpcall::call_snps;
use genome::read::SequencedRead;
use genome::seq::DnaSeq;
use pairhmm::marginal::ColumnPosterior;
use std::time::Instant;

/// Reads per [`Event::Batch`] for drivers without natural batching (the
/// serial pipeline and the rayon workers).
pub const BATCH_READS: usize = 256;

/// Where the map → deposit body puts each kept alignment's weighted
/// posterior columns.
pub trait EvidenceSink {
    /// Deposit one alignment's columns, starting at `window_start`,
    /// scaled by its posterior `weight`.
    fn deposit(&mut self, window_start: usize, weight: f64, columns: &[ColumnPosterior]);
}

impl<A: GenomeAccumulator> EvidenceSink for A {
    fn deposit(&mut self, window_start: usize, weight: f64, columns: &[ColumnPosterior]) {
        deposit(self, window_start, weight, columns);
    }
}

/// Work counts of one [`accumulate_reads_with`] call, from which every
/// driver that calls it builds its [`Event::Batch`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchCounts {
    /// Reads mapped.
    pub reads: u64,
    /// Reads that produced at least one kept alignment.
    pub mapped: u64,
    /// Kept alignments (those surviving the posterior-weight filter), each
    /// deposited into the sink.
    pub kept: u64,
    /// Posterior columns of the kept alignments.
    pub deposited_columns: u64,
}

impl BatchCounts {
    /// The [`Event::Batch`] reporting these counts for `worker`.
    pub fn event(self, worker: usize) -> Event {
        Event::Batch {
            worker: worker as u64,
            reads: self.reads,
            mapped: self.mapped,
            kept: self.kept,
            deposited_columns: self.deposited_columns,
        }
    }
}

impl std::ops::AddAssign for BatchCounts {
    fn add_assign(&mut self, other: BatchCounts) {
        self.reads += other.reads;
        self.mapped += other.mapped;
        self.kept += other.kept;
        self.deposited_columns += other.deposited_columns;
    }
}

/// The map → deposit body: map each read with `engine` and deposit its
/// kept alignments into `sink`, straight out of the caller's reusable
/// `scratch` — no per-read `Vec` of owned alignments is materialised.
/// `reads` is any iterator of borrowed reads, so a rank's strided share
/// is walked in place.
pub fn accumulate_reads_with<'r, S: EvidenceSink + ?Sized>(
    engine: &MappingEngine<'_>,
    reads: impl IntoIterator<Item = &'r SequencedRead>,
    sink: &mut S,
    scratch: &mut AlignScratch,
) -> BatchCounts {
    let mut counts = BatchCounts::default();
    for read in reads {
        engine.map_read_with(read, scratch);
        counts.reads += 1;
        counts.mapped += u64::from(!scratch.is_empty());
        for aln in scratch.alignments() {
            counts.kept += 1;
            counts.deposited_columns += aln.columns.len() as u64;
            sink.deposit(aln.window_start, aln.score, aln.columns);
        }
    }
    counts
}

/// [`accumulate_reads_with`] over [`BATCH_READS`]-read slices of
/// `reads`, emitting one [`Event::Batch`] per slice for `worker`. Read
/// order (and so deposit order) is unchanged.
pub fn accumulate_batches<S: EvidenceSink + ?Sized>(
    engine: &MappingEngine<'_>,
    reads: &[SequencedRead],
    sink: &mut S,
    scratch: &mut AlignScratch,
    observer: &Observer,
    worker: usize,
) -> BatchCounts {
    let mut total = BatchCounts::default();
    for batch in reads.chunks(BATCH_READS) {
        let counts = accumulate_reads_with(engine, batch, sink, scratch);
        observer.emit(|| counts.event(worker));
        total += counts;
    }
    total
}

/// Deposit one alignment's weighted columns into an accumulator, skipping
/// columns beyond the accumulator's end.
pub fn deposit<A: GenomeAccumulator>(
    acc: &mut A,
    window_start: usize,
    weight: f64,
    columns: &[ColumnPosterior],
) {
    // Clamp the column range once so the hot loop carries no per-column
    // bounds test.
    let len = acc.len();
    if window_start >= len {
        return;
    }
    let usable = columns.len().min(len - window_start);
    for (j, col) in columns[..usable].iter().enumerate() {
        let mut delta = [0.0; 5];
        for (d, p) in delta.iter_mut().zip(col.probs) {
            *d = p * weight;
        }
        acc.add(window_start + j, &delta);
    }
}

/// Run the whole pipeline serially with the configured accumulator
/// layout, reporting stage timings, per-batch counters, and run
/// start/end events to `observer`.
pub fn run_pipeline(
    reference: &DnaSeq,
    reads: &[SequencedRead],
    config: &GnumapConfig,
    observer: &Observer,
) -> RunReport {
    config.accumulator.dispatch(Serial {
        reference,
        reads,
        config,
        observer,
    })
}

/// [`run_pipeline`]'s arguments, awaiting an accumulator type.
struct Serial<'a> {
    reference: &'a DnaSeq,
    reads: &'a [SequencedRead],
    config: &'a GnumapConfig,
    observer: &'a Observer,
}

impl WithAccumulator for Serial<'_> {
    type Output = RunReport;

    fn run<A: GenomeAccumulator>(self) -> RunReport {
        let Serial {
            reference,
            reads,
            config,
            observer,
        } = self;
        observer.emit(|| Event::run_start("serial", config.accumulator));
        let start = Instant::now();
        let timer = StageTimer::start(observer, Stage::Index);
        let engine = MappingEngine::new(reference, config.mapping);
        timer.finish(observer);

        let mut acc = A::new(reference.len());
        let timer = StageTimer::start(observer, Stage::Map);
        let counts = accumulate_batches(
            &engine,
            reads,
            &mut acc,
            &mut AlignScratch::new(),
            observer,
            0,
        );
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
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accum::{AccumulatorMode, NormAccumulator};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use simulate::reads::{simulate_reads, ReadSimConfig, ReadSource};
    use simulate::{
        apply_snps_monoploid, generate_genome, generate_snp_catalog, ErrorProfile, GenomeConfig,
        SnpCatalogConfig,
    };

    /// Small but realistic end-to-end fixture.
    fn fixture(
        genome_len: usize,
        snp_count: usize,
        coverage: f64,
        seed: u64,
    ) -> (
        DnaSeq,
        Vec<(usize, genome::alphabet::Base)>,
        Vec<SequencedRead>,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let reference = generate_genome(
            &GenomeConfig {
                length: genome_len,
                repeat_families: 1,
                repeat_length: 120,
                repeat_copies: 2,
                repeat_divergence: 0.02,
                ..GenomeConfig::default()
            },
            &mut rng,
        );
        let snps = generate_snp_catalog(
            &reference,
            &SnpCatalogConfig {
                count: snp_count,
                ..SnpCatalogConfig::default()
            },
            &mut rng,
        );
        let individual = apply_snps_monoploid(&reference, &snps);
        let sim = simulate_reads(
            &ReadSource::Monoploid(&individual),
            ReadSimConfig {
                coverage,
                ..ReadSimConfig::default()
            }
            .read_count(genome_len),
            &ReadSimConfig {
                coverage,
                profile: ErrorProfile::default(),
                ..ReadSimConfig::default()
            },
            &mut rng,
        );
        let truth: Vec<_> = snps.iter().map(|s| (s.pos, s.alt)).collect();
        let reads: Vec<_> = sim.into_iter().map(|r| r.read).collect();
        (reference, truth, reads)
    }

    #[test]
    fn end_to_end_finds_planted_snps() {
        let (reference, truth, reads) = fixture(6_000, 8, 14.0, 2024);
        let report = run_pipeline(
            &reference,
            &reads,
            &GnumapConfig::default(),
            &Observer::disabled(),
        );
        assert!(report.reads_mapped as f64 > reads.len() as f64 * 0.95);

        let accuracy = crate::report::score_snp_calls(&report.calls, &truth);
        assert!(
            accuracy.true_positives >= 7,
            "expected ≥7/8 planted SNPs, got {accuracy:?}"
        );
        assert!(
            accuracy.false_positives <= 1,
            "too many false positives: {accuracy:?}"
        );
        assert!(report.seqs_per_sec() > 0.0);
        assert_eq!(report.accumulator_bytes, 6_000 * 20);
    }

    #[test]
    fn no_snps_means_no_calls() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let reference = generate_genome(
            &GenomeConfig {
                length: 4_000,
                repeat_families: 0,
                ..GenomeConfig::default()
            },
            &mut rng,
        );
        let sim = simulate_reads(
            &ReadSource::Monoploid(&reference),
            800,
            &ReadSimConfig::default(),
            &mut rng,
        );
        let reads: Vec<_> = sim.into_iter().map(|r| r.read).collect();
        let report = run_pipeline(
            &reference,
            &reads,
            &GnumapConfig::default(),
            &Observer::disabled(),
        );
        assert!(
            report.calls.len() <= 2,
            "α=0.05 on a clean genome should produce almost nothing: {}",
            report.calls.len()
        );
    }

    #[test]
    fn observed_run_matches_unobserved_and_emits_events() {
        use crate::observe::MemorySink;
        use std::sync::Arc;
        let (reference, _, reads) = fixture(3_000, 4, 10.0, 42);
        let cfg = GnumapConfig {
            accumulator: AccumulatorMode::Fixed,
            ..GnumapConfig::default()
        };
        let plain = run_pipeline(&reference, &reads, &cfg, &Observer::disabled());
        let sink = Arc::new(MemorySink::new());
        let observed = run_pipeline(&reference, &reads, &cfg, &Observer::new(sink.clone()));
        assert_eq!(observed.accumulator_digest, plain.accumulator_digest);
        assert_eq!(observed.reads_mapped, plain.reads_mapped);

        let events = sink.take();
        assert!(matches!(events.first(), Some(Event::RunStart { .. })));
        assert!(matches!(events.last(), Some(Event::RunEnd { .. })));
        for stage in [Stage::Index, Stage::Map, Stage::Call] {
            assert!(
                events
                    .iter()
                    .any(|e| matches!(e, Event::StageEnd { stage: s, .. } if *s == stage)),
                "missing StageEnd for {stage:?}"
            );
        }
        let batch_reads: u64 = events
            .iter()
            .filter_map(|e| match e {
                Event::Batch { reads, .. } => Some(*reads),
                _ => None,
            })
            .sum();
        assert_eq!(batch_reads, reads.len() as u64);
    }

    #[test]
    fn fixed_mode_runs_through_run_pipeline() {
        let (reference, truth, reads) = fixture(3_000, 4, 12.0, 9);
        let report = run_pipeline(
            &reference,
            &reads,
            &GnumapConfig {
                accumulator: AccumulatorMode::Fixed,
                ..GnumapConfig::default()
            },
            &Observer::disabled(),
        );
        let acc = crate::report::score_snp_calls(&report.calls, &truth);
        assert!(acc.true_positives >= 3, "{acc:?}");
        assert_eq!(report.accumulator_bytes, 3_000 * 40);
    }

    #[test]
    fn deposit_clips_at_accumulator_end() {
        let mut acc = NormAccumulator::new(3);
        let cols = vec![
            pairhmm::marginal::ColumnPosterior {
                probs: [1.0, 0.0, 0.0, 0.0, 0.0]
            };
            5
        ];
        deposit(&mut acc, 1, 1.0, &cols);
        assert_eq!(acc.counts(1)[0], 1.0);
        assert_eq!(acc.counts(2)[0], 1.0);
        // Columns 3 and 4 fell off the end without panicking.
    }

    #[test]
    fn chardisc_mode_is_close_to_norm_at_moderate_coverage() {
        let (reference, truth, reads) = fixture(5_000, 6, 12.0, 11);
        let norm = run_pipeline(
            &reference,
            &reads,
            &GnumapConfig::default(),
            &Observer::disabled(),
        );
        let chard = run_pipeline(
            &reference,
            &reads,
            &GnumapConfig {
                accumulator: AccumulatorMode::CharDisc,
                ..GnumapConfig::default()
            },
            &Observer::disabled(),
        );
        let a_norm = crate::report::score_snp_calls(&norm.calls, &truth);
        let a_chard = crate::report::score_snp_calls(&chard.calls, &truth);
        // Paper Table III: CHARDISC keeps precision but may lose some TPs.
        assert!(a_chard.true_positives >= a_norm.true_positives.saturating_sub(2));
        assert!(a_chard.false_positives <= a_norm.false_positives + 1);
        assert!(chard.accumulator_bytes < norm.accumulator_bytes);
    }
}
