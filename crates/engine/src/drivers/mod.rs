//! The seven drivers: one per execution mode.
//!
//! Each driver is a unit struct implementing [`crate::Driver`] whose body
//! is written once, takes the run's observer from the context, and calls
//! the one map → deposit body in `gnumap_core::pipeline` (genome-split,
//! which renormalises across ranks, keeps its own batch and allreduce
//! loop, sharing the mapper's posterior-weight rule and the deposit).
//! Drivers over in-memory reads whose body is generic over the
//! accumulator layout (rayon, read-split, genome-split) get the layout
//! from the single dispatch in `gnumap_core::accum`. The serial pipeline lives in
//! `gnumap_core::pipeline` (it is the reference the other crates test
//! against) and the stream driver and the server are engines of their
//! own crates; their drivers validate the context and call them.

mod genome_split;
mod rayon;
mod read_split;
mod serial;
mod server;
mod stream;

pub use genome_split::GenomeSplitDriver;
pub use rayon::RayonDriver;
pub use read_split::{ReadSplitDriver, ReadSplitRingDriver};
pub use serial::SerialDriver;
pub use server::ServerDriver;
pub use stream::StreamDriver;

use crate::error::EngineError;
use gnumap_core::driver::decode_calls;
use gnumap_core::observe::Observer;
use gnumap_core::report::RunReport;
use mpisim::{Rank, WorldReport};
use std::time::Instant;

/// The observer a simulated rank times its stages with: the run's own on
/// rank 0, disabled elsewhere (every rank does the same stage work, so
/// rank 0 is representative).
fn stage_observer(rank: &Rank, observer: &Observer) -> Observer {
    if rank.id() == 0 {
        observer.clone()
    } else {
        Observer::disabled()
    }
}

/// What rank 0 of an MPI driver hands back: its encoded calls, the
/// mapped-read total, and the reduced accumulator's heap bytes and digest.
type RootResult = (Vec<f64>, u64, usize, u64);

/// An MPI driver's report, assembled from rank 0's result and the
/// world's traffic and per-rank CPU, with its `run_end` event.
fn root_report(
    (call_wire, mapped, accumulator_bytes, digest): RootResult,
    world: WorldReport,
    reads: usize,
    start: Instant,
    observer: &Observer,
) -> Result<RunReport, EngineError> {
    let report = RunReport {
        calls: decode_calls(&call_wire)?,
        reads_processed: reads,
        reads_mapped: mapped as usize,
        elapsed_secs: start.elapsed().as_secs_f64(),
        accumulator_bytes,
        traffic: Some(world.traffic),
        rank_cpu_secs: world.rank_cpu_secs,
        stream: None,
        accumulator_digest: Some(digest),
    };
    observer.emit(|| report.run_end());
    Ok(report)
}

#[cfg(test)]
pub(crate) mod test_support {
    use crate::{Driver, NullSink, ReadSource, RunContext};
    use genome::alphabet::Base;
    use genome::read::SequencedRead;
    use genome::seq::DnaSeq;
    use gnumap_core::accum::AccumulatorMode;
    use gnumap_core::report::RunReport;
    use gnumap_core::GnumapConfig;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use simulate::reads::{simulate_reads, ReadSimConfig, ReadSource as SimSource};
    use simulate::{
        apply_snps_monoploid, generate_genome, generate_snp_catalog, ErrorProfile, GenomeConfig,
        SnpCatalogConfig,
    };

    /// Small but realistic end-to-end fixture: reference, planted SNPs,
    /// reads.
    pub(crate) fn fixture(
        genome_len: usize,
        snp_count: usize,
        coverage: f64,
        seed: u64,
    ) -> (DnaSeq, Vec<(usize, Base)>, Vec<SequencedRead>) {
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
            &SimSource::Monoploid(&individual),
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

    /// Run `driver` over `reads` with `config` and a parallelism budget.
    pub(crate) fn run_with_config(
        driver: &dyn Driver,
        reference: &DnaSeq,
        reads: &[SequencedRead],
        config: GnumapConfig,
        threads: usize,
    ) -> RunReport {
        let mut ctx = RunContext::new(reference);
        ctx.config = config;
        ctx.threads = threads;
        driver
            .run(&ctx, ReadSource::Slice(reads), &mut NullSink)
            .unwrap_or_else(|e| panic!("{} failed: {e}", driver.name()))
    }

    /// [`run_with_config`] with the default configuration and `mode`.
    pub(crate) fn run_mode(
        driver: &dyn Driver,
        reference: &DnaSeq,
        reads: &[SequencedRead],
        mode: AccumulatorMode,
        threads: usize,
    ) -> RunReport {
        let config = GnumapConfig {
            accumulator: mode,
            ..GnumapConfig::default()
        };
        run_with_config(driver, reference, reads, config, threads)
    }

    /// [`run_mode`] with the norm accumulator.
    pub(crate) fn run_norm(
        driver: &dyn Driver,
        reference: &DnaSeq,
        reads: &[SequencedRead],
        threads: usize,
    ) -> RunReport {
        run_mode(driver, reference, reads, AccumulatorMode::Norm, threads)
    }
}
