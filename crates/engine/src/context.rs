//! The run context: everything a driver needs besides the reads.

use crate::error::EngineError;
use exec::{CheckpointPolicy, StreamConfig};
use genome::seq::DnaSeq;
use gnumap_core::observe::Observer;
use gnumap_core::GnumapConfig;

/// One run's complete configuration, shared by every driver.
///
/// A context borrows the reference genome and bundles the pipeline
/// configuration (including the accumulator layout), the deterministic
/// seed that produced the workload, the parallelism budget, the streaming
/// shape, and the [`Observer`] that receives structured events. Fields a
/// driver does not use are simply ignored: the serial driver reads only
/// `config` and `observer`, the MPI drivers interpret `threads` as their
/// rank count, and the streaming driver consumes the whole batch shape.
pub struct RunContext<'r> {
    /// The reference genome every driver maps against.
    pub reference: &'r DnaSeq,
    /// Mapping, calling and accumulator-layout parameters.
    pub config: GnumapConfig,
    /// Seed that generated the workload. Drivers are deterministic given
    /// their inputs; the seed travels here so traces and reports can
    /// identify the workload they came from.
    pub seed: u64,
    /// Parallelism budget: rayon threads, MPI ranks, or stream/server
    /// workers, depending on the driver.
    pub threads: usize,
    /// Reads per micro-batch (stream and server drivers).
    pub batch_size: usize,
    /// Lock stripes in the shared accumulator (stream and server drivers).
    pub shards: usize,
    /// Periodic checkpointing (stream driver only).
    pub checkpoint: Option<CheckpointPolicy>,
    /// Kill hook for tests (stream driver only).
    pub abort_after_batches: Option<usize>,
    /// Structured-event receiver; `Observer::disabled()` costs nothing.
    pub observer: Observer,
}

impl<'r> RunContext<'r> {
    /// A context with the library defaults (mirrors
    /// [`StreamConfig::default`] for the streaming shape).
    pub fn new(reference: &'r DnaSeq) -> Self {
        let sc = StreamConfig::default();
        RunContext {
            reference,
            config: GnumapConfig::default(),
            seed: 0,
            threads: 1,
            batch_size: sc.batch_size,
            shards: sc.shards,
            checkpoint: None,
            abort_after_batches: None,
            observer: Observer::disabled(),
        }
    }

    /// The streaming-engine shape this context describes.
    pub fn stream_config(&self) -> StreamConfig {
        StreamConfig {
            workers: self.threads.max(1),
            batch_size: self.batch_size,
            shards: self.shards,
            checkpoint: self.checkpoint.clone(),
            abort_after_batches: self.abort_after_batches,
        }
    }

    /// Reject out-of-range fields before handing them to a driver (the
    /// underlying run functions assert; the engine returns typed errors).
    pub fn validate(&self) -> Result<(), EngineError> {
        for (value, what) in [
            (self.threads, "threads"),
            (self.batch_size, "batch_size"),
            (self.shards, "shards"),
        ] {
            if value == 0 {
                return Err(EngineError::InvalidContext(format!(
                    "{what} must be at least 1"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_mirror_stream_config() {
        let reference: DnaSeq = "ACGTACGT".parse().unwrap();
        let ctx = RunContext::new(&reference);
        let sc = StreamConfig::default();
        assert_eq!(ctx.stream_config(), sc);
        assert_eq!(ctx.threads, 1);
        assert!(ctx.validate().is_ok());
    }

    #[test]
    fn zero_fields_are_rejected() {
        let reference: DnaSeq = "ACGT".parse().unwrap();
        let mut ctx = RunContext::new(&reference);
        ctx.shards = 0;
        let err = ctx.validate().unwrap_err();
        assert!(err.to_string().contains("shards"), "{err}");
    }
}
