//! The streaming batch-pipeline driver.

use crate::context::RunContext;
use crate::contract::{check_preconditions, Capabilities, Driver};
use crate::error::EngineError;
use crate::sink::{deliver, CallSink};
use crate::source::ReadSource;
use exec::{run_stream, MemoryStream};
use gnumap_core::accum::{AccumulatorMode, FixedAccumulator};
use gnumap_core::report::RunReport;

/// Windowed micro-batch pipeline over an unbounded source: scoped
/// workers per window, at most two windows in memory, a sharded shared
/// accumulator, and checkpoint/resume at window barriers.
/// Always accumulates in fixed point — integer deposits commute, so any
/// worker count, batch shape or checkpoint split is bit-identical to
/// serial. `NORM` is accepted as a selection (fixed point quantizes the
/// same normalized posteriors) and runs the identical fixed-point path.
pub struct StreamDriver;

impl Driver for StreamDriver {
    fn name(&self) -> &'static str {
        "stream"
    }

    fn aliases(&self) -> &'static [&'static str] {
        &["streaming"]
    }

    fn description(&self) -> &'static str {
        "windowed micro-batch pipeline with bounded memory and checkpoint/resume"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            accumulators: &[AccumulatorMode::Norm, AccumulatorMode::Fixed],
            parallel: true,
            streaming: true,
            checkpointing: true,
            bit_exact_parallel: true,
        }
    }

    fn run(
        &self,
        ctx: &RunContext<'_>,
        source: ReadSource<'_>,
        sink: &mut dyn CallSink,
    ) -> Result<RunReport, EngineError> {
        check_preconditions(self, ctx)?;
        let sc = ctx.stream_config();
        let report = match source {
            ReadSource::Stream(stream) => run_stream::<FixedAccumulator>(
                ctx.reference,
                stream,
                &ctx.config,
                &sc,
                &ctx.observer,
            )?,
            ReadSource::Slice(reads) => {
                let mut stream = MemoryStream::new(reads.to_vec());
                run_stream::<FixedAccumulator>(
                    ctx.reference,
                    &mut stream,
                    &ctx.config,
                    &sc,
                    &ctx.observer,
                )?
            }
        };
        deliver(report, sink)
    }
}
