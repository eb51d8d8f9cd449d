//! The serial reference driver.

use crate::context::RunContext;
use crate::contract::{check_preconditions, Capabilities, Driver};
use crate::error::EngineError;
use crate::sink::{deliver, CallSink};
use crate::source::ReadSource;
use gnumap_core::accum::AccumulatorMode;
use gnumap_core::pipeline::run_pipeline;
use gnumap_core::report::RunReport;

/// Single-threaded pipeline: the reference implementation every parallel
/// decomposition is measured against.
pub struct SerialDriver;

impl Driver for SerialDriver {
    fn name(&self) -> &'static str {
        "serial"
    }

    fn description(&self) -> &'static str {
        "single-threaded reference pipeline (all accumulator layouts)"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            accumulators: &[
                AccumulatorMode::Norm,
                AccumulatorMode::CharDisc,
                AccumulatorMode::CentDisc,
                AccumulatorMode::Fixed,
            ],
            parallel: false,
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
        check_preconditions(self, ctx)?;
        let reads = source.collect()?;
        let report = run_pipeline(ctx.reference, &reads, &ctx.config, &ctx.observer);
        deliver(report, sink)
    }
}
