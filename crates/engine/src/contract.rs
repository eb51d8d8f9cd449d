//! The run contract every execution mode implements.

use crate::context::RunContext;
use crate::error::EngineError;
use crate::sink::{deliver, CallSink};
use crate::source::ReadSource;
use genome::read::SequencedRead;
use gnumap_core::accum::{AccumulatorMode, GenomeAccumulator, WithAccumulator};
use gnumap_core::report::RunReport;

/// What a driver can and cannot do, declared statically so callers (the
/// CLI, the conformance matrix, the benchmarks) can plan runs without
/// trial and error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capabilities {
    /// Accumulator layouts the driver accepts. Passing any other mode in
    /// the run context yields [`EngineError::UnsupportedAccumulator`].
    pub accumulators: &'static [AccumulatorMode],
    /// Whether the driver exploits parallel hardware at all.
    pub parallel: bool,
    /// Whether the driver consumes its source incrementally (bounded
    /// memory) rather than materialising every read first.
    pub streaming: bool,
    /// Whether the driver can write and resume from checkpoints.
    pub checkpointing: bool,
    /// Whether parallel runs are bit-identical to serial under the
    /// fixed-point accumulator. Only the ring allreduce — pinned to float
    /// summation whose order varies with the rank count — gives this up.
    pub bit_exact_parallel: bool,
}

impl Capabilities {
    /// Does the driver accept this accumulator layout?
    pub fn supports(&self, mode: AccumulatorMode) -> bool {
        self.accumulators.contains(&mode)
    }
}

/// One execution mode of the pipeline: the same map → accumulate → call
/// algorithm behind a uniform entry point.
///
/// Implementations are stateless; all run state lives in the
/// [`RunContext`] and the source. Every driver threads `ctx.observer`
/// through, so structured events flow from any driver the same way.
pub trait Driver: Send + Sync {
    /// Canonical registry name (`serial`, `rayon`, `read-split`, ...).
    fn name(&self) -> &'static str;

    /// Alternate names the registry also resolves.
    fn aliases(&self) -> &'static [&'static str] {
        &[]
    }

    /// One-line description for tables and help text.
    fn description(&self) -> &'static str;

    /// Static capability declaration.
    fn capabilities(&self) -> Capabilities;

    /// Execute the pipeline over `source`, delivering calls to `sink`.
    fn run(
        &self,
        ctx: &RunContext<'_>,
        source: ReadSource<'_>,
        sink: &mut dyn CallSink,
    ) -> Result<RunReport, EngineError>;
}

/// Shared precondition check for drivers: a valid context whose
/// accumulator mode the driver supports.
pub(crate) fn check_preconditions(
    driver: &dyn Driver,
    ctx: &RunContext<'_>,
) -> Result<(), EngineError> {
    ctx.validate()?;
    let caps = driver.capabilities();
    if !caps.supports(ctx.config.accumulator) {
        return Err(EngineError::UnsupportedAccumulator {
            driver: driver.name(),
            mode: ctx.config.accumulator,
            supported: caps.accumulators,
        });
    }
    Ok(())
}

/// A driver over in-memory reads whose body is generic over the
/// accumulator layout. [`run_layout`] supplies the rest of its `run`.
pub(crate) trait LayoutDriver: Driver {
    /// The driver's body with accumulator type `A`.
    fn run_with<A: GenomeAccumulator>(
        &self,
        ctx: &RunContext<'_>,
        reads: &[SequencedRead],
    ) -> Result<RunReport, EngineError>;
}

/// `run` for a [`LayoutDriver`]: check the preconditions, materialise
/// the reads, run the body with the context's accumulator type, and
/// deliver the calls.
pub(crate) fn run_layout<D: LayoutDriver>(
    driver: &D,
    ctx: &RunContext<'_>,
    source: ReadSource<'_>,
    sink: &mut dyn CallSink,
) -> Result<RunReport, EngineError> {
    struct Body<'a, D> {
        driver: &'a D,
        ctx: &'a RunContext<'a>,
        reads: &'a [SequencedRead],
    }
    impl<D: LayoutDriver> WithAccumulator for Body<'_, D> {
        type Output = Result<RunReport, EngineError>;
        fn run<A: GenomeAccumulator>(self) -> Self::Output {
            self.driver.run_with::<A>(self.ctx, self.reads)
        }
    }
    check_preconditions(driver, ctx)?;
    let reads = source.collect()?;
    let report = ctx.config.accumulator.dispatch(Body {
        driver,
        ctx,
        reads: &reads,
    })?;
    deliver(report, sink)
}
