//! Unified driver engine: one registry, one run contract, one driver
//! layer.
//!
//! The pipeline runs the same map → accumulate → call algorithm seven
//! ways — serial, shared-memory threads, two MPI decompositions, a
//! ring-allreduce variant, a streaming batch engine, and a TCP daemon.
//! The CLI, the conformance matrix and the benchmarks reach all of them
//! through a single contract:
//!
//! * [`Driver`] — `name()`, `capabilities()`, and
//!   `run(&RunContext, ReadSource, &mut dyn CallSink) -> RunReport`;
//! * [`RunContext`] — the reference genome, the [`gnumap_core::GnumapConfig`]
//!   (including the accumulator layout), the workload seed, the
//!   parallelism budget, the streaming shape, and an
//!   [`gnumap_core::observe::Observer`] for structured events;
//! * [`ReadSource`] / [`CallSink`] — reads in (slice or chunked stream),
//!   calls out;
//! * [`DriverRegistry`] — the single source of truth for driver names,
//!   with aliases, typo suggestions, and a generated capability table.
//!
//! Each mode's body is written once — in its [`Driver`] here, or, for
//! the serial reference, the stream engine and the server, in the crate
//! that owns it — takes the observer from the [`RunContext`], and runs
//! the one map → deposit body, `gnumap_core::pipeline::accumulate_reads_with`
//! (genome-split, which renormalises across ranks, keeps its own batch and
//! allreduce loop, but weighs reads with the mapper's one rule,
//! `gnumap_core::mapping::posterior_weights`, and deposits through
//! `gnumap_core::pipeline::deposit`).
//! Layout-generic bodies get their accumulator type from the one
//! dispatch, `AccumulatorMode::dispatch`. With the fixed-point accumulator, every
//! driver resolved from the registry produces the same accumulator digest
//! and the same bit-identical call wire as the serial reference (the ring
//! variant, pinned to float summation, agrees semantically instead — its
//! [`Capabilities::bit_exact_parallel`] says so).

pub mod context;
pub mod contract;
pub mod drivers;
pub mod error;
pub mod registry;
pub mod sink;
pub mod source;

pub use context::RunContext;
pub use contract::{Capabilities, Driver};
pub use error::EngineError;
pub use registry::DriverRegistry;
pub use sink::{CallSink, NullSink, VecSink};
pub use source::ReadSource;
