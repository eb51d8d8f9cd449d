//! Streaming execution engine for the GNUMAP-SNP pipeline.
//!
//! The serial pipeline and the rayon and MPI drivers all start from a
//! `&[SequencedRead]` slice: the whole input must fit in memory before any
//! work begins, and every parallel one ends with a global merge of
//! per-worker accumulators. This crate runs the same map → accumulate →
//! call algorithm — the same map → deposit body,
//! `gnumap_core::pipeline::accumulate_reads_with` — over an **unbounded
//! read source** instead:
//!
//! * [`stream`] — a chunked [`stream::ReadStream`] trait with FASTQ-file,
//!   simulator-backed and in-memory implementations, pulled one window
//!   at a time so memory stays bounded. The FASTQ one parses nothing
//!   itself: it chunks `genome::fastq`'s one parser, so a file is
//!   accepted or rejected as on every other path;
//! * [`driver`] — a batch scheduler on the caller's thread that groups
//!   arriving reads into length-sorted micro-batches, runs each window's
//!   batches on scoped worker threads and reads the next window
//!   meanwhile;
//! * [`sharded`] — a striped-lock wrapper over any
//!   [`gnumap_core::accum::GenomeAccumulator`], so workers deposit evidence
//!   concurrently without a global merge barrier;
//! * [`checkpoint`] — periodic atomic snapshots of the accumulator plus the
//!   stream cursor, giving kill/resume semantics.
//!
//! Pair the engine with [`gnumap_core::accum::FixedAccumulator`] and the
//! result is **bit-identical** to a serial run for any worker count, batch
//! size or checkpoint schedule: integer deposits commute, and the scheduler
//! derives batch composition only from stream order, never from timing.

pub mod checkpoint;
pub mod driver;
pub mod error;
pub mod sharded;
pub mod stream;

pub use checkpoint::Checkpoint;
pub use driver::{run_stream, CheckpointPolicy, StreamConfig};
pub use error::ExecError;
pub use sharded::ShardedAccumulator;
pub use stream::{FastqStream, MemoryStream, ReadStream, SimReadStream};
