//! Batching SNP-calling service.
//!
//! A std-only TCP daemon that serves the paper's pipeline as a sessioned
//! request/response API: clients open a session, stream read chunks, and
//! finalize to receive SNP calls. Internally the server coalesces reads
//! from *all* live sessions into length-sorted micro-batches (the same
//! scheduling idea as the `exec` streaming driver) served by a worker
//! pool with per-worker scratch arenas; per-session
//! `ShardedAccumulator<FixedAccumulator>`s keep evidence isolated while
//! deposits commute bit-exactly, so every session's digest and calls are
//! bit-identical to a serial run over the same reads regardless of batch
//! composition or worker count.
//!
//! Module map:
//! - [`protocol`] — length-prefixed binary framing with typed errors
//! - [`queue`] — bounded MPMC queue (the admission-control primitive)
//! - [`session`] — session lifecycle, registry, per-session accumulator
//! - [`metrics`] — per-stage counters behind the `Stats` frame
//! - [`server`] — acceptor, batcher, worker pool, graceful drain
//! - [`client`] — blocking client used by `gnumap client` and tests

pub mod client;
pub mod metrics;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod session;

pub use client::{Client, ClientError, SUBMIT_CHUNK_READS};
pub use metrics::StatsSnapshot;
pub use protocol::{CallResult, ErrorKind, ProtocolError, Request, Response, SessionConfig};
pub use server::{start, ServerConfig, ServerHandle};
