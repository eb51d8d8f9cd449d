//! GNUMAP-SNP: the paper's pipeline, assembled.
//!
//! This crate wires the substrates together into the three-step system of
//! paper Figure 1:
//!
//! 1. **Seed** — the genomic k-mer hash table proposes candidate mapping
//!    regions for each read ([`mapping`]).
//! 2. **Align** — the quality-extended Pair-HMM computes each candidate's
//!    likelihood and marginal per-column base probabilities; the read's
//!    evidence is split across its candidate locations in proportion to
//!    their posterior weights and summed into a genome-length
//!    **accumulator** ([`accum`] — with the paper's three memory layouts:
//!    full floats, nucleotide-byte discretization, centroid
//!    discretization).
//! 3. **Test** — a likelihood ratio test per genome position calls bases
//!    above background and reports SNPs against the reference, with
//!    p-value or FDR cutoffs ([`snpcall`]).
//!
//! [`pipeline`] holds the serial reference run and the one map → deposit
//! body every execution mode calls. The parallel drivers — shared-memory
//! threads, the paper's two MPI decompositions on the `mpisim` runtime,
//! the streaming engine and the server — sit behind one `Driver` contract
//! in the `engine` crate; [`driver`] keeps the call-wire codec they share.

pub mod accum;
pub mod config;
pub mod driver;
pub mod footprint;
pub mod mapping;
pub mod observe;
pub mod pipeline;
pub mod report;
pub mod snpcall;

pub use accum::{AccumulatorMode, GenomeAccumulator};
pub use config::GnumapConfig;
pub use mapping::{MappingConfig, MappingEngine};
pub use observe::{Event, EventSink, Observer, Stage};
pub use pipeline::run_pipeline;
pub use report::{score_snp_calls, AccuracyReport, RunReport};
pub use snpcall::{call_snps, SnpCall, SnpCallConfig};
