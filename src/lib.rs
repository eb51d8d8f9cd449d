//! # gnumap-snp
//!
//! A from-scratch Rust reproduction of **"Parallel Pair-HMM SNP
//! Detection"** (Clement et al., IPDPS Workshops 2012) — the GNUMAP-SNP
//! system: probabilistic short-read mapping with a quality-extended Pair
//! Hidden Markov Model, marginal (all-alignments) base evidence
//! accumulation, likelihood-ratio-test SNP calling with p-value/FDR
//! cutoffs, two MPI-style parallel decompositions, and the paper's three
//! accumulator memory layouts.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`genome`] — sequences, FASTA/FASTQ, k-mer index;
//! * [`pairhmm`] — the forward/backward Pair-HMM core;
//! * [`stats`] — χ², LRT, FDR;
//! * [`simulate`] — genome/SNP/read simulators;
//! * [`mpisim`] — the thread-backed message-passing runtime;
//! * [`core`] — the assembled pipeline, accumulators and the one
//!   map → deposit body;
//! * [`engine`] — the driver registry, the one run contract every
//!   execution mode implements, and the parallel drivers;
//! * [`baseline`] — the MAQ-style comparison caller.
//!
//! ## Quickstart
//!
//! ```
//! use gnumap_snp::prelude::*;
//! use rand::SeedableRng;
//!
//! // Simulate a tiny genome with one planted SNP and some reads.
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
//! let reference = simulate::generate_genome(
//!     &simulate::GenomeConfig { length: 4000, repeat_families: 0,
//!         ..Default::default() },
//!     &mut rng,
//! );
//! let snps = simulate::generate_snp_catalog(
//!     &reference,
//!     &simulate::SnpCatalogConfig { count: 3, ..Default::default() },
//!     &mut rng,
//! );
//! let individual = simulate::apply_snps_monoploid(&reference, &snps);
//! let sim_cfg = simulate::ReadSimConfig { coverage: 14.0, ..Default::default() };
//! let reads: Vec<_> = simulate::reads::simulate_reads(
//!     &simulate::reads::ReadSource::Monoploid(&individual),
//!     sim_cfg.read_count(reference.len()), &sim_cfg, &mut rng,
//! ).into_iter().map(|r| r.read).collect();
//!
//! // Run the pipeline and check the planted SNPs are recovered.
//! let report = run_pipeline(&reference, &reads, &GnumapConfig::default(), &Observer::disabled());
//! let truth: Vec<_> = snps.iter().map(|s| (s.pos, s.alt)).collect();
//! let accuracy = score_snp_calls(&report.calls, &truth);
//! assert!(accuracy.true_positives >= 2);
//! ```

pub mod cli;

pub use baseline;
pub use conformance;
pub use engine;
pub use exec;
pub use genome;
pub use gnumap_core as core;
pub use gnumap_stats as stats;
pub use mpisim;
pub use pairhmm;
pub use server;
pub use simulate;

/// Commonly used items in one import.
pub mod prelude {
    pub use baseline::{run_baseline, BaselineConfig};
    pub use engine::{Driver, DriverRegistry, NullSink, RunContext};
    pub use genome::{Base, DnaSeq, SequencedRead};
    pub use gnumap_core::accum::{AccumulatorMode, GenomeAccumulator};
    pub use gnumap_core::{
        call_snps, run_pipeline, score_snp_calls, GnumapConfig, MappingEngine, Observer, RunReport,
        SnpCall,
    };
    pub use gnumap_stats::lrt::Ploidy;
    pub use simulate;
}

pub use gnumap_core::report::score_snp_calls;
pub use gnumap_core::{run_pipeline, GnumapConfig};
