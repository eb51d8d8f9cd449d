//! Quality-extended Pair Hidden Markov Model — the paper's core contribution.
//!
//! A three-state (M, G_X, G_Y) Pair-HMM aligns a sequencing read `x` to a
//! candidate genome window `y`. Unlike a Needleman–Wunsch aligner that
//! commits to one best path, the forward–backward algorithm marginalises
//! over *all* alignments, producing for every `(i, j)` the posterior
//! probability that read base `x_i` aligns to genome base `y_j` (or to a
//! gap). Those posteriors, weighted by the read's quality-derived
//! position-weight matrix, become the per-genome-position base-probability
//! vectors `z` that drive SNP calling.
//!
//! Module map:
//!
//! * [`params`]   — transition/emission parameterisation (`T_MM`, `T_MG`,
//!   `T_GM`, `T_GG`, match emission matrix `p_ab`, gap emission `q`).
//! * [`pwm`]      — position-weight matrix built from read qualities
//!   (`r_ik` in the paper), the blended emission `p*(i, j)`, and the
//!   per-read blend rows ([`Pwm::fill_blend`]) every window's emission
//!   cells are looked up from.
//! * [`emission`] — flat row-major emission storage ([`EmissionTable`] /
//!   borrowed [`Emission`] view) for the materialised reference.
//! * [`kernel`]   — the flat-plane, vectorization-structured forward and
//!   backward recursions (full-table and banded via one `Band` parameter).
//!   The forward pass is generic over a lane count `L` of `[f64; L]`
//!   cells.
//! * [`scratch`]  — [`PhmmScratch`], the per-thread reusable arena and
//!   the one fused Pair-HMM kernel the mapper runs (zero steady-state
//!   allocations): [`PhmmScratch::posterior_lanes`] scores one read
//!   against `L` same-length windows in lockstep, each lane bit-identical
//!   to the scalar arithmetic; [`PhmmScratch::posterior_columns`] is its
//!   one-lane instantiation, and [`PhmmScratch::score_windows`] groups a
//!   read's windows four at a time. It fills emission cells inside the
//!   band only, from the read's blend rows.
//! * [`matrix`]   — dense `f64` DP matrices.
//! * [`mod@forward`] / [`mod@backward`] — the dynamic programs of Section VI
//!   Step 2, materialised, full or banded via a trailing `band` argument.
//! * [`marginal`] — posterior cell probabilities and per-column `z`
//!   vectors over the materialised tables: the bit-exact reference for
//!   the fused pass.
//! * [`mod@viterbi`]  — single best alignment (for comparison and examples).
//! * [`bruteforce`] — exhaustive alignment enumeration (test oracle). The
//!   independent log-space oracle lives in the conformance crate.
//!
//! ### Fidelity notes
//!
//! The paper's printed forward recursion for the match state reads
//! `T_MG·f_GX(i−1, j) + T_MG·f_GY(i, j−1)`; entering M at `(i, j)` must
//! consume both `x_i` and `y_j` from predecessors at `(i−1, j−1)` and pay a
//! gap-to-match transition, so we implement the (cited) Durbin et al. form
//! `T_GM·[f_GX(i−1, j−1) + f_GY(i−1, j−1)]`, which is also the unique form
//! consistent with the paper's own backward recursion. Likewise, the `z`
//! normalisation falls out exactly: for a fixed genome column `j`, every
//! alignment consumes `y_j` in exactly one M or G_Y state, so the match and
//! deletion marginals of a column already sum to one.

pub mod backward;
pub mod bruteforce;
pub mod emission;
pub mod forward;
pub mod kernel;
pub mod marginal;
pub mod matrix;
pub mod params;
pub mod pwm;
pub mod scratch;
pub mod viterbi;

pub use backward::backward;
pub use emission::{Emission, EmissionTable};
pub use forward::forward;
pub use marginal::{ColumnPosterior, PosteriorAlignment};
pub use matrix::Matrix;
pub use params::PhmmParams;
pub use pwm::Pwm;
pub use scratch::{PhmmScratch, LANES};
pub use viterbi::{viterbi, AlignOp, Alignment};
