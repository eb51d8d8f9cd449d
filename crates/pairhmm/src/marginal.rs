//! Posterior (marginal) alignment probabilities and per-column `z` vectors.
//!
//! Combining the forward and backward tables gives, for every cell,
//!
//! ```text
//! P(x_i ◇ y_j | x, y)  = f_M(i,j) · b_M(i,j) / total        (match)
//! P(x_i ◇ G_j | x, y)  = f_GX(i,j) · b_GX(i,j) / total      (insertion)
//! P(y_j ◇ G_i | x, y)  = f_GY(i,j) · b_GY(i,j) / total      (deletion)
//! ```
//!
//! (paper Equations 3–4). For SNP calling we then need, per genome column
//! `j`, the probability that the read contributes an A, C, G, T or gap to
//! that position — the vector `z_k` of Section VI Step 2. Every alignment
//! consumes `y_j` in exactly one match or deletion state, so
//!
//! ```text
//! z_k(j)   = Σ_i P(x_i ◇ y_j) · r_ik      for k ∈ {A, C, G, T}
//! z_gap(j) = Σ_i P(y_j ◇ G_i)
//! ```
//!
//! already sums to exactly one per column — each mapped read distributes
//! one unit of evidence to every genome position it covers, apportioned by
//! its quality-weighted base identities (`r_ik` is the read's PWM row; for
//! a certain read this reduces to the paper's indicator sum over
//! `{i : x_i = k}`).

use crate::backward::{backward, BackwardResult};
use crate::emission::Emission;
use crate::forward::{forward, ForwardResult};
use crate::params::PhmmParams;
use crate::pwm::Pwm;

/// Number of per-column symbols: A, C, G, T, gap.
pub const NUM_SYMBOLS: usize = 5;

/// The evidence vector a single read contributes to one genome column.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ColumnPosterior {
    /// `[z_A, z_C, z_G, z_T, z_gap]`; sums to 1 for covered columns of an
    /// alignable pair, and to 0 when the pair has zero total likelihood.
    pub probs: [f64; NUM_SYMBOLS],
}

impl ColumnPosterior {
    /// Total mass in this column (1 or 0, up to floating-point error).
    pub fn mass(&self) -> f64 {
        self.probs.iter().sum()
    }
}

/// A computed posterior alignment of one read (PWM) against one window.
#[derive(Debug, Clone)]
pub struct PosteriorAlignment {
    fwd: ForwardResult,
    bwd: BackwardResult,
    n: usize,
    m: usize,
}

impl PosteriorAlignment {
    /// Run forward and backward over a precomputed emission view,
    /// optionally restricted to the diagonal band of half-width `band`
    /// (see [`crate::forward`]). Posteriors outside the band are zero;
    /// within it they are exact for the banded model.
    pub fn from_emissions(
        emit: Emission<'_>,
        params: &PhmmParams,
        band: Option<usize>,
    ) -> PosteriorAlignment {
        let (n, m) = (emit.n(), emit.m());
        let fwd = forward(emit, params, band);
        let bwd = backward(emit, params, band);
        PosteriorAlignment { fwd, bwd, n, m }
    }

    /// Convenience: build the emission table from a PWM and window, then
    /// compute the unbanded posteriors.
    pub fn compute(
        pwm: &Pwm,
        window: &[Option<genome::alphabet::Base>],
        params: &PhmmParams,
    ) -> PosteriorAlignment {
        let emit = pwm.emission_table(window, params);
        PosteriorAlignment::from_emissions(emit.view(), params, None)
    }

    /// Read length `N`.
    pub fn read_len(&self) -> usize {
        self.n
    }

    /// Window length `M`.
    pub fn window_len(&self) -> usize {
        self.m
    }

    /// Total likelihood `P(x, y)` of the pair under the model — the
    /// mapping score used to weigh this window against the read's other
    /// candidate locations.
    pub fn total(&self) -> f64 {
        self.fwd.total
    }

    /// Posterior probability that read base `i` aligns to genome base `j`
    /// (1-based, as in the paper).
    pub fn match_posterior(&self, i: usize, j: usize) -> f64 {
        if self.fwd.total == 0.0 {
            return 0.0;
        }
        self.fwd.tables.m.get(i, j) * self.bwd.tables.m.get(i, j) / self.fwd.total
    }

    /// Posterior probability that read base `i` is inserted (aligned to a
    /// gap) between genome positions `j` and `j+1`.
    pub fn insertion_posterior(&self, i: usize, j: usize) -> f64 {
        if self.fwd.total == 0.0 {
            return 0.0;
        }
        self.fwd.tables.x.get(i, j) * self.bwd.tables.x.get(i, j) / self.fwd.total
    }

    /// Posterior probability that genome base `j` is deleted (aligned to a
    /// gap) after read position `i`.
    pub fn deletion_posterior(&self, i: usize, j: usize) -> f64 {
        if self.fwd.total == 0.0 {
            return 0.0;
        }
        self.fwd.tables.y.get(i, j) * self.bwd.tables.y.get(i, j) / self.fwd.total
    }

    /// The per-column evidence vectors `z` for all `M` genome columns
    /// (0-based output indexing: entry `j` is genome column `j+1` in paper
    /// notation).
    pub fn column_posteriors(&self, pwm: &Pwm) -> Vec<ColumnPosterior> {
        assert_eq!(pwm.len(), self.n, "PWM must match the aligned read");
        let mut cols = vec![ColumnPosterior::default(); self.m];
        if self.fwd.total == 0.0 {
            return cols;
        }
        // Rows are folded in descending i — the canonical summation order,
        // shared bit-for-bit with the fused streaming pass in
        // [`crate::scratch`], which generates backward rows bottom-up.
        for i in (1..=self.n).rev() {
            let r = pwm.row(i - 1);
            for (j, col) in cols.iter_mut().enumerate() {
                let pm = self.match_posterior(i, j + 1);
                if pm > 0.0 {
                    for (p, rk) in col.probs.iter_mut().zip(r) {
                        *p += pm * rk;
                    }
                }
                let pd = self.deletion_posterior(i, j + 1);
                col.probs[4] += pd;
            }
        }
        cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genome::alphabet::Base;
    use genome::read::SequencedRead;

    fn window(s: &str) -> Vec<Option<Base>> {
        s.bytes()
            .map(|c| Base::try_from_ascii(c).unwrap())
            .collect()
    }

    fn read(seq: &str, q: u8) -> SequencedRead {
        SequencedRead::with_uniform_quality("r", seq.parse().unwrap(), q)
    }

    #[test]
    fn perfect_match_concentrates_on_diagonal() {
        let params = PhmmParams::default();
        let r = read("ACGT", 40);
        let pwm = Pwm::from_read(&r);
        let post = PosteriorAlignment::compute(&pwm, &window("ACGT"), &params);
        for i in 1..=4 {
            assert!(
                post.match_posterior(i, i) > 0.99,
                "diagonal cell ({i},{i}) should dominate: {}",
                post.match_posterior(i, i)
            );
        }
        assert!(post.match_posterior(1, 2) < 0.01);
    }

    #[test]
    fn columns_sum_to_one() {
        let params = PhmmParams::default();
        let r = read("ACGTACGT", 25);
        let pwm = Pwm::from_read(&r);
        let post = PosteriorAlignment::compute(&pwm, &window("ACGAACGT"), &params);
        for (j, col) in post.column_posteriors(&pwm).iter().enumerate() {
            assert!(
                (col.mass() - 1.0).abs() < 1e-10,
                "column {j} mass {}",
                col.mass()
            );
            assert!(col.probs.iter().all(|&p| (0.0..=1.0 + 1e-12).contains(&p)));
        }
    }

    #[test]
    fn snp_column_reports_the_read_base() {
        // Genome has A where the (high-quality) read says G: the z vector
        // at that column should put nearly all its mass on G.
        let params = PhmmParams::default();
        let r = read("ACGTGTACA", 40);
        let pwm = Pwm::from_read(&r);
        //                 SNP here v (genome A, read G at read pos 5)
        let post = PosteriorAlignment::compute(&pwm, &window("ACGTATACA"), &params);
        let cols = post.column_posteriors(&pwm);
        let snp_col = &cols[4];
        assert!(
            snp_col.probs[Base::G.index()] > 0.95,
            "SNP column probs: {:?}",
            snp_col.probs
        );
        // Neighbouring columns still report the reference base.
        assert!(cols[3].probs[Base::T.index()] > 0.95);
        assert!(cols[5].probs[Base::T.index()] > 0.95);
    }

    #[test]
    fn deletion_shows_up_as_gap_mass() {
        // Read is missing one genome base: ACGTA vs ACGGTA (genome has an
        // extra G). Some column should carry noticeable gap mass.
        let params = PhmmParams::with_gap_rates(0.05, 0.5, 0.02);
        let r = read("ACGTA", 40);
        let pwm = Pwm::from_read(&r);
        let post = PosteriorAlignment::compute(&pwm, &window("ACGGTA"), &params);
        let cols = post.column_posteriors(&pwm);
        let total_gap: f64 = cols.iter().map(|c| c.probs[4]).sum();
        assert!(
            total_gap > 0.5,
            "expected ~1 column of gap mass, got {total_gap}"
        );
        // Every column still sums to 1.
        for col in &cols {
            assert!((col.mass() - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn insertion_posterior_row_budget() {
        // Row budget: each read base is matched or inserted, summing to 1.
        let params = PhmmParams::with_gap_rates(0.05, 0.5, 0.02);
        let r = read("ACGGTA", 30);
        let pwm = Pwm::from_read(&r);
        let post = PosteriorAlignment::compute(&pwm, &window("ACGTA"), &params);
        for i in 1..=6usize {
            let mut acc = 0.0;
            for j in 1..=5usize {
                acc += post.match_posterior(i, j) + post.insertion_posterior(i, j);
            }
            assert!((acc - 1.0).abs() < 1e-10, "row {i} budget {acc}");
        }
    }

    #[test]
    fn unalignable_pair_contributes_nothing() {
        // Zero-probability pair via impossible emissions.
        let params = PhmmParams::default();
        let emit = crate::emission::EmissionTable::zeros(3, 3);
        let post = PosteriorAlignment::from_emissions(emit.view(), &params, None);
        assert_eq!(post.total(), 0.0);
        let pwm = Pwm::certain(&[Base::A, Base::A, Base::A]);
        let cols = post.column_posteriors(&pwm);
        assert!(cols.iter().all(|c| c.mass() == 0.0));
        assert_eq!(post.match_posterior(1, 1), 0.0);
    }

    #[test]
    fn low_quality_read_spreads_column_mass() {
        let params = PhmmParams::default();
        let hi = read("ACGTA", 40);
        let lo = read("ACGTA", 5);
        let pwm_hi = Pwm::from_read(&hi);
        let pwm_lo = Pwm::from_read(&lo);
        let w = window("ACGTA");
        let cols_hi = PosteriorAlignment::compute(&pwm_hi, &w, &params).column_posteriors(&pwm_hi);
        let cols_lo = PosteriorAlignment::compute(&pwm_lo, &w, &params).column_posteriors(&pwm_lo);
        // Middle column: the high-quality read is more certain about G.
        assert!(cols_hi[2].probs[Base::G.index()] > cols_lo[2].probs[Base::G.index()]);
    }
}
