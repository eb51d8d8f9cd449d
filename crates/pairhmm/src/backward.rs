//! The backward dynamic program (paper Section VI Step 2, "Backward
//! Algorithm").
//!
//! `b_k(i, j)` is the probability of generating the *suffixes*
//! `x_{i+1..N}`, `y_{j+1..M}` given the alignment is currently in state `k`
//! at `(i, j)`. Initialisation per the paper: `b_M(N, M) = b_GX(N, M) =
//! b_GY(N, M) = 1` (any state may end the alignment), with zero beyond the
//! last row/column. Recursion (paper, verbatim):
//!
//! ```text
//! b_M(i,j)  = p*(i+1,j+1)·T_MM·b_M(i+1,j+1) + q·T_MG·[b_GX(i+1,j) + b_GY(i,j+1)]
//! b_GX(i,j) = p*(i+1,j+1)·T_GM·b_M(i+1,j+1) + q·T_GG·b_GX(i+1,j)
//! b_GY(i,j) = p*(i+1,j+1)·T_GM·b_M(i+1,j+1) + q·T_GG·b_GY(i,j+1)
//! ```
//!
//! Cell arithmetic lives in [`crate::kernel::backward_planes`]; this
//! module materialises the full tables (needed by the cell-level posterior
//! accessors and the test oracles — the mapping hot path uses the fused
//! streaming pass in [`crate::scratch`] instead and never builds them).

use crate::emission::Emission;
use crate::forward::DpTables;
use crate::kernel;
use crate::params::PhmmParams;

/// Result of the backward pass.
#[derive(Debug, Clone)]
pub struct BackwardResult {
    /// The filled tables (same `(N+1) × (M+1)` shape as the forward pass;
    /// row/column 0 is filled too but only cells with `i, j ≥ 1` are
    /// meaningful for marginals).
    pub tables: DpTables,
    /// Total likelihood recovered from the backward direction: since every
    /// alignment starts by matching `x_1 : y_1`,
    /// `total = p*(1,1) · T_MM · b_M(1,1)`.
    pub total: f64,
}

/// Run the backward algorithm over the same emission view and band as
/// [`crate::forward::forward`]; outside-band cells stay zero.
pub fn backward(emit: Emission<'_>, params: &PhmmParams, band: Option<usize>) -> BackwardResult {
    let (n, m) = (emit.n(), emit.m());
    let mut t = DpTables::zeros(n, m);
    let total = kernel::backward_planes(
        emit,
        params,
        t.m.as_mut_slice(),
        t.x.as_mut_slice(),
        t.y.as_mut_slice(),
        band.map(|w| kernel::diagonal_bounds(n, m, w)),
    );
    BackwardResult { tables: t, total }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emission::EmissionTable;
    use crate::forward::forward;
    use crate::pwm::Pwm;
    use genome::alphabet::Base;
    use genome::read::SequencedRead;

    fn uniform_emit(n: usize, m: usize, p: f64) -> EmissionTable {
        EmissionTable::from_fn(n, m, |_, _| p)
    }

    fn varied_emit(n: usize, m: usize) -> EmissionTable {
        // Deterministic but non-uniform emissions in (0, 1).
        EmissionTable::from_fn(n, m, |i, j| {
            0.15 + 0.8 * (((i * 31 + j * 17 + 7) % 13) as f64 / 13.0)
        })
    }

    #[test]
    fn forward_and_backward_totals_agree_uniform() {
        let params = PhmmParams::default();
        for (n, m) in [(1, 1), (2, 3), (5, 5), (8, 6), (12, 14)] {
            let emit = uniform_emit(n, m, 0.85);
            let f = forward(emit.view(), &params, None).total;
            let b = backward(emit.view(), &params, None).total;
            assert!(
                (f - b).abs() <= 1e-12 * f.max(1e-300),
                "totals disagree for {n}x{m}: fwd {f} bwd {b}"
            );
        }
    }

    #[test]
    fn forward_and_backward_totals_agree_varied() {
        let params = PhmmParams::with_gap_rates(0.05, 0.5, 0.03);
        for (n, m) in [(3, 3), (6, 9), (10, 10), (17, 13)] {
            let emit = varied_emit(n, m);
            let f = forward(emit.view(), &params, None).total;
            let b = backward(emit.view(), &params, None).total;
            assert!(
                (f - b).abs() <= 1e-12 * f.max(1e-300),
                "totals disagree for {n}x{m}: fwd {f} bwd {b}"
            );
        }
    }

    #[test]
    fn row_flow_invariant() {
        // Every alignment consumes read base i in exactly one M or G_X
        // state, so for each fixed i:
        //   Σ_j [ f_M·b_M + f_X·b_X ](i, j) = total.
        let params = PhmmParams::default();
        let emit = varied_emit(7, 9);
        let f = forward(emit.view(), &params, None);
        let b = backward(emit.view(), &params, None);
        for i in 1..=7usize {
            let mut acc = 0.0;
            for j in 1..=9usize {
                acc += f.tables.m.get(i, j) * b.tables.m.get(i, j)
                    + f.tables.x.get(i, j) * b.tables.x.get(i, j);
            }
            assert!(
                (acc - f.total).abs() <= 1e-12 * f.total,
                "row {i}: flow {acc} != total {}",
                f.total
            );
        }
    }

    #[test]
    fn column_flow_invariant() {
        // Symmetrically, genome base j is consumed in exactly one M or G_Y
        // state: Σ_i [ f_M·b_M + f_Y·b_Y ](i, j) = total for each j.
        let params = PhmmParams::with_gap_rates(0.04, 0.6, 0.02);
        let emit = varied_emit(9, 6);
        let f = forward(emit.view(), &params, None);
        let b = backward(emit.view(), &params, None);
        for j in 1..=6usize {
            let mut acc = 0.0;
            for i in 1..=9usize {
                acc += f.tables.m.get(i, j) * b.tables.m.get(i, j)
                    + f.tables.y.get(i, j) * b.tables.y.get(i, j);
            }
            assert!(
                (acc - f.total).abs() <= 1e-12 * f.total,
                "column {j}: flow {acc} != total {}",
                f.total
            );
        }
    }

    #[test]
    fn terminal_cell_is_one() {
        let emit = uniform_emit(3, 4, 0.5);
        let b = backward(emit.view(), &PhmmParams::default(), None);
        assert_eq!(b.tables.m.get(3, 4), 1.0);
        assert_eq!(b.tables.x.get(3, 4), 1.0);
        assert_eq!(b.tables.y.get(3, 4), 1.0);
    }

    // --- Banded forward/backward (`band = Some(w)`).

    fn emit_for(read_s: &str, genome_s: &str, params: &PhmmParams) -> EmissionTable {
        let r = SequencedRead::with_uniform_quality("r", read_s.parse().unwrap(), 30);
        let w: Vec<Option<Base>> = genome_s
            .bytes()
            .map(|c| Base::try_from_ascii(c).unwrap())
            .collect();
        Pwm::from_read(&r).emission_table(&w, params)
    }

    #[test]
    fn wide_band_equals_full_dp() {
        let params = PhmmParams::with_gap_rates(0.05, 0.5, 0.03);
        let emit = emit_for("ACGTACGTAC", "ACGTTCGTACGT", &params);
        let full = forward(emit.view(), &params, None);
        let banded = forward(emit.view(), &params, Some(32));
        assert!((full.total - banded.total).abs() <= 1e-14 * full.total);
        let full_b = backward(emit.view(), &params, None);
        let banded_b = backward(emit.view(), &params, Some(32));
        assert!((full_b.total - banded_b.total).abs() <= 1e-14 * full_b.total);
    }

    #[test]
    fn banded_is_lower_bound_and_converges() {
        let params = PhmmParams::with_gap_rates(0.05, 0.5, 0.03);
        let emit = emit_for("ACGTACGTACGTACGT", "ACGTACGGACGTACGT", &params);
        let full = forward(emit.view(), &params, None).total;
        let mut last = 0.0;
        for w in [0usize, 1, 2, 4, 8, 16] {
            let b = forward(emit.view(), &params, Some(w)).total;
            assert!(
                b <= full * (1.0 + 1e-12),
                "band {w}: {b} exceeds full {full}"
            );
            assert!(b >= last * (1.0 - 1e-12), "band {w} not monotone");
            last = b;
        }
        assert!((last - full).abs() <= 1e-12 * full);
    }

    #[test]
    fn narrow_band_captures_near_diagonal_mass() {
        // For a clean diagonal alignment even w = 1 captures essentially
        // everything.
        let params = PhmmParams::default();
        let emit = emit_for("ACGTACGTAC", "ACGTACGTAC", &params);
        let full = forward(emit.view(), &params, None).total;
        let banded = forward(emit.view(), &params, Some(1)).total;
        assert!(banded / full > 0.999, "ratio {}", banded / full);
    }

    #[test]
    fn banded_totals_agree_in_both_directions() {
        let params = PhmmParams::with_gap_rates(0.04, 0.6, 0.02);
        let emit = emit_for("ACGGTACTAC", "ACGTACGTACAC", &params);
        for w in [1usize, 2, 4] {
            let f = forward(emit.view(), &params, Some(w)).total;
            let b = backward(emit.view(), &params, Some(w)).total;
            assert!(
                (f - b).abs() <= 1e-12 * f.max(1e-300),
                "band {w}: fwd {f} vs bwd {b}"
            );
        }
    }

    #[test]
    fn length_difference_is_absorbed_by_delta() {
        // Window much longer than read: the band must still reach (N, M).
        let params = PhmmParams::with_gap_rates(0.05, 0.5, 0.03);
        let emit = emit_for("ACGT", "ACGTACGT", &params);
        let banded = forward(emit.view(), &params, Some(0));
        assert!(banded.total > 0.0);
    }

    #[test]
    fn full_band_matches_unbanded_bitwise() {
        // A band covering the whole rectangle must be the *same* program:
        // every cell identical to the last bit, not merely close.
        let params = PhmmParams::with_gap_rates(0.05, 0.5, 0.03);
        let emit = emit_for("ACGGTACTAC", "ACGTACGTACAC", &params);
        let full = forward(emit.view(), &params, None);
        let banded = forward(emit.view(), &params, Some(64));
        assert_eq!(full.total.to_bits(), banded.total.to_bits());
        for i in 0..=emit.n() {
            for j in 0..=emit.m() {
                assert_eq!(
                    full.tables.m.get(i, j).to_bits(),
                    banded.tables.m.get(i, j).to_bits(),
                    "cell ({i},{j})"
                );
            }
        }
    }
}
