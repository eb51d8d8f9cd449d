//! Exhaustive alignment enumeration — the test oracle.
//!
//! For tiny sequences every legal state path of the Pair-HMM can be listed
//! explicitly and its probability multiplied out by hand. The total and the
//! per-cell marginals computed this way must agree with the
//! forward–backward dynamic programs to floating-point accuracy; this is
//! the strongest correctness evidence the crate has, because the oracle
//! shares no code with the DP implementations.
//!
//! Path semantics mirror `forward` exactly: every path starts in the match
//! state at `(1, 1)` (contributing `T_MM · p*(1,1)`), each subsequent step
//! pays its transition probability times its emission (`p*` in `M`, `q` in
//! a gap state), and the path ends upon reaching `(N, M)` in any state.

use crate::emission::Emission;
use crate::params::PhmmParams;

/// Marginal accumulators produced by enumeration.
#[derive(Debug, Clone)]
pub struct BruteForceResult {
    /// Total probability over all alignments.
    pub total: f64,
    /// Unnormalised mass ending read base `i` matched to genome base `j`;
    /// index `[i][j]`, 1-based with a zero row/column 0.
    pub match_mass: Vec<Vec<f64>>,
    /// Mass for read base `i` in the insertion state at column `j`.
    pub ins_mass: Vec<Vec<f64>>,
    /// Mass for genome base `j` in the deletion state at row `i`.
    pub del_mass: Vec<Vec<f64>>,
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    M,
    X,
    Y,
}

/// Enumerate every alignment of an `n × m` emission table. Exponential in
/// `n + m`: keep both below ~8.
pub fn enumerate(emit: Emission<'_>, params: &PhmmParams) -> BruteForceResult {
    let n = emit.n();
    let m = emit.m();
    assert!(n >= 1 && m >= 1);
    assert!(n + m <= 16, "brute force is exponential; keep n + m small");

    let mut res = BruteForceResult {
        total: 0.0,
        match_mass: vec![vec![0.0; m + 1]; n + 1],
        ins_mass: vec![vec![0.0; m + 1]; n + 1],
        del_mass: vec![vec![0.0; m + 1]; n + 1],
    };

    // The path so far is recorded as (i, j, state) triples so marginal mass
    // can be credited to every visited cell once the path completes.
    let mut visited: Vec<(usize, usize, State)> = Vec::new();

    // Start: M at (1, 1).
    let p0 = params.t_mm * emit.at(0, 0);
    if p0 > 0.0 {
        visited.push((1, 1, State::M));
        extend(1, 1, State::M, p0, emit, params, &mut visited, &mut res);
        visited.pop();
    }
    res
}

#[allow(clippy::too_many_arguments)]
fn extend(
    i: usize,
    j: usize,
    state: State,
    prob: f64,
    emit: Emission<'_>,
    params: &PhmmParams,
    visited: &mut Vec<(usize, usize, State)>,
    res: &mut BruteForceResult,
) {
    let n = emit.n();
    let m = emit.m();
    if i == n && j == m {
        // Path complete: credit its probability to every visited cell.
        res.total += prob;
        for &(vi, vj, vs) in visited.iter() {
            match vs {
                State::M => res.match_mass[vi][vj] += prob,
                State::X => res.ins_mass[vi][vj] += prob,
                State::Y => res.del_mass[vi][vj] += prob,
            }
        }
        return;
    }

    let trans = |from: State, to: State| -> f64 {
        match (from, to) {
            (State::M, State::M) => params.t_mm,
            (State::M, State::X) | (State::M, State::Y) => params.t_mg,
            (State::X, State::M) | (State::Y, State::M) => params.t_gm,
            (State::X, State::X) | (State::Y, State::Y) => params.t_gg,
            // X↔Y transitions are disallowed in the model.
            _ => 0.0,
        }
    };

    // Move to M(i+1, j+1).
    if i < n && j < m {
        let p = prob * trans(state, State::M) * emit.at(i, j); // emit.at(i, j) = p*(i+1, j+1)
        if p > 0.0 {
            visited.push((i + 1, j + 1, State::M));
            extend(i + 1, j + 1, State::M, p, emit, params, visited, res);
            visited.pop();
        }
    }
    // Move to X(i+1, j).
    if i < n {
        let p = prob * trans(state, State::X) * params.q;
        if p > 0.0 {
            visited.push((i + 1, j, State::X));
            extend(i + 1, j, State::X, p, emit, params, visited, res);
            visited.pop();
        }
    }
    // Move to Y(i, j+1).
    if j < m {
        let p = prob * trans(state, State::Y) * params.q;
        if p > 0.0 {
            visited.push((i, j + 1, State::Y));
            extend(i, j + 1, State::Y, p, emit, params, visited, res);
            visited.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backward::backward;
    use crate::emission::EmissionTable;
    use crate::forward::forward;

    fn varied_emit(n: usize, m: usize, seed: usize) -> EmissionTable {
        EmissionTable::from_fn(n, m, |i, j| {
            0.1 + 0.85 * (((i * 37 + j * 23 + seed) % 11) as f64 / 11.0)
        })
    }

    #[test]
    fn oracle_total_matches_forward() {
        let params = PhmmParams::with_gap_rates(0.06, 0.55, 0.04);
        for (n, m, seed) in [
            (1, 1, 0),
            (2, 2, 1),
            (3, 4, 2),
            (4, 3, 3),
            (5, 5, 4),
            (6, 4, 5),
        ] {
            let emit = varied_emit(n, m, seed);
            let oracle = enumerate(emit.view(), &params);
            let f = forward(emit.view(), &params, None);
            assert!(
                (oracle.total - f.total).abs() <= 1e-13 * oracle.total.max(1e-300),
                "{n}x{m}: oracle {} vs forward {}",
                oracle.total,
                f.total
            );
        }
    }

    #[test]
    fn oracle_marginals_match_forward_backward() {
        let params = PhmmParams::with_gap_rates(0.08, 0.5, 0.05);
        for (n, m, seed) in [(2, 3, 7), (3, 3, 8), (4, 4, 9), (5, 3, 10)] {
            let emit = varied_emit(n, m, seed);
            let oracle = enumerate(emit.view(), &params);
            let f = forward(emit.view(), &params, None);
            let b = backward(emit.view(), &params, None);
            for i in 1..=n {
                for j in 1..=m {
                    let fb_match = f.tables.m.get(i, j) * b.tables.m.get(i, j);
                    let fb_ins = f.tables.x.get(i, j) * b.tables.x.get(i, j);
                    let fb_del = f.tables.y.get(i, j) * b.tables.y.get(i, j);
                    let tol = 1e-12 * oracle.total.max(1e-300);
                    assert!(
                        (fb_match - oracle.match_mass[i][j]).abs() <= tol,
                        "match mass mismatch at ({i},{j}) for {n}x{m}"
                    );
                    assert!(
                        (fb_ins - oracle.ins_mass[i][j]).abs() <= tol,
                        "insertion mass mismatch at ({i},{j}) for {n}x{m}"
                    );
                    assert!(
                        (fb_del - oracle.del_mass[i][j]).abs() <= tol,
                        "deletion mass mismatch at ({i},{j}) for {n}x{m}"
                    );
                }
            }
        }
    }

    #[test]
    fn single_cell_has_one_path() {
        let params = PhmmParams::default();
        let emit = EmissionTable::from_rows(&[vec![0.7]]);
        let oracle = enumerate(emit.view(), &params);
        assert!((oracle.total - params.t_mm * 0.7).abs() < 1e-15);
        assert!((oracle.match_mass[1][1] - oracle.total).abs() < 1e-15);
    }

    #[test]
    #[should_panic]
    fn refuses_large_instances() {
        let emit = EmissionTable::from_fn(10, 10, |_, _| 0.5);
        let _ = enumerate(emit.view(), &PhmmParams::default());
    }
}
