//! Viterbi decoding: the single most probable alignment.
//!
//! The paper's whole point is that marginalising over all alignments beats
//! committing to one; Viterbi is kept as the comparison decoder (it is what
//! single-alignment mappers like MAQ effectively use) and for rendering
//! human-readable alignments in the examples.

use crate::emission::Emission;
use crate::matrix::Matrix;
use crate::params::PhmmParams;

/// One step of an alignment path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlignOp {
    /// Read base `i` aligned to genome base `j`.
    Match,
    /// Read base consumed against a genome gap (insertion in the read).
    InsRead,
    /// Genome base consumed against a read gap (deletion from the read).
    DelGenome,
}

/// A decoded best alignment.
#[derive(Debug, Clone, PartialEq)]
pub struct Alignment {
    /// Operations from the start of the pair to the end.
    pub ops: Vec<AlignOp>,
    /// Joint probability of the single best path.
    pub probability: f64,
}

impl Alignment {
    /// Number of match operations.
    pub fn matches(&self) -> usize {
        self.ops.iter().filter(|&&o| o == AlignOp::Match).count()
    }

    /// Number of gap operations (either direction).
    pub fn gaps(&self) -> usize {
        self.ops.len() - self.matches()
    }
}

const S_M: u8 = 0;
const S_X: u8 = 1;
const S_Y: u8 = 2;

/// Viterbi decode over an emission view `emit.at(i-1, j-1) = p*(i, j)`.
///
/// Same model and boundary conditions as [`crate::forward::forward`]: the
/// path starts in `M` at `(1, 1)` and ends anywhere at `(N, M)`.
pub fn viterbi(emit: Emission<'_>, params: &PhmmParams) -> Alignment {
    let n = emit.n();
    assert!(n >= 1, "read must be non-empty");
    let m = emit.m();
    assert!(m >= 1, "window must be non-empty");

    let &PhmmParams {
        t_mm,
        t_mg,
        t_gm,
        t_gg,
        q,
        ..
    } = params;

    let mut vm = Matrix::zeros(n + 1, m + 1);
    let mut vx = Matrix::zeros(n + 1, m + 1);
    let mut vy = Matrix::zeros(n + 1, m + 1);
    // Backpointers: which state the maximum came from.
    let mut pm = vec![0u8; (n + 1) * (m + 1)];
    let mut px = vec![0u8; (n + 1) * (m + 1)];
    let mut py = vec![0u8; (n + 1) * (m + 1)];
    let at = |i: usize, j: usize| i * (m + 1) + j;

    vm.set(0, 0, 1.0);

    for i in 1..=n {
        for j in 1..=m {
            // Match: best predecessor at (i-1, j-1).
            let cand_m = [
                t_mm * vm.get(i - 1, j - 1),
                t_gm * vx.get(i - 1, j - 1),
                t_gm * vy.get(i - 1, j - 1),
            ];
            let (best_state, best) = argmax3(cand_m);
            vm.set(i, j, emit.at(i - 1, j - 1) * best);
            pm[at(i, j)] = best_state;

            // Insertion: from (i-1, j), M or X.
            let (sx, bx) = if t_mg * vm.get(i - 1, j) >= t_gg * vx.get(i - 1, j) {
                (S_M, t_mg * vm.get(i - 1, j))
            } else {
                (S_X, t_gg * vx.get(i - 1, j))
            };
            vx.set(i, j, q * bx);
            px[at(i, j)] = sx;

            // Deletion: from (i, j-1), M or Y.
            let (sy, by) = if t_mg * vm.get(i, j - 1) >= t_gg * vy.get(i, j - 1) {
                (S_M, t_mg * vm.get(i, j - 1))
            } else {
                (S_Y, t_gg * vy.get(i, j - 1))
            };
            vy.set(i, j, q * by);
            py[at(i, j)] = sy;
        }
    }

    // Terminal: best of the three states at (N, M).
    let (mut state, probability) = argmax3([vm.get(n, m), vx.get(n, m), vy.get(n, m)]);

    // Traceback.
    let mut ops = Vec::with_capacity(n + m);
    let (mut i, mut j) = (n, m);
    while i > 0 || j > 0 {
        match state {
            S_M => {
                ops.push(AlignOp::Match);
                state = pm[at(i, j)];
                i -= 1;
                j -= 1;
            }
            S_X => {
                ops.push(AlignOp::InsRead);
                state = px[at(i, j)];
                i -= 1;
            }
            _ => {
                ops.push(AlignOp::DelGenome);
                state = py[at(i, j)];
                j -= 1;
            }
        }
        if i == 0 && j == 0 {
            break;
        }
    }
    ops.reverse();
    Alignment { ops, probability }
}

/// Index and value of the largest of three (ties favour the lower index,
/// i.e. the match state).
#[inline]
fn argmax3(v: [f64; 3]) -> (u8, f64) {
    let mut best = 0u8;
    for k in 1..3u8 {
        if v[k as usize] > v[best as usize] {
            best = k;
        }
    }
    (best, v[best as usize])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emission::EmissionTable;
    use crate::forward::forward;
    use crate::pwm::Pwm;
    use genome::alphabet::Base;
    use genome::read::SequencedRead;

    fn emit_for(read_s: &str, genome_s: &str, q: u8, params: &PhmmParams) -> EmissionTable {
        let r = SequencedRead::with_uniform_quality("r", read_s.parse().unwrap(), q);
        let w: Vec<Option<Base>> = genome_s
            .bytes()
            .map(|c| Base::try_from_ascii(c).unwrap())
            .collect();
        Pwm::from_read(&r).emission_table(&w, params)
    }

    #[test]
    fn equal_sequences_align_diagonally() {
        let params = PhmmParams::default();
        let emit = emit_for("ACGTACGT", "ACGTACGT", 40, &params);
        let a = viterbi(emit.view(), &params);
        assert_eq!(a.ops, vec![AlignOp::Match; 8]);
        assert_eq!(a.matches(), 8);
        assert_eq!(a.gaps(), 0);
    }

    #[test]
    fn deletion_is_decoded() {
        let params = PhmmParams::with_gap_rates(0.05, 0.5, 0.02);
        let emit = emit_for("ACGTA", "ACGGTA", 40, &params);
        let a = viterbi(emit.view(), &params);
        assert_eq!(a.matches(), 5);
        assert_eq!(
            a.ops.iter().filter(|&&o| o == AlignOp::DelGenome).count(),
            1
        );
    }

    #[test]
    fn insertion_is_decoded() {
        let params = PhmmParams::with_gap_rates(0.05, 0.5, 0.02);
        let emit = emit_for("ACGGTA", "ACGTA", 40, &params);
        let a = viterbi(emit.view(), &params);
        assert_eq!(a.matches(), 5);
        assert_eq!(a.ops.iter().filter(|&&o| o == AlignOp::InsRead).count(), 1);
    }

    #[test]
    fn ops_consume_both_sequences_exactly() {
        let params = PhmmParams::with_gap_rates(0.05, 0.5, 0.02);
        for (r, g) in [("ACGT", "ACGT"), ("ACGTT", "ACG"), ("AC", "ACGTT")] {
            let emit = emit_for(r, g, 30, &params);
            let a = viterbi(emit.view(), &params);
            let consumed_read: usize = a.ops.iter().filter(|&&o| o != AlignOp::DelGenome).count();
            let consumed_genome: usize = a.ops.iter().filter(|&&o| o != AlignOp::InsRead).count();
            assert_eq!(consumed_read, r.len());
            assert_eq!(consumed_genome, g.len());
        }
    }

    #[test]
    fn viterbi_never_exceeds_forward_total() {
        // The best single path is a subset of the total probability mass.
        let params = PhmmParams::default();
        for (r, g) in [("ACGT", "ACCT"), ("AAAA", "TTTT"), ("ACGTACG", "ACGTTCG")] {
            let emit = emit_for(r, g, 25, &params);
            let v = viterbi(emit.view(), &params);
            let f = forward(emit.view(), &params, None);
            assert!(
                v.probability <= f.total * (1.0 + 1e-12),
                "viterbi {} > total {}",
                v.probability,
                f.total
            );
            assert!(v.probability > 0.0);
        }
    }
}
