//! Position-weight matrices and the blended emission `p*(i, j)`.
//!
//! Paper, Section VI Step 2: "the probability from each nucleotide obtained
//! from base quality scores is used to create a position-weight matrix for
//! each read", and the match emission becomes
//!
//! ```text
//! p*(i, j) = r_iA·p_{A,yj} + r_iC·p_{C,yj} + r_iG·p_{G,yj} + r_iT·p_{T,yj}
//! ```
//!
//! i.e. the read base is integrated out against its quality-derived
//! distribution. A genome `N` is treated as a uniformly uncertain base.

use crate::emission::EmissionTable;
use crate::params::PhmmParams;
use genome::alphabet::Base;
use genome::read::SequencedRead;

/// A read's position-weight matrix: one probability row `r_i` per read
/// position, each summing to 1 over A, C, G, T.
#[derive(Debug, Clone, PartialEq)]
pub struct Pwm {
    rows: Vec<[f64; 4]>,
}

impl Pwm {
    /// Build from a read's called bases and Phred qualities.
    pub fn from_read(read: &SequencedRead) -> Pwm {
        Pwm {
            rows: read.base_prob_rows(),
        }
    }

    /// Build directly from probability rows. Panics when a row is not a
    /// probability distribution (within 1e-6).
    pub fn from_rows(rows: Vec<[f64; 4]>) -> Pwm {
        for (i, r) in rows.iter().enumerate() {
            let s: f64 = r.iter().sum();
            assert!(
                (s - 1.0).abs() < 1e-6 && r.iter().all(|&p| p >= 0.0),
                "row {i} is not a probability distribution: {r:?}"
            );
        }
        Pwm { rows }
    }

    /// A PWM for a perfectly certain sequence (each row a point mass).
    pub fn certain(bases: &[Base]) -> Pwm {
        Pwm {
            rows: bases
                .iter()
                .map(|b| {
                    let mut r = [0.0; 4];
                    r[b.index()] = 1.0;
                    r
                })
                .collect(),
        }
    }

    /// Read length.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True for an empty PWM.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The probability row for read position `i` (0-based).
    #[inline]
    pub fn row(&self, i: usize) -> &[f64; 4] {
        &self.rows[i]
    }

    /// The blended match emission `p*(i, j)` for 0-based read position `i`
    /// against genome base `y` (`None` = `N`, treated as uniform).
    #[inline]
    pub fn blended_emission(&self, i: usize, y: Option<Base>, params: &PhmmParams) -> f64 {
        let r = &self.rows[i];
        match y {
            Some(y) => {
                let yi = y.index();
                let mut acc = 0.0;
                for (k, &rk) in r.iter().enumerate() {
                    acc += rk * params.emission(k, yi);
                }
                acc
            }
            // Against an unknown genome base every read base is equally
            // compatible; each emission row sums to 1, so the blend is 1/4.
            None => 0.25,
        }
    }

    /// Fill `out` with one blend row per read position: entry `yi` is
    /// `p*(i, ·)` against concrete genome base `yi`. Clears and refills
    /// `out`; when its capacity already suffices this performs no
    /// allocation. The inner `k` sum runs in the same ascending order as
    /// [`blended_emission`](Self::blended_emission), so the values are
    /// bit-identical; an emission cell is then a lookup
    /// ([`emission_cell`]). Computed once per oriented read, it serves
    /// every candidate window of that read.
    pub fn fill_blend(&self, params: &PhmmParams, out: &mut Vec<[f64; 4]>) {
        out.clear();
        out.extend(self.rows.iter().map(|r| {
            std::array::from_fn(|yi| {
                let mut acc = 0.0;
                for (k, &rk) in r.iter().enumerate() {
                    acc += rk * params.emission(k, yi);
                }
                acc
            })
        }));
    }

    /// Precompute `p*(i, j)` for all read positions against a genome
    /// window as an owned flat table.
    pub fn emission_table(&self, window: &[Option<Base>], params: &PhmmParams) -> EmissionTable {
        let mut blend = Vec::new();
        self.fill_blend(params, &mut blend);
        EmissionTable::from_fn(self.len(), window.len(), |i, j| {
            emission_cell(&blend[i], window[j])
        })
    }
}

/// The emission `p*(i, j)` from read row `i`'s blend row (see
/// [`Pwm::fill_blend`]) and genome base `y`.
#[inline]
pub fn emission_cell(blend: &[f64; 4], y: Option<Base>) -> f64 {
    match y {
        Some(y) => blend[y.index()],
        // Against an unknown genome base every read base is equally
        // compatible; rows sum to 1, so the blend is 1/4.
        None => 0.25,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn certain_pwm_reduces_to_plain_emission() {
        let p = PhmmParams::default();
        let pwm = Pwm::certain(&[Base::A, Base::G]);
        assert!((pwm.blended_emission(0, Some(Base::A), &p) - p.emission(0, 0)).abs() < 1e-15);
        assert!((pwm.blended_emission(1, Some(Base::T), &p) - p.emission(2, 3)).abs() < 1e-15);
    }

    #[test]
    fn from_read_uses_qualities() {
        let p = PhmmParams::default();
        let read = SequencedRead::new("r", "A".parse().unwrap(), vec![10]).unwrap();
        let pwm = Pwm::from_read(&read);
        // r = (0.9, 0.0333.., 0.0333.., 0.0333..)
        let expected = 0.9 * p.emission(0, 0) + (0.1 / 3.0) * p.emission(1, 0) * 3.0;
        assert!((pwm.blended_emission(0, Some(Base::A), &p) - expected).abs() < 1e-12);
    }

    #[test]
    fn low_quality_blurs_the_emission() {
        let p = PhmmParams::default();
        let hi = SequencedRead::new("hi", "A".parse().unwrap(), vec![40]).unwrap();
        let lo = SequencedRead::new("lo", "A".parse().unwrap(), vec![3]).unwrap();
        let e_hi = Pwm::from_read(&hi).blended_emission(0, Some(Base::A), &p);
        let e_lo = Pwm::from_read(&lo).blended_emission(0, Some(Base::A), &p);
        assert!(e_hi > e_lo, "high quality should match more confidently");
        // And against the *wrong* base the ordering flips.
        let w_hi = Pwm::from_read(&hi).blended_emission(0, Some(Base::C), &p);
        let w_lo = Pwm::from_read(&lo).blended_emission(0, Some(Base::C), &p);
        assert!(w_lo > w_hi);
    }

    #[test]
    fn genome_n_is_uniform() {
        let p = PhmmParams::default();
        let pwm = Pwm::certain(&[Base::C]);
        assert_eq!(pwm.blended_emission(0, None, &p), 0.25);
    }

    #[test]
    fn emission_table_shape() {
        let p = PhmmParams::default();
        let pwm = Pwm::certain(&[Base::A, Base::C, Base::G]);
        let window = [Some(Base::A), None, Some(Base::T), Some(Base::G)];
        let t = pwm.emission_table(&window, &p);
        assert_eq!(t.n(), 3);
        assert_eq!(t.m(), 4);
        assert_eq!(t.at(1, 1), 0.25);
        // Read position 2 is a certain G, window position 3 is G: match.
        assert!((t.at(2, 3) - p.emission(2, 2)).abs() < 1e-15);
        // Read position 2 (G) vs window position 2 (T): mismatch.
        assert!((t.at(2, 2) - p.emission(2, 3)).abs() < 1e-15);
    }

    #[test]
    fn emission_table_matches_blended_emission() {
        let p = PhmmParams::default();
        let read = SequencedRead::new("r", "ACGT".parse().unwrap(), vec![38, 12, 25, 7]).unwrap();
        let pwm = Pwm::from_read(&read);
        let window = [
            Some(Base::T),
            None,
            Some(Base::A),
            Some(Base::G),
            Some(Base::C),
        ];
        let t = pwm.emission_table(&window, &p);
        for i in 0..pwm.len() {
            for (j, &y) in window.iter().enumerate() {
                assert_eq!(
                    t.at(i, j).to_bits(),
                    pwm.blended_emission(i, y, &p).to_bits(),
                    "cell ({i},{j})"
                );
            }
        }
    }

    #[test]
    #[should_panic]
    fn from_rows_rejects_non_distribution() {
        let _ = Pwm::from_rows(vec![[0.5, 0.5, 0.5, 0.0]]);
    }

    #[test]
    fn n_read_base_blends_uniformly() {
        let p = PhmmParams::default();
        let read = SequencedRead::new("r", "N".parse().unwrap(), vec![0]).unwrap();
        let pwm = Pwm::from_read(&read);
        // Uniform read row against any genome base: 0.25·(1−μ) + 0.75·(μ/3)·… = 0.25.
        assert!((pwm.blended_emission(0, Some(Base::G), &p) - 0.25).abs() < 1e-12);
    }
}
