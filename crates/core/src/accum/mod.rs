//! Genome-length probability accumulators (paper Section VI-B).
//!
//! Every genome position accumulates a five-component evidence vector
//! `(z_A, z_C, z_G, z_T, z_gap)` summed over all reads. The paper ships
//! three storage layouts trading memory for fidelity:
//!
//! | mode       | per-base storage              | behaviour |
//! |------------|-------------------------------|-----------|
//! | `NORM`     | five `f32` (20 B)             | exact (up to f32) |
//! | `CHARDISC` | one `f32` total + five bytes (9 B) | proportions quantised to 1/255; increments below the quantum vanish once totals grow |
//! | `CENTDISC` | one `f32` total + one codeword byte (5 B) | distribution snapped to the nearest of 256 biologically-weighted centroids after every update; merges via a precomputed codeword-sum table |
//!
//! The trait's `Wire` associated type is the flat representation the
//! message-passing drivers ship between ranks; `merge_wire` implements the
//! paper's MPI reduction phase for each layout (including CENTDISC's
//! table-lookup merge, whose equal-weight approximation is part of why its
//! accuracy collapses in Table III).

mod centdisc;
mod chardisc;
mod fixed;
mod norm;

pub use centdisc::{CentDiscAccumulator, Codebook};
pub use chardisc::CharDiscAccumulator;
pub use fixed::FixedAccumulator;
pub use norm::NormAccumulator;

use mpisim::WireSize;

/// Number of tracked symbols per genome position (A, C, G, T, gap).
pub const NUM_SYMBOLS: usize = 5;

/// A 64-bit avalanche mix (the SplitMix64 finalizer): every input bit
/// flips each output bit with probability ≈ ½, so XOR-combining hashes of
/// distinct positions cannot systematically cancel.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash of one genome position's decoded evidence vector. The f64 *bit
/// patterns* feed the hash, so two equal digests mean bit-identical
/// decoded state, not merely approximately equal state.
#[inline]
pub fn position_hash(pos: u64, counts: &[f64; NUM_SYMBOLS]) -> u64 {
    let mut h = mix64(pos ^ 0x243F_6A88_85A3_08D3);
    for v in counts {
        h = mix64(h ^ v.to_bits());
    }
    h
}

/// A genome-length accumulator of per-position evidence vectors.
pub trait GenomeAccumulator: Send + Sized {
    /// Flat representation shipped between ranks by the MPI drivers.
    type Wire: WireSize + Clone + Send + 'static;

    /// Create an all-zero accumulator over `len` positions.
    fn new(len: usize) -> Self;

    /// Number of genome positions covered.
    fn len(&self) -> usize;

    /// True for a zero-length accumulator.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Add an evidence vector at one position. Components must be
    /// non-negative.
    fn add(&mut self, pos: usize, delta: &[f64; NUM_SYMBOLS]);

    /// The accumulated (decoded) counts at a position.
    fn counts(&self, pos: usize) -> [f64; NUM_SYMBOLS];

    /// Total accumulated mass at a position.
    fn total(&self, pos: usize) -> f64 {
        self.counts(pos).iter().sum()
    }

    /// Export to the wire representation.
    fn to_wire(&self) -> Self::Wire;

    /// Fold another accumulator's wire export into this one (the MPI
    /// reduction step). Implementations may be lossy where the paper's are
    /// (CHARDISC re-quantises; CENTDISC uses the codeword-sum table).
    fn merge_wire(&mut self, wire: &Self::Wire);

    /// Heap bytes used by this accumulator (for Table II / III reporting).
    fn heap_bytes(&self) -> usize;

    /// Order-independent fingerprint of the decoded state: the XOR over
    /// every position of [`position_hash`] at global position
    /// `offset + pos`. Equal digests mean bit-identical decoded counts at
    /// every position. Because XOR commutes, digests of disjoint shards
    /// (each passed its global start as `offset`) XOR together into the
    /// digest of the full-genome accumulator — which is how the
    /// genome-split driver reports a digest comparable to the serial one.
    fn digest_with_offset(&self, offset: usize) -> u64 {
        let mut h = 0u64;
        for pos in 0..self.len() {
            h ^= position_hash((offset + pos) as u64, &self.counts(pos));
        }
        h
    }

    /// [`GenomeAccumulator::digest_with_offset`] at offset 0.
    fn digest(&self) -> u64 {
        self.digest_with_offset(0)
    }

    /// Convenience: merge a sibling accumulator via its wire form.
    fn merge_from(&mut self, other: &Self) {
        self.merge_wire(&other.to_wire());
    }
}

/// Which accumulator layout to run (paper Table II/III row names).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AccumulatorMode {
    /// Five `f32` per base — the reference layout.
    #[default]
    Norm,
    /// Nucleotide-byte discretization.
    CharDisc,
    /// Centroid discretization.
    CentDisc,
    /// Fixed-point `u64` quanta — integer adds commute, so every parallel
    /// decomposition is bit-identical to serial (the conformance domain).
    Fixed,
}

impl AccumulatorMode {
    /// Paper row name.
    pub fn name(self) -> &'static str {
        match self {
            AccumulatorMode::Norm => "NORM",
            AccumulatorMode::CharDisc => "CHARDISC",
            AccumulatorMode::CentDisc => "CENTDISC",
            AccumulatorMode::Fixed => "FIXED",
        }
    }

    /// Accumulator bytes per genome base of this layout (the Table II
    /// model; excludes genome and index storage).
    pub fn bytes_per_base(self) -> usize {
        match self {
            AccumulatorMode::Norm => NUM_SYMBOLS * std::mem::size_of::<f32>(),
            AccumulatorMode::CharDisc => std::mem::size_of::<f32>() + NUM_SYMBOLS,
            AccumulatorMode::CentDisc => std::mem::size_of::<f32>() + 1,
            AccumulatorMode::Fixed => NUM_SYMBOLS * std::mem::size_of::<u64>(),
        }
    }
}

/// A computation generic over the accumulator layout.
/// [`AccumulatorMode::dispatch`] runs it with the concrete type a mode
/// names, so drivers write their body once, generically, and never match
/// on the mode themselves.
pub trait WithAccumulator {
    /// What the computation returns.
    type Output;

    /// Run with accumulator type `A`.
    fn run<A: GenomeAccumulator>(self) -> Self::Output;
}

impl AccumulatorMode {
    /// Run `work` with this mode's accumulator type — the one place a
    /// mode turns into a type.
    pub fn dispatch<W: WithAccumulator>(self, work: W) -> W::Output {
        match self {
            AccumulatorMode::Norm => work.run::<NormAccumulator>(),
            AccumulatorMode::CharDisc => work.run::<CharDiscAccumulator>(),
            AccumulatorMode::CentDisc => work.run::<CentDiscAccumulator>(),
            AccumulatorMode::Fixed => work.run::<FixedAccumulator>(),
        }
    }
}

impl std::fmt::Display for AccumulatorMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;

    /// Shared conformance suite run against every accumulator type.
    /// `purity` is the minimum fraction a pure input signal must retain
    /// after decoding (CENTDISC's codebook caps peaks at 0.84 by design).
    pub fn conformance<A: GenomeAccumulator>(tolerance: f64, purity: f64) {
        // Empty accumulator.
        let a = A::new(10);
        assert_eq!(a.len(), 10);
        assert!(!a.is_empty());
        for pos in 0..10 {
            assert_eq!(a.counts(pos), [0.0; 5]);
        }

        // Single add is recovered within tolerance.
        let mut a = A::new(4);
        a.add(2, &[0.9, 0.05, 0.03, 0.02, 0.0]);
        let c = a.counts(2);
        assert!((c.iter().sum::<f64>() - 1.0).abs() <= tolerance);
        assert!(c[0] > 0.8, "dominant component survives: {c:?}");
        assert_eq!(a.counts(1), [0.0; 5], "other positions untouched");

        // Repeated adds accumulate mass.
        let mut a = A::new(2);
        for _ in 0..10 {
            a.add(0, &[1.0, 0.0, 0.0, 0.0, 0.0]);
        }
        let c = a.counts(0);
        assert!((a.total(0) - 10.0).abs() <= 10.0 * tolerance + 1e-6);
        assert!(c[0] / a.total(0) >= purity, "pure signal stays pure: {c:?}");

        // Wire merge ≈ pooled adds for identical inputs.
        let mut x = A::new(3);
        let mut y = A::new(3);
        x.add(1, &[0.5, 0.5, 0.0, 0.0, 0.0]);
        y.add(1, &[0.5, 0.5, 0.0, 0.0, 0.0]);
        let mut merged = A::new(3);
        merged.merge_wire(&x.to_wire());
        merged.merge_wire(&y.to_wire());
        assert!((merged.total(1) - 2.0).abs() <= 2.0 * tolerance + 1e-6);
        let c = merged.counts(1);
        assert!(
            (c[0] - c[1]).abs() <= 2.0 * tolerance + 1e-6,
            "symmetric mix preserved: {c:?}"
        );

        // Heap accounting is non-trivial.
        assert!(A::new(1000).heap_bytes() > 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_names_and_sizes() {
        assert_eq!(AccumulatorMode::Norm.name(), "NORM");
        assert_eq!(AccumulatorMode::Norm.bytes_per_base(), 20);
        assert_eq!(AccumulatorMode::CharDisc.bytes_per_base(), 9);
        assert_eq!(AccumulatorMode::CentDisc.bytes_per_base(), 5);
        assert_eq!(AccumulatorMode::Fixed.bytes_per_base(), 40);
        assert_eq!(AccumulatorMode::Fixed.name(), "FIXED");
        assert_eq!(AccumulatorMode::CentDisc.to_string(), "CENTDISC");
    }
}
