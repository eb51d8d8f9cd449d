//! The call-wire codec the distributed drivers ship SNP calls with.
//!
//! The drivers themselves live in the `engine` crate, one `Driver` per
//! execution mode; each MPI-style driver encodes its rank's calls with
//! [`encode_calls`] and decodes them at rank 0 with [`decode_calls`].

use crate::snpcall::SnpCall;
use genome::alphabet::Base;

/// Flat encoding of SNP calls for rank-to-rank shipping: each call is
/// `CALL_STRIDE` f64 values.
const CALL_STRIDE: usize = 11;

/// A call wire whose length is not a multiple of [`CALL_STRIDE`] —
/// truncated or corrupted in transit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallWireError {
    /// Length of the rejected wire.
    pub len: usize,
}

impl std::fmt::Display for CallWireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "corrupt call wire: length {} is not a multiple of {CALL_STRIDE}",
            self.len
        )
    }
}

impl std::error::Error for CallWireError {}

/// Encode calls into a flat `Vec<f64>` wire form.
pub fn encode_calls(calls: &[SnpCall]) -> Vec<f64> {
    let mut out = Vec::with_capacity(calls.len() * CALL_STRIDE);
    for c in calls {
        out.push(c.pos as f64);
        out.push(c.reference.index() as f64);
        out.push(c.allele.index() as f64);
        out.push(c.second_allele.map_or(-1.0, |b| b.index() as f64));
        out.push(c.statistic);
        out.push(c.p_adjusted);
        out.extend_from_slice(&c.counts);
    }
    out
}

/// Decode the wire form produced by [`encode_calls`]. Rejects wires
/// whose length is not a whole number of calls rather than silently
/// dropping a tail or panicking inside a driver.
pub fn decode_calls(wire: &[f64]) -> Result<Vec<SnpCall>, CallWireError> {
    if !wire.len().is_multiple_of(CALL_STRIDE) {
        return Err(CallWireError { len: wire.len() });
    }
    Ok(wire
        .chunks_exact(CALL_STRIDE)
        .map(|c| {
            let mut counts = [0.0; 5];
            counts.copy_from_slice(&c[6..11]);
            SnpCall {
                pos: c[0] as usize,
                reference: Base::from_index(c[1] as usize),
                allele: Base::from_index(c[2] as usize),
                second_allele: (c[3] >= 0.0).then(|| Base::from_index(c[3] as usize)),
                statistic: c[4],
                p_adjusted: c[5],
                counts,
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_wire_round_trip() {
        let calls = vec![
            SnpCall {
                pos: 1234,
                reference: Base::A,
                allele: Base::G,
                second_allele: None,
                statistic: 42.5,
                p_adjusted: 1e-9,
                counts: [0.5, 0.0, 11.0, 0.25, 0.0],
            },
            SnpCall {
                pos: 99,
                reference: Base::T,
                allele: Base::C,
                second_allele: Some(Base::T),
                statistic: 8.0,
                p_adjusted: 0.02,
                counts: [0.0, 6.0, 0.0, 5.5, 0.1],
            },
        ];
        let wire = encode_calls(&calls);
        assert_eq!(wire.len(), 2 * CALL_STRIDE);
        assert_eq!(decode_calls(&wire).unwrap(), calls);
    }

    #[test]
    fn empty_wire() {
        assert!(decode_calls(&encode_calls(&[])).unwrap().is_empty());
    }

    #[test]
    fn corrupt_wire_is_an_error() {
        let err = decode_calls(&[1.0, 2.0]).unwrap_err();
        assert_eq!(err, CallWireError { len: 2 });
        assert!(err.to_string().contains("length 2"));
    }
}
