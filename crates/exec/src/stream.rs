//! Chunked read sources.
//!
//! A [`ReadStream`] hands out reads in chunks rather than as one giant
//! slice, so the engine's memory footprint is bounded by the two
//! scheduling windows it holds, not by the input size. `skip` exists for
//! checkpoint resume: a restarted run fast-forwards the source to the
//! saved cursor, and every implementation guarantees that
//! `skip(n)` + `next_chunk(..)` yields exactly the reads an uninterrupted
//! run would have seen from position `n` on.

use crate::error::ExecError;
use genome::fastq::FastqReader;
use genome::read::SequencedRead;
use genome::seq::DnaSeq;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use simulate::reads::{simulate_reads, ReadSimConfig, ReadSource};
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;

/// An ordered, possibly unbounded sequence of reads consumed in chunks.
pub trait ReadStream: Send {
    /// Pull up to `max` reads. An empty vector means end of stream.
    fn next_chunk(&mut self, max: usize) -> Result<Vec<SequencedRead>, ExecError>;

    /// Discard the next `n` reads (checkpoint resume). Implementations
    /// must leave the stream in exactly the state reached by pulling and
    /// dropping `n` reads.
    fn skip(&mut self, n: usize) -> Result<(), ExecError>;
}

/// In-memory stream over an owned read vector (tests, small inputs).
pub struct MemoryStream {
    reads: Vec<SequencedRead>,
    cursor: usize,
}

impl MemoryStream {
    /// Stream over `reads` from the beginning.
    pub fn new(reads: Vec<SequencedRead>) -> Self {
        MemoryStream { reads, cursor: 0 }
    }
}

impl ReadStream for MemoryStream {
    fn next_chunk(&mut self, max: usize) -> Result<Vec<SequencedRead>, ExecError> {
        let end = (self.cursor + max).min(self.reads.len());
        let chunk = self.reads[self.cursor..end].to_vec();
        self.cursor = end;
        Ok(chunk)
    }

    fn skip(&mut self, n: usize) -> Result<(), ExecError> {
        self.cursor = (self.cursor + n).min(self.reads.len());
        Ok(())
    }
}

/// FASTQ file as a [`ReadStream`]: a chunking adapter over the one FASTQ
/// parser, [`genome::fastq::FastqReader`], so a streamed file is accepted
/// or rejected exactly as [`genome::fastq::read_fastq`] would.
pub struct FastqStream<R: BufRead + Send> {
    records: FastqReader<R>,
}

impl FastqStream<BufReader<File>> {
    /// Open a FASTQ file for streaming.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, ExecError> {
        let path = path.as_ref();
        let file =
            File::open(path).map_err(|e| ExecError::Source(format!("{}: {e}", path.display())))?;
        Ok(FastqStream::new(BufReader::new(file)))
    }
}

impl<R: BufRead + Send> FastqStream<R> {
    /// Stream records from any buffered reader.
    pub fn new(reader: R) -> Self {
        FastqStream {
            records: FastqReader::new(reader),
        }
    }
}

impl<R: BufRead + Send> ReadStream for FastqStream<R> {
    fn next_chunk(&mut self, max: usize) -> Result<Vec<SequencedRead>, ExecError> {
        let mut chunk = Vec::with_capacity(max.min(1024));
        while chunk.len() < max {
            match self.records.next().transpose()? {
                Some(read) => chunk.push(read),
                None => break,
            }
        }
        Ok(chunk)
    }

    fn skip(&mut self, n: usize) -> Result<(), ExecError> {
        for _ in 0..n {
            if self.records.next().transpose()?.is_none() {
                return Err(ExecError::Checkpoint(format!(
                    "stream ended while skipping to cursor (wanted {n} more reads)"
                )));
            }
        }
        Ok(())
    }
}

/// Simulator-backed stream: generates reads lazily from an individual's
/// genome, one chunk at a time. Chunking is invisible — the underlying
/// generator draws per read, so any chunk-size schedule (including
/// `skip`-then-read on resume) yields the identical read sequence for the
/// same seed.
pub struct SimReadStream {
    individual: DnaSeq,
    config: ReadSimConfig,
    rng: ChaCha8Rng,
    remaining: usize,
    emitted: usize,
}

impl SimReadStream {
    /// Stream `count` reads simulated from `individual`.
    pub fn new(individual: DnaSeq, config: ReadSimConfig, seed: u64, count: usize) -> Self {
        SimReadStream {
            individual,
            config,
            rng: ChaCha8Rng::seed_from_u64(seed),
            remaining: count,
            emitted: 0,
        }
    }

    fn generate(&mut self, n: usize) -> Vec<SequencedRead> {
        let sim = simulate_reads(
            &ReadSource::Monoploid(&self.individual),
            n,
            &self.config,
            &mut self.rng,
        );
        self.remaining -= n;
        sim.into_iter()
            .map(|r| {
                // Renumber globally so chunked generation matches a single
                // simulate_reads call over the whole count.
                let read = SequencedRead {
                    id: format!("sim_{}", self.emitted),
                    ..r.read
                };
                self.emitted += 1;
                read
            })
            .collect()
    }
}

impl ReadStream for SimReadStream {
    fn next_chunk(&mut self, max: usize) -> Result<Vec<SequencedRead>, ExecError> {
        let n = max.min(self.remaining);
        Ok(self.generate(n))
    }

    fn skip(&mut self, n: usize) -> Result<(), ExecError> {
        if n > self.remaining {
            return Err(ExecError::Checkpoint(format!(
                "cursor {n} beyond simulated stream of {} remaining reads",
                self.remaining
            )));
        }
        // Generating and discarding advances the RNG exactly as an
        // uninterrupted run would have.
        let _ = self.generate(n);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_reads(n: usize) -> Vec<SequencedRead> {
        (0..n)
            .map(|i| {
                SequencedRead::with_uniform_quality(
                    format!("r{i}"),
                    "ACGTACGT".parse().unwrap(),
                    30,
                )
            })
            .collect()
    }

    #[test]
    fn memory_stream_chunks_and_skips() {
        let mut s = MemoryStream::new(sample_reads(10));
        s.skip(3).unwrap();
        let c = s.next_chunk(4).unwrap();
        assert_eq!(
            c.iter().map(|r| r.id.as_str()).collect::<Vec<_>>(),
            ["r3", "r4", "r5", "r6"]
        );
        assert_eq!(s.next_chunk(100).unwrap().len(), 3);
        assert!(s.next_chunk(1).unwrap().is_empty());
    }

    #[test]
    fn sim_stream_is_chunking_invariant() {
        let genome = simulate::generate_genome(
            &simulate::GenomeConfig {
                length: 2_000,
                repeat_families: 0,
                ..Default::default()
            },
            &mut ChaCha8Rng::seed_from_u64(9),
        );
        let cfg = ReadSimConfig::default();

        let mut one_shot = SimReadStream::new(genome.clone(), cfg, 7, 60);
        let all = one_shot.next_chunk(usize::MAX).unwrap();
        assert_eq!(all.len(), 60);

        let mut chunked = SimReadStream::new(genome.clone(), cfg, 7, 60);
        let mut got = Vec::new();
        for chunk_size in [7usize, 13, 1, 100] {
            got.extend(chunked.next_chunk(chunk_size).unwrap());
        }
        assert_eq!(got, all, "chunk schedule must not change the reads");

        // skip(n) == generate-and-discard n.
        let mut resumed = SimReadStream::new(genome, cfg, 7, 60);
        resumed.skip(25).unwrap();
        let tail = resumed.next_chunk(usize::MAX).unwrap();
        assert_eq!(tail, all[25..].to_vec());
    }
}
