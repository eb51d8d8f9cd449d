//! FASTQ reading and writing (Sanger quality encoding).
//!
//! [`FastqReader`] is the program's one FASTQ parser: an incremental
//! iterator of records that reuses its line buffers. [`read_fastq`]
//! collects it; the streaming engine's `FastqStream` wraps it in chunks.
//! So every path accepts the same files and reports the same errors.
//!
//! Records are exactly four lines: `@id`, sequence, `+`, quality. Trailing
//! whitespace (including a CRLF's `\r`) is trimmed from every line, and
//! blank lines between records are skipped.

use crate::error::GenomeError;
use crate::quality::{phred_to_symbol, symbol_to_phred};
use crate::read::SequencedRead;
use crate::seq::DnaSeq;
use std::io::{BufRead, Write};

/// Incremental four-line FASTQ parser: yields one record per
/// [`Iterator::next`], reading only as far as that record. Errors name
/// the 1-based line they were found on.
pub struct FastqReader<R> {
    reader: R,
    /// 1-based number of the last line read.
    line: usize,
    header: String,
    seq: String,
    plus: String,
    qual: String,
}

/// Read the next line into `buf` with trailing whitespace trimmed,
/// counting it in `line`; `false` at end of input.
fn next_line<R: BufRead>(
    reader: &mut R,
    line: &mut usize,
    buf: &mut String,
) -> std::io::Result<bool> {
    buf.clear();
    if reader.read_line(buf)? == 0 {
        return Ok(false);
    }
    *line += 1;
    buf.truncate(buf.trim_end().len());
    Ok(true)
}

impl<R: BufRead> FastqReader<R> {
    /// Parse records from any buffered reader.
    pub fn new(reader: R) -> Self {
        FastqReader {
            reader,
            line: 0,
            header: String::new(),
            seq: String::new(),
            plus: String::new(),
            qual: String::new(),
        }
    }

    /// Parse one record; `None` at end of input.
    fn next_record(&mut self) -> Result<Option<SequencedRead>, GenomeError> {
        let FastqReader {
            reader,
            line,
            header,
            seq,
            plus,
            qual,
        } = self;
        loop {
            if !next_line(reader, line, header)? {
                return Ok(None);
            }
            if !header.is_empty() {
                break;
            }
        }
        let header_line = *line;
        let id = header
            .strip_prefix('@')
            .ok_or_else(|| GenomeError::Malformed {
                line: header_line,
                reason: format!("expected '@' header, found {header:?}"),
            })?;
        let mut expect = |buf: &mut String, what: &str| -> Result<usize, GenomeError> {
            if next_line(reader, line, buf)? {
                Ok(*line)
            } else {
                Err(GenomeError::Malformed {
                    line: header_line,
                    reason: format!("record {id:?} truncated before {what}"),
                })
            }
        };
        let seq_line = expect(seq, "sequence")?;
        let plus_line = expect(plus, "'+' separator")?;
        if !plus.starts_with('+') {
            return Err(GenomeError::Malformed {
                line: plus_line,
                reason: format!("expected '+' separator, found {plus:?}"),
            });
        }
        let qual_line = expect(qual, "quality")?;

        let bases = DnaSeq::from_ascii(seq.as_bytes()).map_err(|e| match e {
            GenomeError::InvalidCharacter { found, .. } => GenomeError::InvalidCharacter {
                line: seq_line,
                found,
            },
            other => other,
        })?;
        let mut quals = Vec::with_capacity(qual.len());
        for c in qual.bytes() {
            quals.push(symbol_to_phred(c).ok_or_else(|| GenomeError::Malformed {
                line: qual_line,
                reason: format!("bad quality symbol {:?}", c as char),
            })?);
        }
        if qual.len() != bases.len() {
            return Err(GenomeError::Malformed {
                line: qual_line,
                reason: format!(
                    "record {id:?}: sequence length {} != quality length {}",
                    bases.len(),
                    qual.len()
                ),
            });
        }
        SequencedRead::new(id, bases, quals).map(Some)
    }
}

impl<R: BufRead> Iterator for FastqReader<R> {
    type Item = Result<SequencedRead, GenomeError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_record().transpose()
    }
}

/// Parse every record from a FASTQ stream (see [`FastqReader`]).
pub fn read_fastq<R: BufRead>(reader: R) -> Result<Vec<SequencedRead>, GenomeError> {
    FastqReader::new(reader).collect()
}

/// Write reads as four-line FASTQ records.
pub fn write_fastq<W: Write>(mut writer: W, reads: &[SequencedRead]) -> Result<(), GenomeError> {
    for r in reads {
        writeln!(writer, "@{}", r.id)?;
        writer.write_all(&r.seq.to_ascii())?;
        writeln!(writer)?;
        writeln!(writer, "+")?;
        let quals: Vec<u8> = r.quals.iter().map(|&q| phred_to_symbol(q)).collect();
        writer.write_all(&quals)?;
        writeln!(writer)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parse_basic_record() {
        let text = "@r1\nACGT\n+\nIIII\n";
        let reads = read_fastq(Cursor::new(text)).unwrap();
        assert_eq!(reads.len(), 1);
        assert_eq!(reads[0].id, "r1");
        assert_eq!(reads[0].seq.to_string(), "ACGT");
        assert_eq!(reads[0].quals, vec![40; 4]);
    }

    #[test]
    fn round_trip() {
        let reads = vec![
            SequencedRead::new("a/1", "ACGTN".parse().unwrap(), vec![2, 20, 40, 0, 33]).unwrap(),
            SequencedRead::new("b/1", "TT".parse().unwrap(), vec![17, 5]).unwrap(),
        ];
        let mut buf = Vec::new();
        write_fastq(&mut buf, &reads).unwrap();
        assert_eq!(read_fastq(Cursor::new(buf)).unwrap(), reads);
    }

    #[test]
    fn truncated_record_rejected() {
        let err = read_fastq(Cursor::new("@r1\nACGT\n+\n")).unwrap_err();
        assert!(matches!(err, GenomeError::Malformed { .. }));
    }

    #[test]
    fn missing_at_rejected() {
        let err = read_fastq(Cursor::new("r1\nACGT\n+\nIIII\n")).unwrap_err();
        assert!(matches!(err, GenomeError::Malformed { line: 1, .. }));
    }

    #[test]
    fn quality_length_mismatch_rejected() {
        let err = read_fastq(Cursor::new("@r1\nACGT\n+\nIII\n")).unwrap_err();
        assert!(matches!(err, GenomeError::Malformed { line: 4, .. }));
    }

    #[test]
    fn bad_quality_symbol_rejected() {
        // \x01 is below the Sanger offset and not trimmable whitespace.
        let err = read_fastq(Cursor::new("@r1\nAC\n+\nI\x01\n")).unwrap_err();
        assert!(matches!(err, GenomeError::Malformed { line: 4, .. }));
    }
}
