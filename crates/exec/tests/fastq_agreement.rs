//! One FASTQ parser, every path: `genome::fastq::read_fastq` and
//! `exec::FastqStream` (at several chunk sizes, and through `skip`) must
//! accept the same files with the same reads, and reject the same files
//! with the same error naming the offending line.

use exec::{ExecError, FastqStream, ReadStream};
use genome::fastq::{read_fastq, write_fastq};
use genome::read::SequencedRead;
use std::io::Cursor;

/// What a case must parse to: the reads' `(id, sequence)` pairs, or an
/// error whose message contains the given text.
enum Expect {
    Reads(&'static [(&'static str, &'static str)]),
    Error(&'static str),
}

const TWO: &[(&str, &str)] = &[("r1", "ACGT"), ("r2", "TTGG")];

/// The edge inputs, each with its expected outcome.
const CASES: &[(&str, &str, Expect)] = &[
    (
        "trailing space on a sequence line",
        "@r1\nACGT \n+\nIIII\n@r2\nTTGG\n+\nIIII\n",
        Expect::Reads(TWO),
    ),
    (
        "trailing tab on a sequence line",
        "@r1\nACGT\t\n+\nIIII\n@r2\nTTGG\n+\nIIII\n",
        Expect::Reads(TWO),
    ),
    (
        "trailing space on a quality line",
        "@r1\nACGT\n+\nIIII \n@r2\nTTGG\n+\nIIII\n",
        Expect::Reads(TWO),
    ),
    (
        "trailing tab on a quality line",
        "@r1\nACGT\n+\nIIII\t\n@r2\nTTGG\n+\nIIII\n",
        Expect::Reads(TWO),
    ),
    (
        "CRLF line endings",
        "@r1\r\nACGT\r\n+\r\nIIII\r\n@r2\r\nTTGG\r\n+\r\nIIII\r\n",
        Expect::Reads(TWO),
    ),
    (
        "blank lines between records",
        "\n@r1\nACGT\n+\nIIII\n\n\n@r2\nTTGG\n+\nIIII\n\n",
        Expect::Reads(TWO),
    ),
    (
        "no newline after the last record",
        "@r1\nACGT\n+\nIIII\n@r2\nTTGG\n+\nIIII",
        Expect::Reads(TWO),
    ),
    ("empty input", "", Expect::Reads(&[])),
    (
        "missing '@' header",
        "not a header\nACGT\n+\nIIII\n",
        Expect::Error("malformed record on line 1: expected '@' header"),
    ),
    (
        "missing '+' line",
        "@r1\nACGT\n+\nIIII\n@r2\nTTGG\nIIII\n",
        Expect::Error("malformed record on line 7: expected '+' separator"),
    ),
    (
        "record truncated before its quality line",
        "@r1\nACGT\n+\nIIII\n@r2\nTTGG\n+\n",
        Expect::Error("malformed record on line 5: record \"r2\" truncated before quality"),
    ),
    (
        "bad base on line 2",
        "@r1\nACXT\n+\nIIII\n",
        Expect::Error("invalid sequence character 'X' on line 2"),
    ),
    (
        "bad base in the second record",
        "@r1\nACGT\n+\nIIII\n@r2\nTT G\n+\nIIII\n",
        Expect::Error("invalid sequence character ' ' on line 6"),
    ),
    (
        "bad quality symbol",
        "@r1\nACGT\n+\nII\x01I\n",
        Expect::Error("malformed record on line 4: bad quality symbol '\\u{1}'"),
    ),
    (
        "sequence and quality of different lengths",
        "@r1\nACGT\n+\nIII\n",
        Expect::Error(
            "malformed record on line 4: record \"r1\": sequence length 4 != quality length 3",
        ),
    ),
];

/// Drain a stream in `chunk`-sized pulls: the reads before the first
/// error, and that error's message. Every pull but the last must be full
/// and none may exceed `chunk`, so the stream driver's memory stays
/// bounded by its chunk size.
fn drain(text: &str, chunk: usize) -> (Vec<SequencedRead>, Option<String>) {
    let mut stream = FastqStream::new(Cursor::new(text));
    let mut reads = Vec::new();
    let mut short = false;
    loop {
        match stream.next_chunk(chunk) {
            Ok(c) if c.is_empty() => return (reads, None),
            Ok(c) => {
                assert!(c.len() <= chunk, "chunk of {} > max {chunk}", c.len());
                assert!(!short, "a short chunk was followed by more reads");
                short = c.len() < chunk;
                reads.extend(c)
            }
            Err(ExecError::Fastq(e)) => return (reads, Some(e.to_string())),
            Err(other) => panic!("FASTQ errors must be ExecError::Fastq, got {other:?}"),
        }
    }
}

#[test]
fn every_path_parses_every_edge_input_identically() {
    for (name, text, expect) in CASES {
        let batch = read_fastq(Cursor::new(text));
        match expect {
            Expect::Reads(want) => {
                let reads = batch.unwrap_or_else(|e| panic!("{name}: read_fastq failed: {e}"));
                let got: Vec<(&str, String)> = reads
                    .iter()
                    .map(|r| (r.id.as_str(), r.seq.to_string()))
                    .collect();
                let want: Vec<(&str, String)> =
                    want.iter().map(|(id, s)| (*id, s.to_string())).collect();
                assert_eq!(got, want, "{name}: read_fastq");
                assert!(reads.iter().all(|r| r.quals.iter().all(|&q| q == 40)));
                for chunk in [1, 2, 4096] {
                    let (streamed, err) = drain(text, chunk);
                    assert_eq!(err, None, "{name}: chunk {chunk}");
                    assert_eq!(streamed, reads, "{name}: chunk {chunk}");
                }
                if !reads.is_empty() {
                    let mut stream = FastqStream::new(Cursor::new(text));
                    stream.skip(1).unwrap();
                    let tail = stream.next_chunk(4096).unwrap();
                    assert_eq!(tail, reads[1..], "{name}: skip(1)");
                }
            }
            Expect::Error(want) => {
                let message = match batch {
                    Ok(reads) => panic!("{name}: read_fastq accepted {} reads", reads.len()),
                    Err(e) => e.to_string(),
                };
                assert!(message.contains(want), "{name}: {message:?} lacks {want:?}");
                for chunk in [1, 2, 4096] {
                    let (_, err) = drain(text, chunk);
                    assert_eq!(err.as_ref(), Some(&message), "{name}: chunk {chunk}");
                }
                let mut stream = FastqStream::new(Cursor::new(text));
                match stream.skip(2) {
                    Err(ExecError::Fastq(e)) => {
                        assert_eq!(e.to_string(), message, "{name}: skip")
                    }
                    other => panic!("{name}: skip gave {other:?}"),
                }
            }
        }
    }
}

#[test]
fn streamed_records_match_the_batch_parser_on_written_files() {
    let reads: Vec<SequencedRead> = (0..5)
        .map(|i| {
            let seq = ["ACGTN", "TT", "GATTACA", "C", "ACGTACGT"][i];
            let quals = (0..seq.len() as u8)
                .map(|q| (q * 7 + i as u8) % 42)
                .collect();
            SequencedRead::new(format!("r{i}"), seq.parse().unwrap(), quals).unwrap()
        })
        .collect();
    let mut buf = Vec::new();
    write_fastq(&mut buf, &reads).unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert_eq!(read_fastq(Cursor::new(&text)).unwrap(), reads);
    for chunk in [1, 2, 3, 4096] {
        assert_eq!(drain(&text, chunk), (reads.clone(), None), "chunk {chunk}");
    }
}

#[test]
fn chunks_hold_at_most_max_reads() {
    let text = "@a\nAC\n+\nII\n@b\nGT\n+\nII\n@c\nTT\n+\nII\n";
    let mut stream = FastqStream::new(Cursor::new(text));
    assert_eq!(stream.next_chunk(2).unwrap().len(), 2);
    let last = stream.next_chunk(2).unwrap();
    assert_eq!(last.len(), 1);
    assert_eq!(last[0].id, "c");
    assert!(stream.next_chunk(2).unwrap().is_empty());
}

#[test]
fn skipping_past_the_end_is_a_checkpoint_error() {
    let mut stream = FastqStream::new(Cursor::new("@a\nAC\n+\nII\n"));
    assert!(matches!(stream.skip(2), Err(ExecError::Checkpoint(_))));
}
