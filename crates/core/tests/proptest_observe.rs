//! Property tests for the observability event codec: every event the
//! generator can produce serializes to exactly one valid flat-JSON line,
//! and the line parses back to the same event (with non-finite floats
//! sanitised to `0.0`, the documented behaviour of `to_json_line`).

use gnumap_core::observe::{Event, EventSink, JsonLinesSink, Stage};
use proptest::prelude::*;

/// Arbitrary short strings over the full scalar-value range, biased to
/// include the characters the escaper must handle (quotes, backslashes,
/// controls, non-ASCII).
fn text() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u32..0x11_0000, 0..12)
        .prop_map(|codes| codes.into_iter().filter_map(char::from_u32).collect())
}

/// Seconds fields: mostly finite (any sign and magnitude), occasionally
/// non-finite so the sanitisation path is exercised.
fn secs() -> impl Strategy<Value = f64> {
    (0u8..8, -1.0e12f64..1.0e12).prop_map(|(tag, v)| match tag {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        _ => v,
    })
}

/// Counter fields. The codec parses numbers through f64, so integers are
/// exact only up to 2^53 — far beyond any real read count, and the bound
/// this generator (and the codec's contract) honours.
fn counter() -> impl Strategy<Value = u64> {
    0u64..(1u64 << 53)
}

fn stage() -> impl Strategy<Value = Stage> {
    (0u8..4).prop_map(|i| [Stage::Index, Stage::Map, Stage::Reduce, Stage::Call][i as usize])
}

fn event() -> impl Strategy<Value = Event> {
    (
        (0u8..6, text(), text(), stage()),
        (counter(), counter(), counter(), counter(), counter()),
        (secs(), secs()),
    )
        .prop_map(
            |((tag, a, b, stage), (n1, n2, n3, n4, n5), (f1, f2))| match tag {
                0 => Event::RunStart {
                    driver: a,
                    accumulator: b,
                },
                1 => Event::StageStart { stage },
                2 => Event::StageEnd {
                    stage,
                    wall_secs: f1,
                    cpu_secs: f2,
                },
                3 => Event::Batch {
                    worker: n1,
                    reads: n2,
                    mapped: n3,
                    kept: n4,
                    deposited_columns: n5,
                },
                4 => Event::Checkpoint {
                    cursor: n1,
                    reads_mapped: n2,
                },
                _ => Event::RunEnd {
                    reads_processed: n1,
                    reads_mapped: n2,
                    calls: n3,
                    wall_secs: f1,
                },
            },
        )
}

/// What `to_json_line` promises to preserve: the event itself, except
/// that non-finite floats become `0.0` (JSON has no NaN/Inf).
fn sanitised(event: &Event) -> Event {
    let fix = |v: f64| if v.is_finite() { v } else { 0.0 };
    match event.clone() {
        Event::StageEnd {
            stage,
            wall_secs,
            cpu_secs,
        } => Event::StageEnd {
            stage,
            wall_secs: fix(wall_secs),
            cpu_secs: fix(cpu_secs),
        },
        Event::RunEnd {
            reads_processed,
            reads_mapped,
            calls,
            wall_secs,
        } => Event::RunEnd {
            reads_processed,
            reads_mapped,
            calls,
            wall_secs: fix(wall_secs),
        },
        other => other,
    }
}

proptest! {
    #[test]
    fn every_event_serializes_to_one_parseable_line(e in event()) {
        let line = e.to_json_line();
        prop_assert!(!line.contains('\n'), "line breaks corrupt JSON-lines: {line:?}");
        prop_assert!(line.starts_with("{\"event\":\""), "bad prefix: {line}");
        prop_assert!(line.ends_with('}'), "bad suffix: {line}");
        let back = Event::parse_json_line(&line)
            .map_err(|err| TestCaseError::fail(format!("{err} on {line}")))?;
        prop_assert_eq!(back, sanitised(&e));
    }

    #[test]
    fn event_sequences_round_trip_through_the_json_lines_sink(
        events in proptest::collection::vec(event(), 0..24)
    ) {
        let sink = JsonLinesSink::new(Vec::new());
        for e in &events {
            sink.record(e.clone());
        }
        let text = String::from_utf8(sink.into_writer()).expect("traces are UTF-8");
        let parsed: Vec<Event> = text
            .lines()
            .map(|l| Event::parse_json_line(l).expect(l))
            .collect();
        let expected: Vec<Event> = events.iter().map(sanitised).collect();
        prop_assert_eq!(parsed, expected);
    }

    #[test]
    fn kind_matches_the_wire_discriminant(e in event()) {
        let line = e.to_json_line();
        prop_assert!(
            line.starts_with(&format!("{{\"event\":\"{}\"", e.kind())),
            "kind {} missing from {line}",
            e.kind()
        );
    }
}
