//! `gnumap verify` (conformance harness) and `gnumap trace-check`
//! (validate a `--trace-json` event log).

use crate::core::observe::Event;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};

use super::Args;

pub(super) fn cmd_verify(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let fast = args.flag("fast");
    args.reject_unknown()?;
    let report = conformance::run_verify(fast, out).map_err(|e| format!("verify: {e}"))?;
    if report.passed() {
        Ok(())
    } else {
        Err(format!(
            "verification failed: {} failing check(s)",
            report.failure_count()
        ))
    }
}

/// Parse a JSON-lines trace written via `--trace-json`, validate every
/// line, and summarise event kinds plus the summed `batch` counters
/// (equal across drivers for the same input). Errors on an empty trace
/// or one without the run_start/run_end bracket.
pub(super) fn cmd_trace_check(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let trace_path = args.require("trace")?;
    args.reject_unknown()?;

    let file = std::fs::File::open(&trace_path).map_err(|e| format!("{trace_path}: {e}"))?;
    let mut kinds: BTreeMap<String, usize> = BTreeMap::new();
    let mut total = 0usize;
    let (mut kept, mut columns) = (0u64, 0u64);
    for (lineno, line) in BufReader::new(file).lines().enumerate() {
        let line = line.map_err(|e| format!("{trace_path}: {e}"))?;
        if line.is_empty() {
            continue;
        }
        let event = Event::parse_json_line(&line)
            .map_err(|e| format!("{trace_path}:{}: {e}", lineno + 1))?;
        *kinds.entry(event.kind().to_string()).or_insert(0) += 1;
        if let Event::Batch {
            kept: k,
            deposited_columns: c,
            ..
        } = event
        {
            kept += k;
            columns += c;
        }
        total += 1;
    }
    if total == 0 {
        return Err(format!("{trace_path}: empty trace"));
    }
    for bracket in ["run_start", "run_end"] {
        if !kinds.contains_key(bracket) {
            return Err(format!("{trace_path}: no {bracket} event"));
        }
    }
    let summary = kinds
        .iter()
        .map(|(k, n)| format!("{k} {n}"))
        .collect::<Vec<_>>()
        .join(", ");
    writeln!(out, "{total} event(s): {summary}").map_err(|e| e.to_string())?;
    if kinds.contains_key("batch") {
        writeln!(
            out,
            "batch totals: {kept} kept alignment(s), {columns} deposited column(s)"
        )
        .map_err(|e| e.to_string())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::{run, test_argv};
    use crate::cli::run_to_string;

    #[test]
    fn verify_rejects_unknown_options_before_running() {
        let mut buf = Vec::new();
        let err = run(&test_argv(&["verify", "--bogus"]), &mut buf).unwrap_err();
        assert!(err.contains("--bogus"));
        assert!(buf.is_empty(), "no tier should have started");
    }

    #[test]
    fn trace_check_rejects_garbage_and_empty_traces() {
        let dir = std::env::temp_dir().join(format!("gnumap-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        let empty = dir.join("empty.jsonl");
        std::fs::write(&empty, "").unwrap();
        let err = run_to_string(&["trace-check", "--trace", empty.to_str().unwrap()]).unwrap_err();
        assert!(err.contains("empty trace"), "{err}");

        let garbage = dir.join("garbage.jsonl");
        std::fs::write(&garbage, "not json\n").unwrap();
        let err =
            run_to_string(&["trace-check", "--trace", garbage.to_str().unwrap()]).unwrap_err();
        assert!(err.contains("garbage.jsonl:1"), "{err}");

        std::fs::remove_dir_all(&dir).ok();
    }
}
