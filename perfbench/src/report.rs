//! The result a run prints: metrics by name and unit, operation counts,
//! and the host and configuration record.

use crate::trace;
use std::fmt::Write as _;

/// The end-to-end figures every workload reports. A run that failed
/// before measuring them reports the defaults, zeros.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Set-up samples, seconds.
    pub setups: Vec<f64>,
    pub reads_per_s: f64,
    pub cpu_s_per_kread: f64,
    pub peak_rss_mb: f64,
    pub sensitivity: f64,
    pub precision: f64,
    /// Per-operation latencies in milliseconds: one per session, or one
    /// per driver run.
    pub latencies_ms: Vec<f64>,
}

impl EndToEnd {
    /// Append the end-to-end metrics, in a fixed order, and the sample
    /// counts behind the set-up median and the percentiles.
    pub fn emit(mut self, out: &mut Outcome) {
        self.latencies_ms.sort_by(f64::total_cmp);
        let lat = &self.latencies_ms;
        out.metric("setup_s", trace::median(&self.setups), "s");
        out.metric("reads_per_s", self.reads_per_s, "1/s");
        out.metric("cpu_s_per_kread", self.cpu_s_per_kread, "s");
        out.metric("peak_rss_mb", self.peak_rss_mb, "MB");
        out.metric("sensitivity", self.sensitivity, "ratio");
        out.metric("precision", self.precision, "ratio");
        let success = 1.0 - out.failed as f64 / out.attempted.max(1) as f64;
        out.metric("success_frac", success, "ratio");
        out.metric("session_p50_ms", trace::percentile(lat, 50), "ms");
        out.metric("session_p90_ms", trace::percentile(lat, 90), "ms");
        out.record_num("setup_samples", self.setups.len());
        out.record_num("session_samples", lat.len());
        out.record_num(
            "session_p90_samples_beyond",
            trace::samples_beyond(lat.len(), 90),
        );
        out.record_num(
            "highest_reportable_percentile",
            trace::highest_reportable_percentile(lat.len())
                .map_or("null".into(), |p| p.to_string()),
        );
    }
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: driver runs, or sessions for the server.
    pub attempted: u64,
    /// Operations that failed a check or returned an error.
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Host, configuration and sample counts, as pre-rendered JSON values.
    pub record: Vec<(&'static str, String)>,
    /// Run-level checks that failed (accuracy floors over a whole run).
    pub checks_failed: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn record_str(&mut self, key: &'static str, value: &str) {
        self.record.push((key, json_str(value)));
    }

    pub fn record_num(&mut self, key: &'static str, value: impl std::fmt::Display) {
        self.record.push((key, value.to_string()));
    }

    /// Fail the run as a whole.
    pub fn check_failed(&mut self, what: &str) {
        eprintln!("check failed: {what}");
        self.checks_failed.push(what.to_string());
    }

    /// Count one operation.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// The record line, then the result line (always last).
    pub fn render(&self) -> String {
        let mut out = String::from("{\"record\": {");
        for (i, (k, v)) in self.record.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{k}\": {v}");
        }
        let _ = write!(
            out,
            "}}}}\n{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0 && self.checks_failed.is_empty(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
