//! The per-layer metrics of a traced run, derived from the span summary
//! and the work counted from outside the program.
//!
//! Seed, PWM and DP times are measured on the probed reads only and
//! scaled by reads / probed reads; `map.self_s` is what remains of the
//! `map` spans once those three are taken out (normalisation, strand
//! handling, candidate bookkeeping). Metrics a workload does not
//! exercise read 0.

use crate::replay::Work;
use crate::report::Outcome;
use crate::trace::LayerStat;
use server::StatsSnapshot;
use std::collections::BTreeMap;

/// Figures that come from outside the span summary.
#[derive(Debug, Default)]
pub struct Extra {
    pub fastq_bytes: u64,
    pub index_heap_bytes: usize,
    pub masked_kmers: usize,
    /// Positions with enough evidence to be tested.
    pub call_positions: usize,
    pub calls: usize,
    pub reduce_bytes: u64,
    pub reduce_messages: u64,
    /// Busiest rank (or server worker) CPU over the mean.
    pub cpu_imbalance: f64,
    pub overhead_frac: f64,
    pub coverage: f64,
    pub submit_retries: u64,
    /// The server's `Stats` frame, for the serve workload.
    pub stats: Option<StatsSnapshot>,
}

/// `a / b`, or 0 when `b` is not positive.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Append every per-layer metric, in a fixed order.
pub fn emit(out: &mut Outcome, summary: &BTreeMap<&str, LayerStat>, work: &Work, x: &Extra) {
    let stat = |name: &str| summary.get(name).copied().unwrap_or_default();
    let self_s = |name: &str| stat(name).self_s;
    let mean_ms = |name: &str| ratio(stat(name).wall_s * 1e3, stat(name).count as f64);
    let scale = ratio(work.reads as f64, work.probed as f64);
    let probed = work.probed as f64;

    let seed = self_s("seed.lookup") * scale;
    let pwm = self_s("pwm.build") * scale;
    let dp = self_s("phmm.dp") * scale;
    out.metric("seed.lookup_s", seed, "s");
    out.metric(
        "seed.hits_per_read",
        ratio(work.hits as f64, probed),
        "count",
    );
    out.metric(
        "map.windows_per_read",
        ratio(work.windows as f64, probed),
        "count",
    );
    out.metric(
        "map.kept_per_read",
        ratio(work.kept as f64, work.reads as f64),
        "count",
    );
    out.metric(
        "map.kept_ratio",
        ratio(work.probed_kept as f64, work.windows as f64),
        "ratio",
    );
    out.metric("phmm.dp_s", dp, "s");
    out.metric("phmm.cells", work.cells as f64 * scale, "banded_cells");
    out.metric(
        "phmm.gcups",
        ratio(work.cells as f64, self_s("phmm.dp")) / 1e9,
        "GCUPS",
    );
    out.metric("pwm.build_s", pwm, "s");
    out.metric(
        "map.self_s",
        (self_s("map") - seed - pwm - dp).max(0.0),
        "s",
    );

    let parse = self_s("fastq.parse");
    out.metric("fastq.parse_s", parse, "s");
    out.metric(
        "fastq.mb_per_s",
        ratio(x.fastq_bytes as f64 / 1e6, parse),
        "MB/s",
    );
    out.metric("deposit.s", self_s("deposit"), "s");
    out.metric("deposit.columns", work.columns as f64, "count");

    out.metric("reduce.s", self_s("reduce"), "s");
    out.metric("reduce.bytes", x.reduce_bytes as f64, "bytes");
    out.metric("reduce.messages", x.reduce_messages as f64, "count");
    out.metric("ranks.cpu_imbalance", x.cpu_imbalance, "ratio");

    out.metric("index.build_s", self_s("index.build"), "s");
    out.metric(
        "index.heap_mb",
        x.index_heap_bytes as f64 / (1024.0 * 1024.0),
        "MB",
    );
    out.metric("index.masked_kmers", x.masked_kmers as f64, "count");

    out.metric("call.s", self_s("call"), "s");
    out.metric("call.positions", x.call_positions as f64, "count");
    out.metric("call.calls", x.calls as f64, "count");
    out.metric("vcf.write_s", self_s("vcf.write"), "s");

    out.metric("client.open_ms", mean_ms("client.open"), "ms");
    out.metric("client.submit_s", self_s("client.submit"), "s");
    out.metric("client.submit_retries", x.submit_retries as f64, "count");
    out.metric("client.finalize_ms", mean_ms("client.finalize"), "ms");
    let s = x.stats.unwrap_or_default();
    out.metric("server.batch_occupancy", s.mean_batch_occupancy, "reads");
    out.metric(
        "server.sessions_per_batch",
        s.mean_sessions_per_batch,
        "count",
    );
    out.metric(
        "server.cross_session_batches",
        s.cross_session_batches as f64,
        "count",
    );
    out.metric(
        "server.max_ingress_depth",
        s.max_ingress_depth as f64,
        "count",
    );
    out.metric("server.busy_rejections", s.busy_rejections as f64, "count");
    out.metric("server.timeouts", s.timeouts as f64, "count");
    out.metric("server.worker_cpu_s", s.worker_cpu_secs, "s");
    out.metric("server.service_p50_us", s.p50_service_micros as f64, "us");
    out.metric("server.service_p99_us", s.p99_service_micros as f64, "us");

    out.metric("trace.overhead_frac", x.overhead_frac, "ratio");
    out.metric("trace.coverage", x.coverage, "ratio");
}
