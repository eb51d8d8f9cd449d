//! Serving-layer throughput tracker.
//!
//! Drives the loopback batching daemon with four concurrent client
//! sessions at worker-pool sizes 1 and 4, and writes `BENCH_server.json`
//! recording aggregate throughput and batching behaviour.
//!
//! Two throughput bases are reported, following the repo's convention
//! for timeshared cores (`RunReport::simulated_parallel_secs`, the
//! repro_fig4 harness):
//!
//! * `wall_reads_per_sec` — reads / wall-clock seconds. On a machine
//!   with fewer physical cores than workers this cannot scale.
//! * `sim_reads_per_sec` — reads / busiest-worker CPU seconds: the
//!   critical-path rate the pool would sustain with one core per worker.
//!   Scaling claims (`sim_speedup_4v1`) are made on this basis.
//!
//! Usage: `bench_server [--quick] [--out PATH]`

use bench::WorkloadSpec;
use genome::read::SequencedRead;
use gnumap_core::GnumapConfig;
use server::{start, Client, ServerConfig, SessionConfig, StatsSnapshot};
use std::thread;
use std::time::{Duration, Instant};

const SESSIONS: usize = 4;

struct PhaseResult {
    workers: usize,
    reads: u64,
    wall_secs: f64,
    wall_reads_per_sec: f64,
    sim_reads_per_sec: f64,
    stats: StatsSnapshot,
}

/// Run `SESSIONS` concurrent client sessions against a fresh server with
/// `workers` workers and measure the submit→finalize span.
fn run_phase(
    workload: &bench::Workload,
    config: GnumapConfig,
    workers: usize,
    chunk: usize,
) -> PhaseResult {
    let handle = start(
        workload.reference.clone(),
        config,
        ServerConfig {
            workers,
            batch_size: 32,
            ingress_capacity: 256,
            dispatch_capacity: workers * 4,
            submit_timeout: Duration::from_secs(120),
            default_deadline: Duration::from_secs(600),
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("server starts");
    let addr = handle.addr();

    let partitions: Vec<Vec<SequencedRead>> = (0..SESSIONS)
        .map(|c| {
            workload
                .reads
                .iter()
                .enumerate()
                .filter(|(i, _)| i % SESSIONS == c)
                .map(|(_, r)| r.clone())
                .collect()
        })
        .collect();
    let total_reads: u64 = partitions.iter().map(|p| p.len() as u64).sum();

    let started = Instant::now();
    let threads: Vec<_> = partitions
        .into_iter()
        .map(|part| {
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let session = client
                    .open_session(SessionConfig::default())
                    .expect("open session");
                for piece in part.chunks(chunk) {
                    client
                        .submit_reads_retrying(session, piece)
                        .expect("submit");
                }
                let result = client.finalize(session, 600_000).expect("finalize");
                assert_eq!(result.reads_processed, part.len() as u64);
                result.digest
            })
        })
        .collect();
    let digests: Vec<u64> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    let wall_secs = started.elapsed().as_secs_f64();
    assert_eq!(digests.len(), SESSIONS);

    let stats = handle.stats();
    handle.shutdown();
    handle.join();

    let sim_secs = stats.max_worker_cpu_secs.max(1e-9);
    PhaseResult {
        workers,
        reads: total_reads,
        wall_secs,
        wall_reads_per_sec: total_reads as f64 / wall_secs.max(1e-9),
        sim_reads_per_sec: total_reads as f64 / sim_secs,
        stats,
    }
}

fn phase_json(p: &PhaseResult) -> String {
    format!(
        "{{\n    \"workers\": {},\n    \"reads\": {},\n    \"wall_secs\": {:.4},\n    \
         \"wall_reads_per_sec\": {:.2},\n    \"max_worker_cpu_secs\": {:.4},\n    \
         \"sim_reads_per_sec\": {:.2},\n    \"batches\": {},\n    \
         \"mean_batch_occupancy\": {:.2},\n    \"mean_sessions_per_batch\": {:.3},\n    \
         \"cross_session_batches\": {},\n    \"p50_service_micros\": {},\n    \
         \"p99_service_micros\": {}\n  }}",
        p.workers,
        p.reads,
        p.wall_secs,
        p.wall_reads_per_sec,
        p.stats.max_worker_cpu_secs,
        p.sim_reads_per_sec,
        p.stats.batches_dispatched,
        p.stats.mean_batch_occupancy,
        p.stats.mean_sessions_per_batch,
        p.stats.cross_session_batches,
        p.stats.p50_service_micros,
        p.stats.p99_service_micros,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_server.json".to_string());

    let spec = WorkloadSpec {
        genome_len: if quick { 4_000 } else { 30_000 },
        snp_count: if quick { 4 } else { 15 },
        coverage: if quick { 4.0 } else { 10.0 },
        seed: 0x5e7e,
    };
    let workload = spec.build();
    let config = GnumapConfig::default();
    let chunk = if quick { 16 } else { 64 };

    let one = run_phase(&workload, config, 1, chunk);
    eprintln!(
        "[bench_server] workers 1: {:.0} reads/s wall, {:.0} reads/s sim ({} reads, {} batches)",
        one.wall_reads_per_sec, one.sim_reads_per_sec, one.reads, one.stats.batches_dispatched
    );
    let four = run_phase(&workload, config, 4, chunk);
    eprintln!(
        "[bench_server] workers 4: {:.0} reads/s wall, {:.0} reads/s sim ({} reads, {} batches)",
        four.wall_reads_per_sec, four.sim_reads_per_sec, four.reads, four.stats.batches_dispatched
    );

    let sim_speedup = four.sim_reads_per_sec / one.sim_reads_per_sec.max(1e-9);
    let wall_speedup = four.wall_reads_per_sec / one.wall_reads_per_sec.max(1e-9);
    eprintln!(
        "[bench_server] 4v1 speedup: {sim_speedup:.2}x sim (critical path), {wall_speedup:.2}x wall"
    );

    let json = format!(
        "{{\n  \"quick\": {quick},\n  \"sessions\": {SESSIONS},\n  \
         \"workers1\": {},\n  \"workers4\": {},\n  \
         \"sim_speedup_4v1\": {sim_speedup:.3},\n  \"wall_speedup_4v1\": {wall_speedup:.3}\n}}\n",
        phase_json(&one),
        phase_json(&four),
    );
    std::fs::write(&out_path, &json).expect("write benchmark report");
    eprintln!("[bench_server] wrote {out_path}");

    // Acceptance gates: cross-request coalescing must actually happen,
    // and the worker pool must scale on the critical-path basis.
    assert!(
        one.stats.mean_batch_occupancy > 1.0 && four.stats.mean_batch_occupancy > 1.0,
        "batches did not coalesce reads"
    );
    assert!(
        four.stats.mean_sessions_per_batch > 1.0,
        "concurrent sessions never shared a batch: {:.3} sessions/batch",
        four.stats.mean_sessions_per_batch
    );
    assert!(
        sim_speedup >= 2.0,
        "4-worker critical-path throughput only {sim_speedup:.2}x of 1-worker"
    );
}
