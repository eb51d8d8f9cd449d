//! Pair-HMM kernel and pipeline throughput tracker.
//!
//! Measures the layers of the alignment hot path — emission-table build,
//! forward, forward+backward+marginal, and the end-to-end single-thread
//! mapping pipeline — and writes the numbers to `BENCH_phmm.json` so the
//! perf trajectory is recorded in-repo across kernel changes.
//!
//! Usage: `bench_phmm [--quick] [--out PATH]`
//!
//! `--quick` shrinks the workload and measurement windows to a smoke test
//! (used by CI to assert the harness compiles and reports non-zero
//! throughput); the default settings give stable numbers for comparison.

use bench::WorkloadSpec;
use genome::alphabet::Base;
use genome::read::SequencedRead;
use genome::seq::DnaSeq;
use gnumap_core::accum::{GenomeAccumulator, NormAccumulator};
use gnumap_core::mapping::AlignScratch;
use gnumap_core::pipeline::accumulate_reads_with;
use gnumap_core::GnumapConfig;
use gnumap_core::MappingEngine;
use pairhmm::forward::forward;
use pairhmm::marginal::PosteriorAlignment;
use pairhmm::params::PhmmParams;
use pairhmm::pwm::Pwm;
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::time::Instant;

/// One measured quantity: name, unit, and items/second.
struct Measurement {
    name: &'static str,
    per_sec: f64,
    iters: u64,
}

/// Run `f` repeatedly for at least `window` seconds (after one warmup
/// call) and return items/second, where each call to `f` processes
/// `items_per_iter` items.
fn measure<F: FnMut()>(window: f64, items_per_iter: u64, mut f: F) -> (f64, u64) {
    f(); // warmup: touch caches, grow scratch buffers
    let mut iters = 0u64;
    let start = Instant::now();
    loop {
        f();
        iters += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= window && iters >= 3 {
            return ((iters * items_per_iter) as f64 / elapsed, iters);
        }
    }
}

/// A deterministic 62-bp read/window pair in the mapping sweet spot.
fn kernel_fixture(len: usize, seed: u64) -> (SequencedRead, Vec<Option<Base>>, PhmmParams) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let params = PhmmParams::default();
    let bases: Vec<Base> = (0..len)
        .map(|_| Base::from_index(rng.random_range(0..4)))
        .collect();
    let genome_seq = DnaSeq::from_bases(bases.iter().copied());
    let read_seq: DnaSeq = bases
        .iter()
        .map(|&b| {
            if rng.random_bool(0.01) {
                Some(b.transition())
            } else {
                Some(b)
            }
        })
        .collect();
    let quals: Vec<u8> = (0..len).map(|i| 40 - (i * 20 / len.max(1)) as u8).collect();
    let read = SequencedRead::new("bench", read_seq, quals).unwrap();
    let window: Vec<Option<Base>> = genome_seq.iter().collect();
    (read, window, params)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_phmm.json".to_string());

    let window = if quick { 0.05 } else { 1.0 };
    let mut results: Vec<Measurement> = Vec::new();

    // --- Kernel-level layers on a 62-bp pair (paper read length). ---
    let (read, win, params) = kernel_fixture(62, 1);
    let pwm = Pwm::from_read(&read);

    let (per_sec, iters) = measure(window, 1, || {
        black_box(pwm.emission_table(black_box(&win), &params));
    });
    results.push(Measurement {
        name: "emission_build_62bp_per_sec",
        per_sec,
        iters,
    });

    let emit = pwm.emission_table(&win, &params);
    let (per_sec, iters) = measure(window, 1, || {
        black_box(forward(black_box(emit.view()), &params).total);
    });
    results.push(Measurement {
        name: "forward_62bp_per_sec",
        per_sec,
        iters,
    });

    let (per_sec, iters) = measure(window, 1, || {
        let post = PosteriorAlignment::compute(black_box(&pwm), black_box(&win), &params);
        black_box(post.column_posteriors(&pwm));
    });
    results.push(Measurement {
        name: "fwd_bwd_marginal_62bp_per_sec",
        per_sec,
        iters,
    });

    // Fused zero-allocation path: emission + forward + streaming
    // backward/marginal inside one reused scratch arena.
    let mut phmm_scratch = pairhmm::PhmmScratch::new();
    let (per_sec, iters) = measure(window, 1, || {
        black_box(phmm_scratch.posterior_columns(black_box(&pwm), black_box(&win), &params, None));
    });
    results.push(Measurement {
        name: "fused_scratch_62bp_per_sec",
        per_sec,
        iters,
    });

    // --- End-to-end single-thread pipeline: index once, map the batch. ---
    let spec = WorkloadSpec {
        genome_len: if quick { 4_000 } else { 40_000 },
        snp_count: if quick { 4 } else { 20 },
        coverage: if quick { 4.0 } else { 10.0 },
        seed: 0xbe9c,
    };
    let wl = spec.build();
    let config = GnumapConfig::default();
    let engine = MappingEngine::new(&wl.reference, config.mapping);
    let n_reads = wl.reads.len() as u64;
    let (per_sec, iters) = measure(window.max(0.1), n_reads, || {
        let mut acc = NormAccumulator::new(wl.reference.len());
        black_box(accumulate_reads_with(
            &engine,
            &wl.reads,
            &mut acc,
            &mut AlignScratch::new(),
        ));
    });
    results.push(Measurement {
        name: "pipeline_e2e_reads_per_sec",
        per_sec,
        iters,
    });

    // --- Report. ---
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!("  \"e2e_reads\": {n_reads},\n"));
    for (i, m) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        json.push_str(&format!("  \"{}\": {:.2}{}\n", m.name, m.per_sec, comma));
        eprintln!(
            "[bench_phmm] {:<34} {:>14.1} /s  ({} iters)",
            m.name, m.per_sec, m.iters
        );
    }
    json.push_str("}\n");
    std::fs::write(&out_path, &json).expect("write benchmark report");
    eprintln!("[bench_phmm] wrote {out_path}");

    // CI smoke: all throughputs must be non-zero finite numbers.
    for m in &results {
        assert!(
            m.per_sec.is_finite() && m.per_sec > 0.0,
            "{} reported non-positive throughput",
            m.name
        );
    }
}
