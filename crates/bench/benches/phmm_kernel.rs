//! Criterion microbenches for the Pair-HMM kernels: forward, backward,
//! full vs banded, Viterbi, and the fused zero-allocation scratch path,
//! one window at a time and four in lockstep — the ablations for the
//! banded-DP, scratch-arena and lane design choices called out in
//! DESIGN.md.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use genome::alphabet::Base;
use genome::read::SequencedRead;
use genome::seq::DnaSeq;
use pairhmm::backward::backward;
use pairhmm::forward::forward;
use pairhmm::marginal::PosteriorAlignment;
use pairhmm::params::PhmmParams;
use pairhmm::pwm::Pwm;
use pairhmm::viterbi::viterbi;
use pairhmm::{EmissionTable, PhmmScratch};
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

struct Fixture {
    pwm: Pwm,
    window: Vec<Option<Base>>,
    emit: EmissionTable,
    params: PhmmParams,
}

fn random_pair(len: usize, seed: u64) -> Fixture {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let params = PhmmParams::default();
    let bases: Vec<Base> = (0..len)
        .map(|_| Base::from_index(rng.random_range(0..4)))
        .collect();
    let genome_seq = DnaSeq::from_bases(bases.iter().copied());
    // Read = the window with ~1% mutations, realistic qualities.
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
    let pwm = Pwm::from_read(&read);
    let emit = pwm.emission_table(&window, &params);
    Fixture {
        pwm,
        window,
        emit,
        params,
    }
}

fn bench_forward_by_length(c: &mut Criterion) {
    let mut group = c.benchmark_group("phmm_forward");
    for len in [36usize, 62, 100, 150] {
        let fx = random_pair(len, 1);
        group.bench_with_input(BenchmarkId::from_parameter(len), &len, |b, _| {
            b.iter(|| black_box(forward(black_box(fx.emit.view()), &fx.params, None).total))
        });
    }
    group.finish();
}

fn bench_forward_backward_pair(c: &mut Criterion) {
    let fx = random_pair(62, 2);
    c.bench_function("phmm_forward_backward_62bp", |b| {
        b.iter(|| {
            let f = forward(black_box(fx.emit.view()), &fx.params, None);
            let bwd = backward(black_box(fx.emit.view()), &fx.params, None);
            black_box(f.total + bwd.total)
        })
    });
}

fn bench_banded_vs_full(c: &mut Criterion) {
    let mut group = c.benchmark_group("phmm_banded_vs_full_62bp");
    let fx = random_pair(62, 3);
    group.bench_function("full", |b| {
        b.iter(|| black_box(forward(black_box(fx.emit.view()), &fx.params, None).total))
    });
    for w in [2usize, 4, 8, 16] {
        group.bench_with_input(BenchmarkId::new("banded", w), &w, |b, &w| {
            b.iter(|| black_box(forward(black_box(fx.emit.view()), &fx.params, Some(w)).total))
        });
    }
    group.bench_function("backward_banded_w4", |b| {
        b.iter(|| black_box(backward(black_box(fx.emit.view()), &fx.params, Some(4)).total))
    });
    group.finish();
}

fn bench_viterbi(c: &mut Criterion) {
    let fx = random_pair(62, 4);
    c.bench_function("phmm_viterbi_62bp", |b| {
        b.iter(|| black_box(viterbi(black_box(fx.emit.view()), &fx.params).probability))
    });
}

/// The materialized-tables marginal pass vs the fused streaming scratch
/// path — the headline ablation for the scratch-arena refactor — and the
/// fused path's four-lane lockstep form.
fn bench_marginal_fused_vs_materialized(c: &mut Criterion) {
    let mut group = c.benchmark_group("phmm_marginal_62bp");
    let fx = random_pair(62, 5);
    group.bench_function("materialized", |b| {
        b.iter(|| {
            let post =
                PosteriorAlignment::from_emissions(black_box(fx.emit.view()), &fx.params, None);
            black_box(post.column_posteriors(&fx.pwm))
        })
    });
    let mut scratch = PhmmScratch::new();
    group.bench_function("fused_scratch", |b| {
        b.iter(|| {
            black_box(scratch.posterior_columns(
                black_box(&fx.pwm),
                black_box(&fx.window),
                &fx.params,
                None,
            ))
        })
    });
    let mut banded_scratch = PhmmScratch::new();
    group.bench_function("fused_scratch_banded_w4", |b| {
        b.iter(|| {
            black_box(banded_scratch.posterior_columns(
                black_box(&fx.pwm),
                black_box(&fx.window),
                &fx.params,
                Some(4),
            ))
        })
    });
    // The lockstep path the mapper runs: one read against 1, 4 and 64
    // windows of its length at band 4, four lanes at a time. The rate is
    // windows per second, the per-window cost next to the one-window row
    // above: 1 window is a lone window on one lane, 4 one full group, 64
    // a read at the candidate cap. The read's blend rows are rebuilt each
    // iteration, as the mapper builds them once per oriented read.
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    let windows: Vec<Vec<Option<Base>>> = (0..64)
        .map(|_| {
            fx.window
                .iter()
                .map(|&b| {
                    if rng.random_bool(0.05) {
                        Some(Base::from_index(rng.random_range(0..4)))
                    } else {
                        b
                    }
                })
                .collect()
        })
        .collect();
    let mut lane_scratch = PhmmScratch::new();
    let mut blend = Vec::new();
    for count in [1usize, 4, 64] {
        group.throughput(Throughput::Elements(count as u64));
        group.bench_with_input(
            BenchmarkId::new("posterior_columns_lanes", count),
            &count,
            |b, &count| {
                b.iter(|| {
                    fx.pwm.fill_blend(&fx.params, &mut blend);
                    let mut sink = 0.0;
                    lane_scratch.score_windows(
                        black_box(&fx.pwm),
                        &blend,
                        black_box(&windows[..count]),
                        &fx.params,
                        Some(4),
                        |_, total, _| sink += total,
                    );
                    black_box(sink)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_forward_by_length,
    bench_forward_backward_pair,
    bench_banded_vs_full,
    bench_viterbi,
    bench_marginal_fused_vs_materialized
);
criterion_main!(benches);
