//! Criterion benches for end-to-end mapping throughput: the serial
//! pipeline per accumulator mode and the per-read mapping engine cost —
//! the numbers behind the rows of Figures 4/5 at one processor.

use bench::WorkloadSpec;
use criterion::{criterion_group, criterion_main, Criterion};
use gnumap_core::accum::{CharDiscAccumulator, GenomeAccumulator, NormAccumulator};
use gnumap_core::mapping::AlignScratch;
use gnumap_core::mapping::MappingEngine;
use gnumap_core::pipeline::accumulate_reads_with;
use gnumap_core::GnumapConfig;
use std::hint::black_box;

fn bench_map_read(c: &mut Criterion) {
    let w = WorkloadSpec {
        genome_len: 50_000,
        snp_count: 10,
        coverage: 2.0,
        seed: 9,
    }
    .build();
    let cfg = GnumapConfig::default();
    let engine = MappingEngine::new(&w.reference, cfg.mapping);
    let reads = &w.reads[..200.min(w.reads.len())];
    let mut group = c.benchmark_group("mapping");
    group.sample_size(10);
    let mut scratch = AlignScratch::new();
    group.bench_function("map_200_reads", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for read in reads {
                engine.map_read_with(black_box(read), &mut scratch);
                n += scratch.len();
            }
            black_box(n)
        })
    });
    group.finish();
}

fn bench_pipeline_modes(c: &mut Criterion) {
    let w = WorkloadSpec {
        genome_len: 30_000,
        snp_count: 6,
        coverage: 3.0,
        seed: 10,
    }
    .build();
    let cfg = GnumapConfig::default();
    let engine = MappingEngine::new(&w.reference, cfg.mapping);
    let mut group = c.benchmark_group("pipeline_accumulate");
    group.sample_size(10);
    group.bench_function("norm", |b| {
        b.iter(|| {
            let mut acc = NormAccumulator::new(w.reference.len());
            black_box(accumulate_reads_with(
                &engine,
                &w.reads,
                &mut acc,
                &mut AlignScratch::new(),
            ))
        })
    });
    group.bench_function("chardisc", |b| {
        b.iter(|| {
            let mut acc = CharDiscAccumulator::new(w.reference.len());
            black_box(accumulate_reads_with(
                &engine,
                &w.reads,
                &mut acc,
                &mut AlignScratch::new(),
            ))
        })
    });
    group.finish();
}

criterion_group!(mapping, bench_map_read, bench_pipeline_modes);
criterion_main!(mapping);
