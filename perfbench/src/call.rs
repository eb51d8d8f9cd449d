//! The call workloads: `gnumap call` from FASTQ to VCF through a
//! registry driver, and their traced re-enactment.

use crate::host;
use crate::layers;
use crate::replay::{probe_every, replay_reads, Work};
use crate::report::{EndToEnd, Outcome};
use crate::trace::{self, Lane};
use crate::workload::{self, Group, Mode, Spec};
use crate::{score_vcf, write_vcf, Accuracy, Floors, Inputs};
use engine::{DriverRegistry, NullSink, ReadSource, RunContext};
use genome::seq::DnaSeq;
use gnumap_core::accum::{AccumulatorMode, FixedAccumulator, GenomeAccumulator, NormAccumulator};
use gnumap_core::report::RunReport;
use gnumap_core::snpcall::{call_snps, SnpCall};
use gnumap_core::{GnumapConfig, MappingEngine};
use std::time::{Duration, Instant};

/// One `gnumap call` operation and what it produced.
struct Op {
    secs: f64,
    /// Process CPU seconds over the same interval.
    cpu: f64,
    reads: usize,
    report: RunReport,
    ok: bool,
    accuracy: Accuracy,
}

fn driver_and_ranks(spec: &Spec) -> (&'static str, usize) {
    match spec.mode {
        Mode::Call { driver, ranks, .. } => (driver, ranks),
        Mode::Serve { .. } => unreachable!("call workloads only"),
    }
}

/// FASTQ parse → driver run → VCF written, timed; then the checks.
fn call_once(
    spec: &Spec,
    inputs: &Inputs,
    reference: &DnaSeq,
    group: &Group,
    seed: u64,
) -> Result<Op, String> {
    let (driver_name, ranks) = driver_and_ranks(spec);
    let registry = DriverRegistry::standard();
    let driver = registry.get(driver_name).map_err(|e| e.to_string())?;
    let mut ctx = RunContext::new(reference);
    ctx.config = spec.config();
    ctx.threads = ranks;
    ctx.seed = seed;

    let cpu0 = host::process_cpu_secs();
    let start = Instant::now();
    let reads = workload::read_reads(&inputs.reads)?;
    let report = driver
        .run(&ctx, ReadSource::Slice(&reads), &mut NullSink)
        .map_err(|e| e.to_string())?;
    write_vcf(&inputs.vcf, &report.calls)?;
    let secs = start.elapsed().as_secs_f64();
    let cpu = host::process_cpu_secs() - cpu0;

    let accuracy = score_vcf(&inputs.vcf, group)?;
    let ok = report.reads_processed == group.reads
        && reads.len() == group.reads
        && Floors::for_spec(spec).pass(&accuracy);
    Ok(Op {
        secs,
        cpu,
        reads: reads.len(),
        report,
        ok,
        accuracy,
    })
}

/// Set-up as `gnumap call` pays it: FASTA parse plus index build.
pub fn setup_once(spec: &Spec, inputs: &Inputs) -> Result<f64, String> {
    let start = Instant::now();
    let reference = workload::read_reference(&inputs.reference)?;
    let engine = MappingEngine::new(&reference, spec.config().mapping);
    std::hint::black_box(engine.index().distinct_kmers());
    Ok(start.elapsed().as_secs_f64())
}

/// The untraced run: end-to-end metrics.
pub fn run(
    spec: &Spec,
    inputs: &Inputs,
    seed: u64,
    seconds: f64,
    setups: &[f64],
    out: &mut Outcome,
) -> Result<(), String> {
    let groups = workload::read_groups(&inputs.groups)?;
    let group = groups.first().ok_or("no read group")?;
    let reference = workload::read_reference(&inputs.reference)?;

    let start = Instant::now();
    let mut ops = Vec::new();
    let mut accuracy = Accuracy::default();
    let budget = Duration::from_secs_f64(seconds);
    loop {
        let op = call_once(spec, inputs, &reference, group, seed);
        match op {
            Ok(op) => {
                out.op(op.ok);
                accuracy.add(&op.accuracy);
                ops.push(op);
            }
            Err(e) => {
                eprintln!("operation failed: {e}");
                out.op(false);
            }
        }
        // Start another operation only if it is expected to end in time.
        let elapsed = start.elapsed();
        let mean = elapsed / out.attempted as u32;
        if elapsed + mean > budget {
            break;
        }
    }

    // Per-operation medians: the host's speed wanders between operations.
    let per_op = |f: fn(&Op) -> f64| trace::median(&ops.iter().map(f).collect::<Vec<_>>());
    EndToEnd {
        setups: setups.to_vec(),
        reads_per_s: per_op(|o| o.reads as f64 / o.secs),
        cpu_s_per_kread: per_op(|o| o.cpu / (o.reads as f64 / 1e3)),
        peak_rss_mb: host::peak_rss_mb(),
        sensitivity: accuracy.sensitivity(),
        precision: accuracy.precision(),
        latencies_ms: ops.iter().map(|o| o.secs * 1e3).collect(),
    }
    .emit(out);
    out.record_num("reads_per_op", group.reads);
    out.record_num("truth_snps", group.truth.len());
    Ok(())
}

/// The traced run: one untraced operation for the baseline wall time and
/// the driver's own report, then the re-enactment with spans.
pub fn run_traced(
    spec: &Spec,
    inputs: &Inputs,
    seed: u64,
    out: &mut Outcome,
) -> Result<(), String> {
    let groups = workload::read_groups(&inputs.groups)?;
    let group = groups.first().ok_or("no read group")?;
    let reference = workload::read_reference(&inputs.reference)?;
    let baseline = call_once(spec, inputs, &reference, group, seed)?;
    out.op(baseline.ok);

    let config = spec.config();
    let replayed = match config.accumulator {
        AccumulatorMode::Norm => replay::<NormAccumulator>(spec, inputs, &reference, &config)?,
        AccumulatorMode::Fixed => replay::<FixedAccumulator>(spec, inputs, &reference, &config)?,
        other => return Err(format!("no traced re-enactment for accumulator {other}")),
    };
    // The re-enactment must reproduce the driver's result: the digest
    // where fixed point makes it order-independent, the calls otherwise.
    let same = match config.accumulator {
        AccumulatorMode::Fixed => baseline.report.accumulator_digest == Some(replayed.digest),
        _ => baseline.report.calls == replayed.calls,
    };
    let ok = same && replayed.work.reads as usize == group.reads;
    if !ok {
        eprintln!("traced re-enactment disagrees with the driver run");
    }
    out.op(ok);

    std::fs::write(&inputs.trace, &replayed.jsonl).map_err(|e| e.to_string())?;
    let summary = trace::summarize(&replayed.spans);
    let fastq_bytes = std::fs::metadata(&inputs.reads)
        .map_err(|e| e.to_string())?
        .len();
    let r = &baseline.report;
    let (bytes, messages) = r.traffic.map_or((0, 0), |t| (t.payload_bytes, t.messages));
    layers::emit(
        out,
        &summary,
        &replayed.work,
        &layers::Extra {
            fastq_bytes,
            index_heap_bytes: replayed.index_heap_bytes,
            masked_kmers: replayed.masked_kmers,
            call_positions: replayed.call_positions,
            calls: replayed.calls.len(),
            reduce_bytes: bytes,
            reduce_messages: messages,
            cpu_imbalance: imbalance(&r.rank_cpu_secs),
            overhead_frac: replayed.wall / baseline.secs - 1.0,
            coverage: replayed.coverage,
            ..Default::default()
        },
    );
    out.record_num("untraced_op_s", format!("{:.4}", baseline.secs));
    out.record_num("traced_wall_s", format!("{:.4}", replayed.wall));
    out.record_num("probed_reads", replayed.work.probed);
    Ok(())
}

/// Max over mean of per-rank CPU seconds (0 without ranks).
fn imbalance(cpu: &[f64]) -> f64 {
    let mean = cpu.iter().sum::<f64>() / cpu.len().max(1) as f64;
    if mean <= 0.0 {
        return 0.0;
    }
    cpu.iter().copied().fold(0.0, f64::max) / mean
}

/// What the re-enactment produced.
struct Replayed {
    spans: Vec<trace::Span>,
    jsonl: Vec<u8>,
    wall: f64,
    coverage: f64,
    work: Work,
    calls: Vec<SnpCall>,
    digest: u64,
    index_heap_bytes: usize,
    masked_kmers: usize,
    call_positions: usize,
}

/// One rank's share of the re-enactment.
struct RankResult<A> {
    spans: Vec<trace::Span>,
    work: Work,
    total: Option<A>,
    index: (usize, usize),
}

/// Re-enact the workload's driver from the layers' public functions:
/// parse, then per rank index → map → deposit → reduce, then call and
/// write the VCF. With one rank this is the serial driver.
fn replay<A: GenomeAccumulator>(
    spec: &Spec,
    inputs: &Inputs,
    reference: &DnaSeq,
    config: &GnumapConfig,
) -> Result<Replayed, String> {
    let (_, ranks) = driver_and_ranks(spec);
    let epoch = Instant::now();
    let mut main = Lane::new(epoch, 0, None);
    let root = main.open("run", 0);
    let reads = main.time("fastq.parse", 0, || workload::read_reads(&inputs.reads))?;
    let every = probe_every(reads.len());

    let world_span = main.open("ranks", 0);
    let (results, _) = mpisim::World::new(ranks).run_with_report(|rank| {
        let (id, size) = (rank.id(), rank.size());
        let mut lane = Lane::new(epoch, 1 + id as u32, Some(world_span));
        lane.open("rank", id as u64);
        let engine = lane.time("index.build", id as u64, || {
            MappingEngine::new(reference, config.mapping)
        });
        let index = (engine.index().heap_bytes(), engine.index().masked_kmers());
        let mut acc = A::new(reference.len());
        let share = reads.iter().enumerate().skip(id).step_by(size);
        let work = replay_reads(&engine, reference, share, every, &mut acc, &mut lane);
        // A single rank has nothing to reduce (the serial driver).
        let total = if size == 1 {
            Some(acc)
        } else {
            lane.time("reduce", id as u64, || {
                let wires = rank.gather(0, acc.to_wire())?;
                let mut total = A::new(reference.len());
                for wire in &wires {
                    total.merge_wire(wire);
                }
                Some(total)
            })
        };
        lane.close();
        RankResult {
            spans: lane.finish(),
            work,
            total,
            index,
        }
    });
    main.close();
    let mut results = results;
    let total = results[0].total.take().expect("rank 0 gathers");
    let calls = main.time("call", 0, || call_snps(&total, reference, &config.calling));
    main.time("vcf.write", 0, || write_vcf(&inputs.vcf, &calls))?;
    main.close();

    let mut spans = main.finish();
    let mut work = Work::default();
    for r in &mut results {
        spans.append(&mut r.spans);
        work.add(&r.work);
    }
    let root_span = spans.iter().find(|s| s.id == root).expect("root recorded");
    let wall = (root_span.end_ns - root_span.start_ns) as f64 / 1e9;
    let coverage = trace::coverage(&spans, root);
    let mut jsonl = Vec::new();
    trace::write_json_lines(&spans, &mut jsonl).map_err(|e| e.to_string())?;
    let min_total = config.calling.min_total;
    let call_positions = (0..total.len())
        .filter(|&p| total.total(p) >= min_total)
        .count();
    let (index_heap_bytes, masked_kmers) = results[0].index;
    Ok(Replayed {
        spans,
        jsonl,
        wall,
        coverage,
        work,
        digest: total.digest(),
        calls,
        index_heap_bytes,
        masked_kmers,
        call_positions,
    })
}
