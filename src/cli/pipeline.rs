//! `gnumap call` / `map` / `evaluate` / `index-stats` / `drivers` —
//! the local pipeline commands.
//!
//! `call` resolves its execution mode exclusively through
//! [`engine::DriverRegistry`]: every registered driver (serial, rayon,
//! the MPI decompositions, the streaming engine, the loopback server) is
//! selectable with `--driver`, unknown names get a typo suggestion, and
//! `--trace-json` attaches a JSON-lines observer to any of them.

use super::{parse_accumulator, parse_cutoff, parse_float_opt, parse_ploidy, read_reference, Args};
use crate::core::observe::{JsonLinesSink, Observer};
use crate::core::snpcall::SnpCallConfig;
use crate::core::GnumapConfig;
use engine::{DriverRegistry, EngineError, NullSink, ReadSource, RunContext};
use genome::fastq;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::PathBuf;
use std::sync::Arc;

pub(super) fn cmd_call(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let reference_path = args.require("reference")?;
    let reads_path = args.require("reads")?;
    let out_path = args.optional("out");
    let sample: String = args.get("sample", "sample".to_string())?;
    let ploidy_s: String = args.get("ploidy", "monoploid".to_string())?;
    let alpha = parse_float_opt(args, "alpha")?;
    let fdr = parse_float_opt(args, "fdr")?;
    let accumulator_s: String = args.get("accumulator", "norm".to_string())?;
    let threads: usize = args.get("threads", 1usize)?;
    let min_coverage: f64 = args.get("min-coverage", 3.0f64)?;
    // `--threads N` (N > 1) without `--driver` keeps selecting the rayon
    // driver, as it did before `--driver` existed.
    let default_driver = if threads > 1 { "rayon" } else { "serial" };
    let driver_s: String = args.get("driver", default_driver.to_string())?;
    let workers: usize = args.get("workers", 2usize)?;
    let batch_size: usize = args.get("batch-size", 64usize)?;
    let shards: usize = args.get("shards", 16usize)?;
    let checkpoint_dir = args.optional("checkpoint-dir");
    let resume = args.flag("resume");
    let trace_json = args.optional("trace-json");
    args.reject_unknown()?;

    let registry = DriverRegistry::standard();
    let driver = registry
        .get(&driver_s)
        .map_err(|e| format!("--driver: {e}"))?;
    let caps = driver.capabilities();

    if !caps.checkpointing {
        for (given, flag) in [
            (checkpoint_dir.is_some(), "--checkpoint-dir"),
            (resume, "--resume"),
        ] {
            if given {
                return Err(format!("{flag} only applies to --driver stream"));
            }
        }
    }
    if resume && checkpoint_dir.is_none() {
        return Err("--resume needs --checkpoint-dir".into());
    }

    let calling = SnpCallConfig {
        ploidy: parse_ploidy(&ploidy_s)?,
        cutoff: parse_cutoff(alpha, fdr)?,
        min_total: min_coverage,
    };
    calling.validate()?;
    let accumulator = parse_accumulator(&accumulator_s)?;
    if !caps.supports(accumulator) {
        let supported: Vec<String> = caps
            .accumulators
            .iter()
            .map(|m| m.name().to_lowercase())
            .collect();
        return Err(format!(
            "--driver {} requires --accumulator {}",
            driver.name(),
            supported.join(" | ")
        ));
    }

    let (chrom, reference) = read_reference(&reference_path)?;

    let mut ctx = RunContext::new(&reference);
    ctx.config = GnumapConfig {
        calling,
        accumulator,
        ..Default::default()
    };
    // Streaming drivers size their worker pool with --workers; everything
    // else interprets the budget as threads/ranks via --threads.
    ctx.threads = if caps.streaming { workers } else { threads };
    ctx.batch_size = batch_size;
    ctx.shards = shards;
    ctx.checkpoint = match &checkpoint_dir {
        Some(dir) => {
            std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
            Some(exec::CheckpointPolicy {
                path: PathBuf::from(dir).join("call.ckpt"),
                every_batches: 64,
                resume,
            })
        }
        None => None,
    };
    let trace_sink = match &trace_json {
        Some(path) => {
            let file = File::create(path).map_err(|e| format!("{path}: {e}"))?;
            Some(Arc::new(JsonLinesSink::new(BufWriter::new(file))))
        }
        None => None,
    };
    if let Some(sink) = &trace_sink {
        ctx.observer = Observer::new(sink.clone());
    }

    // Every driver takes the FASTQ as a stream: the stream driver reads it
    // incrementally in constant memory, the others drain it first.
    let mut reads = exec::FastqStream::open(&reads_path).map_err(|e| e.to_string())?;
    let report = driver
        .run(&ctx, ReadSource::Stream(&mut reads), &mut NullSink)
        .map_err(|e| match e {
            EngineError::Exec(exec::ExecError::Fastq(e)) => format!("{reads_path}: {e}"),
            e => e.to_string(),
        })?;
    if let Some(sink) = &trace_sink {
        sink.flush().map_err(|e| format!("--trace-json: {e}"))?;
    }

    let records: Vec<_> = report
        .calls
        .iter()
        .map(|c| c.to_vcf_record(&chrom))
        .collect();
    match out_path {
        Some(p) => {
            let w = BufWriter::new(File::create(&p).map_err(|e| format!("{p}: {e}"))?);
            genome::vcf::write_vcf(w, &sample, &records).map_err(|e| e.to_string())?;
            writeln!(
                out,
                "mapped {}/{} reads in {:.2}s; wrote {} calls to {p}",
                report.reads_mapped,
                report.reads_processed,
                report.elapsed_secs,
                records.len()
            )
            .map_err(|e| e.to_string())?;
            if let Some(stats) = &report.stream {
                writeln!(
                    out,
                    "stream: {} workers, {} batches (occupancy {:.2}), \
                     {:.0} reads/cpu-sec, {} checkpoints{}",
                    stats.workers,
                    stats.batches_dispatched,
                    stats.mean_batch_occupancy,
                    crate::core::report::StreamStats::reads_per_cpu_sec(
                        report.reads_processed,
                        &report.rank_cpu_secs,
                    ),
                    stats.checkpoints_written,
                    if stats.resumed_from_checkpoint {
                        " (resumed)"
                    } else {
                        ""
                    },
                )
                .map_err(|e| e.to_string())?;
            }
            Ok(())
        }
        None => genome::vcf::write_vcf(out, &sample, &records).map_err(|e| e.to_string()),
    }
}

/// `gnumap drivers` — the registry's capability table.
pub(super) fn cmd_drivers(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    args.reject_unknown()?;
    write!(out, "{}", DriverRegistry::standard().driver_table()).map_err(|e| e.to_string())
}

pub(super) fn cmd_map(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let reference_path = args.require("reference")?;
    let reads_path = args.require("reads")?;
    let max: usize = args.get("max", usize::MAX)?;
    args.reject_unknown()?;

    let (_, reference) = read_reference(&reference_path)?;
    let reads_file = File::open(&reads_path).map_err(|e| format!("{reads_path}: {e}"))?;
    let reads =
        fastq::read_fastq(BufReader::new(reads_file)).map_err(|e| format!("{reads_path}: {e}"))?;

    let engine = crate::core::MappingEngine::new(&reference, GnumapConfig::default().mapping);
    writeln!(out, "#read	location	strand	posterior_weight").map_err(|e| e.to_string())?;
    let mut scratch = crate::core::mapping::AlignScratch::new();
    for read in reads.iter().take(max) {
        engine.map_read_with(read, &mut scratch);
        if scratch.is_empty() {
            writeln!(out, "{}	*	*	0", read.id).map_err(|e| e.to_string())?;
            continue;
        }
        for aln in scratch.alignments() {
            writeln!(
                out,
                "{}	{}	{}	{:.6}",
                read.id,
                aln.window_start,
                if aln.reverse { '-' } else { '+' },
                aln.score
            )
            .map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// Parse a `truth.tsv` written by `simulate`.
fn read_truth(path: &str) -> Result<Vec<(usize, genome::Base)>, String> {
    use std::io::BufRead;
    let file = File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out = Vec::new();
    for (lineno, line) in BufReader::new(file).lines().enumerate() {
        let line = line.map_err(|e| e.to_string())?;
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.len() < 3 {
            return Err(format!("{path}:{}: expected ≥3 columns", lineno + 1));
        }
        let pos: usize = fields[0]
            .parse()
            .map_err(|_| format!("{path}:{}: bad position", lineno + 1))?;
        let alt = fields[2]
            .bytes()
            .next()
            .and_then(genome::Base::from_ascii)
            .ok_or_else(|| format!("{path}:{}: bad alt allele", lineno + 1))?;
        out.push((pos, alt));
    }
    Ok(out)
}

pub(super) fn cmd_evaluate(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let calls_path = args.require("calls")?;
    let truth_path = args.require("truth")?;
    args.reject_unknown()?;

    let calls_file = File::open(&calls_path).map_err(|e| format!("{calls_path}: {e}"))?;
    let records = genome::vcf::read_vcf(BufReader::new(calls_file))
        .map_err(|e| format!("{calls_path}: {e}"))?;
    let truth = read_truth(&truth_path)?;

    let truth_map: std::collections::HashMap<usize, genome::Base> = truth.iter().copied().collect();
    let mut tp = 0usize;
    let mut fp = 0usize;
    let mut hit = std::collections::HashSet::new();
    for r in &records {
        match truth_map.get(&r.pos) {
            Some(alt) if r.alts.contains(alt) => {
                tp += 1;
                hit.insert(r.pos);
            }
            _ => fp += 1,
        }
    }
    let fn_ = truth.iter().filter(|(p, _)| !hit.contains(p)).count();
    let precision = if tp + fp == 0 {
        0.0
    } else {
        tp as f64 / (tp + fp) as f64
    };
    let sensitivity = if tp + fn_ == 0 {
        0.0
    } else {
        tp as f64 / (tp + fn_) as f64
    };
    writeln!(
        out,
        "TP {tp}  FP {fp}  FN {fn_}  precision {:.1}%  sensitivity {:.1}%",
        100.0 * precision,
        100.0 * sensitivity
    )
    .map_err(|e| e.to_string())
}

pub(super) fn cmd_index_stats(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let reference_path = args.require("reference")?;
    let k: usize = args.get("k", 10usize)?;
    args.reject_unknown()?;

    let (id, reference) = read_reference(&reference_path)?;
    let index = genome::KmerIndex::build(
        &reference,
        genome::IndexConfig {
            k,
            ..Default::default()
        },
    )
    .map_err(|e| e.to_string())?;
    writeln!(
        out,
        "contig {id}: {} bp, k = {k}\n  distinct k-mers : {}\n  stored positions: {}\n  masked repeats  : {}\n  index heap      : {} bytes",
        reference.len(),
        index.distinct_kmers(),
        index.total_positions(),
        index.masked_kmers(),
        index.heap_bytes()
    )
    .map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use crate::cli::run_to_string;

    #[test]
    fn end_to_end_simulate_call_evaluate() {
        let dir = std::env::temp_dir().join(format!("gnumap-cli-{}", std::process::id()));
        let dirs = dir.to_str().unwrap().to_string();
        std::fs::create_dir_all(&dir).unwrap();

        let msg = run_to_string(&[
            "simulate",
            "--out-dir",
            &dirs,
            "--genome-len",
            "8000",
            "--snps",
            "6",
            "--coverage",
            "14",
            "--seed",
            "5",
        ])
        .unwrap();
        assert!(msg.contains("reference.fa"));

        let fa = format!("{dirs}/reference.fa");
        let fq = format!("{dirs}/reads.fq");
        let vcf = format!("{dirs}/calls.vcf");
        let msg =
            run_to_string(&["call", "--reference", &fa, "--reads", &fq, "--out", &vcf]).unwrap();
        assert!(msg.contains("calls"), "{msg}");

        let truth = format!("{dirs}/truth.tsv");
        let eval = run_to_string(&["evaluate", "--calls", &vcf, "--truth", &truth]).unwrap();
        assert!(eval.starts_with("TP "), "{eval}");
        // At 14x on a clean 8 kb genome the caller should be near-perfect.
        let tp: usize = eval.split_whitespace().nth(1).unwrap().parse().unwrap();
        assert!(tp >= 5, "evaluation: {eval}");

        let stats = run_to_string(&["index-stats", "--reference", &fa]).unwrap();
        assert!(stats.contains("distinct k-mers"));

        // Alternative calling paths: FDR cutoff and CHARDISC accumulator.
        let vcf2 = format!("{dirs}/calls_fdr.vcf");
        run_to_string(&[
            "call",
            "--reference",
            &fa,
            "--reads",
            &fq,
            "--out",
            &vcf2,
            "--fdr",
            "0.05",
            "--accumulator",
            "chardisc",
        ])
        .unwrap();
        let eval2 = run_to_string(&["evaluate", "--calls", &vcf2, "--truth", &truth]).unwrap();
        assert!(eval2.starts_with("TP "), "{eval2}");

        // The map subcommand lists per-read posterior locations.
        let tsv =
            run_to_string(&["map", "--reference", &fa, "--reads", &fq, "--max", "25"]).unwrap();
        let data_lines: Vec<&str> = tsv.lines().filter(|l| !l.starts_with('#')).collect();
        assert!(data_lines.len() >= 25, "{} lines", data_lines.len());
        for line in &data_lines {
            let cols: Vec<&str> = line.split('\t').collect();
            assert_eq!(cols.len(), 4, "line {line:?}");
        }

        // Multi-threaded calling agrees with serial on the same input.
        let vcf3 = format!("{dirs}/calls_mt.vcf");
        run_to_string(&[
            "call",
            "--reference",
            &fa,
            "--reads",
            &fq,
            "--out",
            &vcf3,
            "--threads",
            "3",
        ])
        .unwrap();
        let a = std::fs::read_to_string(&vcf).unwrap();
        let b = std::fs::read_to_string(&vcf3).unwrap();
        let strip = |s: &str| -> Vec<String> {
            s.lines()
                .filter(|l| !l.starts_with('#'))
                .map(|l| l.split('\t').take(5).collect::<Vec<_>>().join("\t"))
                .collect()
        };
        assert_eq!(strip(&a), strip(&b), "threads must not change the calls");

        // Mutually exclusive cutoffs are rejected.
        let err = run_to_string(&[
            "call",
            "--reference",
            &fa,
            "--reads",
            &fq,
            "--alpha",
            "0.05",
            "--fdr",
            "0.05",
        ])
        .unwrap_err();
        assert!(err.contains("mutually exclusive"));

        std::fs::remove_dir_all(&dir).ok();
    }

    /// A fresh temp directory holding a simulated 3 kbp reference and
    /// its reads.
    fn simulated_inputs(tag: &str) -> (std::path::PathBuf, String, String) {
        let dir = std::env::temp_dir().join(format!("gnumap-cli-{tag}-{}", std::process::id()));
        let dirs = dir.to_str().unwrap().to_string();
        std::fs::create_dir_all(&dir).unwrap();
        run_to_string(&[
            "simulate",
            "--out-dir",
            &dirs,
            "--genome-len",
            "3000",
            "--snps",
            "2",
            "--coverage",
            "2",
            "--seed",
            "11",
        ])
        .unwrap();
        (
            dir,
            format!("{dirs}/reference.fa"),
            format!("{dirs}/reads.fq"),
        )
    }

    #[test]
    fn every_driver_reads_fastq_through_the_one_parser() {
        let (dir, fa, fq) = simulated_inputs("fastq-edges");
        // Two simulated records, each sequence line with a trailing space.
        let text = std::fs::read_to_string(&fq).unwrap();
        let spaced: String = text
            .lines()
            .take(8)
            .enumerate()
            .map(|(i, l)| {
                if i % 4 == 1 {
                    format!("{l} \n")
                } else {
                    format!("{l}\n")
                }
            })
            .collect();
        let spaced_fq = dir.join("spaced.fq");
        std::fs::write(&spaced_fq, spaced).unwrap();
        let bad_fq = dir.join("bad.fq");
        std::fs::write(&bad_fq, "@r1\nACXT\n+\nIIII\n").unwrap();

        let vcf = dir.join("out.vcf");
        for driver in ["serial", "stream", "rayon", "genome-split", "server"] {
            let call = |reads: &std::path::Path| {
                run_to_string(&[
                    "call",
                    "--reference",
                    &fa,
                    "--reads",
                    reads.to_str().unwrap(),
                    "--out",
                    vcf.to_str().unwrap(),
                    "--driver",
                    driver,
                ])
            };
            let msg = call(&spaced_fq).unwrap_or_else(|e| panic!("{driver}: {e}"));
            assert!(msg.contains("mapped 2/2 reads"), "{driver}: {msg}");
            let err = call(&bad_fq).unwrap_err();
            assert!(
                err.ends_with("invalid sequence character 'X' on line 2"),
                "{driver}: {err}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn call_rejects_out_of_range_cutoffs_and_coverage() {
        let (dir, fa, fq) = simulated_inputs("bad-config");
        for (flag, value, want) in [
            ("--alpha", "2", "alpha 2 is not a probability"),
            ("--alpha", "-1", "alpha -1 is not a probability"),
            ("--min-coverage", "nan", "min_total NaN is not a finite"),
            ("--min-coverage", "-5", "min_total -5 is not a finite"),
        ] {
            let err = run_to_string(&["call", "--reference", &fa, "--reads", &fq, flag, value])
                .unwrap_err();
            assert!(err.contains(want), "{flag} {value}: {err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn streaming_driver_end_to_end() {
        let dir = std::env::temp_dir().join(format!("gnumap-cli-stream-{}", std::process::id()));
        let dirs = dir.to_str().unwrap().to_string();
        std::fs::create_dir_all(&dir).unwrap();
        run_to_string(&[
            "simulate",
            "--out-dir",
            &dirs,
            "--genome-len",
            "8000",
            "--snps",
            "6",
            "--coverage",
            "14",
            "--seed",
            "5",
        ])
        .unwrap();
        let fa = format!("{dirs}/reference.fa");
        let fq = format!("{dirs}/reads.fq");

        let vcf_serial = format!("{dirs}/serial.vcf");
        run_to_string(&[
            "call",
            "--reference",
            &fa,
            "--reads",
            &fq,
            "--out",
            &vcf_serial,
        ])
        .unwrap();

        let vcf_stream = format!("{dirs}/stream.vcf");
        let ckpt = format!("{dirs}/ckpt");
        let msg = run_to_string(&[
            "call",
            "--reference",
            &fa,
            "--reads",
            &fq,
            "--out",
            &vcf_stream,
            "--driver",
            "stream",
            "--workers",
            "2",
            "--batch-size",
            "32",
            "--checkpoint-dir",
            &ckpt,
        ])
        .unwrap();
        assert!(msg.contains("stream: 2 workers"), "{msg}");

        // The streaming driver must call the same sites and alleles the
        // serial pipeline does (fixed-point vs float scoring may move the
        // statistics, not the calls, on this clean input).
        let strip = |s: &str| -> Vec<String> {
            s.lines()
                .filter(|l| !l.starts_with('#'))
                .map(|l| l.split('\t').take(5).collect::<Vec<_>>().join("\t"))
                .collect()
        };
        let a = std::fs::read_to_string(&vcf_serial).unwrap();
        let b = std::fs::read_to_string(&vcf_stream).unwrap();
        assert_eq!(strip(&a), strip(&b), "stream driver changed the calls");

        // Flag validation.
        let err = run_to_string(&[
            "call",
            "--reference",
            &fa,
            "--reads",
            &fq,
            "--driver",
            "stream",
            "--accumulator",
            "chardisc",
        ])
        .unwrap_err();
        assert!(err.contains("--accumulator norm"), "{err}");
        let err = run_to_string(&[
            "call",
            "--reference",
            &fa,
            "--reads",
            &fq,
            "--checkpoint-dir",
            &ckpt,
        ])
        .unwrap_err();
        assert!(err.contains("--driver stream"), "{err}");
        let err = run_to_string(&[
            "call",
            "--reference",
            &fa,
            "--reads",
            &fq,
            "--driver",
            "stream",
            "--resume",
        ])
        .unwrap_err();
        assert!(err.contains("--checkpoint-dir"), "{err}");
        let err = run_to_string(&[
            "call",
            "--reference",
            &fa,
            "--reads",
            &fq,
            "--driver",
            "warp",
        ])
        .unwrap_err();
        assert!(err.contains("unknown value"), "{err}");
        // Typos get a did-you-mean from the registry.
        let err = run_to_string(&[
            "call",
            "--reference",
            &fa,
            "--reads",
            &fq,
            "--driver",
            "sream",
        ])
        .unwrap_err();
        assert!(err.contains("did you mean \"stream\"?"), "{err}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn registry_drivers_and_trace_json_end_to_end() {
        let dir = std::env::temp_dir().join(format!("gnumap-cli-reg-{}", std::process::id()));
        let dirs = dir.to_str().unwrap().to_string();
        std::fs::create_dir_all(&dir).unwrap();
        run_to_string(&[
            "simulate",
            "--out-dir",
            &dirs,
            "--genome-len",
            "6000",
            "--snps",
            "5",
            "--coverage",
            "10",
            "--seed",
            "11",
        ])
        .unwrap();
        let fa = format!("{dirs}/reference.fa");
        let fq = format!("{dirs}/reads.fq");

        // The drivers table comes straight from the registry.
        let table = run_to_string(&["drivers"]).unwrap();
        for name in [
            "serial",
            "rayon",
            "read-split",
            "read-split-ring",
            "genome-split",
            "stream",
            "server",
        ] {
            assert!(table.contains(&format!("`{name}`")), "{table}");
        }

        // Every MPI decomposition is now reachable from the CLI, and all
        // fixed-point drivers produce identical calls.
        let vcf_fixed = format!("{dirs}/fixed.vcf");
        run_to_string(&[
            "call",
            "--reference",
            &fa,
            "--reads",
            &fq,
            "--out",
            &vcf_fixed,
            "--accumulator",
            "fixed",
        ])
        .unwrap();
        let strip = |s: &str| -> Vec<String> {
            s.lines()
                .filter(|l| !l.starts_with('#'))
                .collect::<Vec<_>>()
                .iter()
                .map(|l| l.to_string())
                .collect()
        };
        let want = strip(&std::fs::read_to_string(&vcf_fixed).unwrap());
        let batch_totals = |report: &str| -> String {
            report
                .lines()
                .find(|l| l.starts_with("batch totals:"))
                .unwrap_or_else(|| panic!("no batch totals in {report}"))
                .to_string()
        };
        let mut totals = Vec::new();
        for driver in ["read-split", "genome-split"] {
            let vcf = format!("{dirs}/{driver}.vcf");
            let trace = format!("{dirs}/{driver}.trace.jsonl");
            run_to_string(&[
                "call",
                "--reference",
                &fa,
                "--reads",
                &fq,
                "--out",
                &vcf,
                "--driver",
                driver,
                "--threads",
                "3",
                "--accumulator",
                "fixed",
                "--trace-json",
                &trace,
            ])
            .unwrap();
            let got = strip(&std::fs::read_to_string(&vcf).unwrap());
            assert_eq!(got, want, "{driver} calls diverged from serial fixed");
            // And the trace validates.
            let report = run_to_string(&["trace-check", "--trace", &trace]).unwrap();
            assert!(report.contains("run_start 1"), "{report}");
            assert!(report.contains("run_end 1"), "{report}");
            totals.push(batch_totals(&report));
        }
        // Both decompositions deposit the same kept alignments.
        assert_eq!(totals[0], totals[1]);

        std::fs::remove_dir_all(&dir).ok();
    }
}
