//! End-to-end benchmark of the gnumap pipeline, FASTQ/FASTA on disk to
//! VCF on disk, through the same public functions `gnumap call` and
//! `gnumap serve` use.
//!
//! ```text
//! perfbench gen   --workload W --seed N --dir D
//! perfbench run   --workload W --seed N --dir D --seconds S --trace 0|1
//! perfbench setup --workload W --dir D
//! ```
//!
//! `gen` writes the workload's inputs and truth into `D`; `run` measures
//! them. With `--trace 0` the run prints the end-to-end metrics; with
//! `--trace 1` it makes the traced re-enactment and prints the per-layer
//! metrics. `setup` times the workload's set-up repeatedly and prints the
//! samples; `run` starts it as a child process. The last line of standard output is the result object; the
//! line before it records the host and the configuration.

mod call;
mod host;
mod layers;
mod replay;
mod report;
mod serve;
mod trace;
mod workload;

use genome::alphabet::Base;
use gnumap_core::snpcall::SnpCall;
use report::Outcome;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use workload::{Mode, Spec};

/// Time one set-up of the workload at least 5 and at most 51 times,
/// stopping once 2 s have gone into it. Short set-ups are sampled many
/// times because single samples scatter widely.
fn setup_samples(spec: &Spec, inputs: &Inputs) -> Result<Vec<f64>, String> {
    let reference = workload::read_reference(&inputs.reference)?;
    let mut samples = Vec::new();
    loop {
        samples.push(match spec.mode {
            Mode::Call { .. } => call::setup_once(spec, inputs)?,
            Mode::Serve { .. } => serve::setup_once(spec, &reference)?,
        });
        let spent: f64 = samples.iter().sum();
        if samples.len() >= 51 || (samples.len() >= 5 && spent >= 2.0) {
            return Ok(samples);
        }
    }
}

/// Set-up is timed in a child process of its own, so the memory its
/// repetitions leave behind does not count toward the measured
/// process's peak RSS.
fn setup_in_child(args: &Args) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let child = std::process::Command::new(exe)
        .arg("setup")
        .args(["--workload", &args.workload, "--dir"])
        .arg(&args.dir)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("set-up process: {e}"))?;
    if !child.status.success() {
        return Err(format!("set-up process failed: {}", child.status));
    }
    String::from_utf8_lossy(&child.stdout)
        .split_whitespace()
        .map(|s| {
            s.parse::<f64>()
                .map_err(|_| format!("set-up process printed {s:?}"))
        })
        .collect()
}

/// The files of one generated workload.
pub struct Inputs {
    pub dir: PathBuf,
    pub reference: PathBuf,
    pub reads: PathBuf,
    pub groups: PathBuf,
    pub vcf: PathBuf,
    pub trace: PathBuf,
}

impl Inputs {
    fn new(dir: &Path) -> Inputs {
        Inputs {
            dir: dir.to_path_buf(),
            reference: dir.join("reference.fa"),
            reads: dir.join("reads.fq"),
            groups: dir.join("groups.tsv"),
            vcf: dir.join("calls.vcf"),
            trace: dir.join("trace.jsonl"),
        }
    }
}

/// True/false positive and false negative counts against planted truth.
#[derive(Debug, Clone, Copy, Default)]
pub struct Accuracy {
    pub tp: u64,
    pub fp: u64,
    pub fn_: u64,
}

impl Accuracy {
    pub fn add(&mut self, o: &Accuracy) {
        self.tp += o.tp;
        self.fp += o.fp;
        self.fn_ += o.fn_;
    }

    pub fn sensitivity(&self) -> f64 {
        self.tp as f64 / (self.tp + self.fn_).max(1) as f64
    }

    pub fn precision(&self) -> f64 {
        self.tp as f64 / (self.tp + self.fp).max(1) as f64
    }
}

/// The lowest accuracy a correct run may show. The seed code clears
/// these on every workload with room to spare; a change that falls
/// below them has broken calling, not tuned it.
pub struct Floors {
    sensitivity: f64,
    precision: f64,
}

impl Floors {
    pub fn for_spec(spec: &Spec) -> Floors {
        match spec.ploidy {
            gnumap_stats::lrt::Ploidy::Diploid => Floors {
                sensitivity: 0.85,
                precision: 0.9,
            },
            gnumap_stats::lrt::Ploidy::Monoploid => Floors {
                sensitivity: 0.9,
                precision: 0.9,
            },
        }
    }

    pub fn pass(&self, a: &Accuracy) -> bool {
        a.sensitivity() >= self.sensitivity && a.precision() >= self.precision
    }
}

/// Write calls as `gnumap call --out` does.
pub fn write_vcf(path: &Path, calls: &[SnpCall]) -> Result<(), String> {
    let records: Vec<_> = calls
        .iter()
        .map(|c| c.to_vcf_record(workload::CHROM))
        .collect();
    let file = File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = BufWriter::new(file);
    genome::vcf::write_vcf(&mut w, "sample", &records).map_err(|e| e.to_string())?;
    w.flush().map_err(|e| format!("{}: {e}", path.display()))
}

/// Read a written VCF back and score it against the group's truth: a
/// record is a true positive when a planted SNP sits at its position and
/// its ALT alleles carry the planted allele. Records in the group's
/// unscored edge bands are skipped.
pub fn score_vcf(path: &Path, group: &workload::Group) -> Result<Accuracy, String> {
    let file = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let records = genome::vcf::read_vcf(BufReader::new(file)).map_err(|e| e.to_string())?;
    let truth: std::collections::HashMap<usize, Base> = group.truth.iter().copied().collect();
    let mut a = Accuracy::default();
    let mut found = std::collections::HashSet::new();
    for r in records.iter().filter(|r| group.scored(r.pos)) {
        match truth.get(&r.pos) {
            Some(alt) if r.alts.contains(alt) => {
                a.tp += 1;
                found.insert(r.pos);
            }
            _ => a.fp += 1,
        }
    }
    a.fn_ = (truth.len() - found.len()) as u64;
    Ok(a)
}

struct Args {
    command: String,
    workload: String,
    seed: u64,
    dir: PathBuf,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let command = it.next().ok_or("missing command (gen | run | setup)")?;
    let mut args = Args {
        command,
        workload: String::new(),
        seed: 0,
        dir: PathBuf::new(),
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: bad value {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--dir" => args.dir = PathBuf::from(value),
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if args.dir.as_os_str().is_empty() {
        return Err("--dir is required".into());
    }
    Ok(args)
}

/// Threads, ranks, workers or client connections the workload uses; no
/// speed-up is ever measured with more of them than cores.
fn parallelism(spec: &Spec) -> usize {
    match spec.mode {
        Mode::Call { ranks, .. } => ranks,
        Mode::Serve {
            workers, clients, ..
        } => workers.max(clients),
    }
}

/// The host and configuration record.
fn record(spec: &Spec, out: &mut Outcome, seed: u64, seconds: f64, trace: bool) {
    let config = spec.config();
    out.record_str("workload", spec.name);
    out.record_num("seed", seed);
    out.record_num("seconds", seconds);
    out.record_num("trace", u8::from(trace));
    out.record_num("nproc", host::nproc());
    out.record_str("cpu_model", &host::cpu_model());
    match spec.mode {
        Mode::Call { driver, ranks, .. } => {
            out.record_str("driver", driver);
            out.record_num("ranks", ranks);
        }
        Mode::Serve {
            workers,
            clients,
            pool,
            ..
        } => {
            out.record_str("driver", "server");
            out.record_num("workers", workers);
            out.record_num("clients", clients);
            out.record_num("amplicon_pool", pool);
        }
    }
    out.record_str("accumulator", config.accumulator.name());
    out.record_num(
        "band",
        config.mapping.band.map_or("null".into(), |b| b.to_string()),
    );
    out.record_num("k", config.mapping.index.k);
    out.record_num("max_candidates", config.mapping.max_candidates);
    out.record_num("genome_len", spec.genome_len);
    out.record_num("region_len", spec.region_len);
    out.record_num("coverage", spec.coverage);
    out.record_str("ploidy", &format!("{:?}", spec.ploidy));
}

fn main() {
    let result = parse_args().and_then(|args| {
        let spec = workload::spec(&args.workload)?;
        match args.command.as_str() {
            "gen" => workload::generate(spec, args.seed, &args.dir).map(|()| None),
            "setup" => {
                let samples = setup_samples(spec, &Inputs::new(&args.dir))?;
                let text: Vec<String> = samples.iter().map(|s| s.to_string()).collect();
                println!("{}", text.join(" "));
                Ok(None)
            }
            "run" => {
                let cores = host::nproc();
                if parallelism(spec) > cores {
                    return Err(format!(
                        "{} needs {} threads but only {cores} cores are available",
                        spec.name,
                        parallelism(spec)
                    ));
                }
                let inputs = Inputs::new(&args.dir);
                let mut out = Outcome::default();
                record(spec, &mut out, args.seed, args.seconds, args.trace);
                let measured = if args.trace {
                    match spec.mode {
                        Mode::Call { .. } => call::run_traced(spec, &inputs, args.seed, &mut out),
                        Mode::Serve { .. } => serve::run_traced(spec, &inputs, &mut out),
                    }
                } else {
                    setup_in_child(&args).and_then(|setups| match spec.mode {
                        Mode::Call { .. } => {
                            call::run(spec, &inputs, args.seed, args.seconds, &setups, &mut out)
                        }
                        Mode::Serve { .. } => {
                            serve::run(spec, &inputs, args.seconds, &setups, &mut out)
                        }
                    })
                };
                // A run cut short by an error still prints its result:
                // the error is one more failed operation, and whatever it
                // kept from being measured reads 0.
                if let Err(e) = measured {
                    eprintln!("perfbench: {e}");
                    out.op(false);
                    if out.metrics.is_empty() {
                        if args.trace {
                            layers::emit(
                                &mut out,
                                &Default::default(),
                                &Default::default(),
                                &Default::default(),
                            );
                        } else {
                            report::EndToEnd::default().emit(&mut out);
                        }
                    }
                }
                Ok(Some(out))
            }
            other => Err(format!(
                "unknown command {other:?} (expected gen | run | setup)"
            )),
        }
    });
    match result {
        Ok(Some(out)) => println!("{}", out.render()),
        Ok(None) => {}
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
