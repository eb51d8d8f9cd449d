//! Command-line interface plumbing for the `gnumap` binary.
//!
//! A deliberately small hand-rolled argument parser (the workspace's
//! offline dependency set has no CLI crate): `--key value` pairs and
//! `--flag` booleans after a subcommand, with typed accessors and
//! precise error messages. Parsing is pure and fully unit-tested; the
//! binary in `src/bin/gnumap.rs` is a thin shell around [`run`].
//!
//! One module per subcommand family:
//!
//! * [`simulate`] — synthetic genome/reads/truth generation;
//! * [`pipeline`] — `call` (driver-registry dispatch), `map`, `evaluate`,
//!   `index-stats`, `drivers`;
//! * [`serve`] — the batching TCP daemon;
//! * [`client`] — the blocking wire client;
//! * [`verify`] — the conformance harness and `trace-check`.
//!
//! Every execution mode of `call` resolves through
//! [`engine::DriverRegistry`]; this file holds only the parser, shared
//! option helpers, and the dispatch table.

mod client;
mod pipeline;
mod serve;
mod simulate;
mod verify;

use crate::core::accum::AccumulatorMode;
use crate::core::snpcall::Cutoff;
use genome::fasta;
use gnumap_stats::lrt::Ploidy;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufReader, Write};

/// A parsed command line: subcommand plus `--key [value]` options.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub command: String,
    options: BTreeMap<String, String>,
    /// Keys that appeared; used to reject unknown options.
    consumed: std::cell::RefCell<std::collections::BTreeSet<String>>,
}

/// Parse `argv[1..]`. Flags (`--x`) get the value `"true"`.
pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let command = argv
        .first()
        .filter(|c| !c.starts_with("--"))
        .ok_or("expected a subcommand: simulate | call | evaluate | index-stats")?
        .clone();
    let mut options = BTreeMap::new();
    let mut i = 1;
    while i < argv.len() {
        let key = argv[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --option, found {:?}", argv[i]))?
            .to_string();
        let value = match argv.get(i + 1) {
            Some(v) if !v.starts_with("--") => {
                i += 1;
                v.clone()
            }
            _ => "true".to_string(),
        };
        if options.insert(key.clone(), value).is_some() {
            return Err(format!("option --{key} given twice"));
        }
        i += 1;
    }
    Ok(Args {
        command,
        options,
        consumed: Default::default(),
    })
}

impl Args {
    /// Typed option with a default.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        self.consumed.borrow_mut().insert(key.to_string());
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse {v:?}")),
        }
    }

    /// Required string option.
    pub fn require(&self, key: &str) -> Result<String, String> {
        self.consumed.borrow_mut().insert(key.to_string());
        self.options
            .get(key)
            .cloned()
            .ok_or_else(|| format!("missing required option --{key}"))
    }

    /// Optional string option.
    pub fn optional(&self, key: &str) -> Option<String> {
        self.consumed.borrow_mut().insert(key.to_string());
        self.options.get(key).cloned()
    }

    /// Boolean flag.
    pub fn flag(&self, key: &str) -> bool {
        self.consumed.borrow_mut().insert(key.to_string());
        self.options.get(key).map(String::as_str) == Some("true")
    }

    /// Error on any option that no accessor asked for.
    pub fn reject_unknown(&self) -> Result<(), String> {
        let consumed = self.consumed.borrow();
        for key in self.options.keys() {
            if !consumed.contains(key) {
                return Err(format!("unknown option --{key} for {:?}", self.command));
            }
        }
        Ok(())
    }
}

/// Top-level dispatch; returns the process exit message on error.
pub fn run(argv: &[String], out: &mut dyn Write) -> Result<(), String> {
    let args = parse_args(argv)?;
    match args.command.as_str() {
        "simulate" => simulate::cmd_simulate(&args, out),
        "call" => pipeline::cmd_call(&args, out),
        "map" => pipeline::cmd_map(&args, out),
        "evaluate" => pipeline::cmd_evaluate(&args, out),
        "index-stats" => pipeline::cmd_index_stats(&args, out),
        "drivers" => pipeline::cmd_drivers(&args, out),
        "verify" => verify::cmd_verify(&args, out),
        "trace-check" => verify::cmd_trace_check(&args, out),
        "serve" => serve::cmd_serve(&args, out),
        "client" => client::cmd_client(&args, out),
        other => Err(format!(
            "unknown subcommand {other:?}; expected simulate | call | map | evaluate | \
             index-stats | drivers | verify | trace-check | serve | client"
        )),
    }
}

/// Usage text for `--help` and a bare `gnumap`.
pub const USAGE: &str = "\
gnumap — Pair-HMM SNP detection (GNUMAP-SNP reproduction)

USAGE:
  gnumap simulate    --out-dir DIR [--genome-len N] [--snps N] [--coverage X]
                     [--seed S] [--diploid] [--read-len N]
  gnumap call        --reference ref.fa --reads reads.fq [--out calls.vcf]
                     [--ploidy monoploid|diploid] [--alpha A | --fdr Q]
                     [--accumulator norm|chardisc|centdisc|fixed]
                     [--driver NAME] [--threads N] [--workers N]
                     [--batch-size N] [--shards N]
                     [--checkpoint-dir DIR] [--resume]
                     [--trace-json PATH]
                     [--min-coverage X] [--sample NAME]
                     (run `gnumap drivers` for the driver table)
  gnumap map         --reference ref.fa --reads reads.fq [--max N]
  gnumap evaluate    --calls calls.vcf --truth truth.tsv
  gnumap index-stats --reference ref.fa [--k N]
  gnumap drivers
  gnumap verify      [--fast]
  gnumap trace-check --trace trace.jsonl
  gnumap serve       --reference ref.fa [--addr HOST:PORT] [--workers N]
                     [--batch-size N] [--shards N] [--ingress-capacity N]
                     [--submit-timeout-ms MS] [--deadline-ms MS]
                     [--port-file PATH]
  gnumap client      --addr HOST:PORT (--ping | --stats | --shutdown |
                     --reads reads.fq [--ploidy P] [--alpha A | --fdr Q]
                     [--min-coverage X] [--chunk-size N] [--deadline-ms MS]
                     [--out calls.vcf] [--chrom NAME] [--sample NAME])
";

/// Load the first FASTA record of a reference file.
pub(crate) fn read_reference(path: &str) -> Result<(String, genome::DnaSeq), String> {
    let file = File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let records = fasta::read_fasta(BufReader::new(file)).map_err(|e| format!("{path}: {e}"))?;
    let record = records
        .into_iter()
        .next()
        .ok_or_else(|| format!("{path}: no FASTA records"))?;
    Ok((record.id, record.seq))
}

/// Parse a `--ploidy` value.
pub(crate) fn parse_ploidy(value: &str) -> Result<Ploidy, String> {
    match value {
        "monoploid" | "haploid" => Ok(Ploidy::Monoploid),
        "diploid" => Ok(Ploidy::Diploid),
        other => Err(format!("--ploidy: unknown value {other:?}")),
    }
}

/// Combine `--alpha` / `--fdr` into a cutoff (mutually exclusive;
/// defaults to `p < 0.05`).
pub(crate) fn parse_cutoff(alpha: Option<f64>, fdr: Option<f64>) -> Result<Cutoff, String> {
    match (alpha, fdr) {
        (Some(_), Some(_)) => Err("--alpha and --fdr are mutually exclusive".into()),
        (Some(a), None) => Ok(Cutoff::PValue(a)),
        (None, Some(q)) => Ok(Cutoff::Fdr(q)),
        (None, None) => Ok(Cutoff::PValue(0.05)),
    }
}

/// Parse an `--accumulator` value.
pub(crate) fn parse_accumulator(value: &str) -> Result<AccumulatorMode, String> {
    match value {
        "norm" => Ok(AccumulatorMode::Norm),
        "chardisc" => Ok(AccumulatorMode::CharDisc),
        "centdisc" => Ok(AccumulatorMode::CentDisc),
        "fixed" => Ok(AccumulatorMode::Fixed),
        other => Err(format!("--accumulator: unknown value {other:?}")),
    }
}

/// Parse an optional float option (`--alpha`, `--fdr`) with a typed error.
pub(crate) fn parse_float_opt(args: &Args, key: &str) -> Result<Option<f64>, String> {
    args.optional(key)
        .map(|v| v.parse())
        .transpose()
        .map_err(|_| format!("--{key}: expected a number"))
}

/// Helper for integration tests: run with string args against a buffer.
pub fn run_to_string(argv: &[&str]) -> Result<String, String> {
    let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
    let mut buf = Vec::new();
    run(&argv, &mut buf)?;
    String::from_utf8(buf).map_err(|e| e.to_string())
}

#[cfg(test)]
pub(crate) fn test_argv(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        test_argv(parts)
    }

    #[test]
    fn parses_subcommand_options_and_flags() {
        let args = parse_args(&argv(&[
            "call",
            "--reference",
            "ref.fa",
            "--threads",
            "4",
            "--diploid",
        ]))
        .unwrap();
        assert_eq!(args.command, "call");
        assert_eq!(args.require("reference").unwrap(), "ref.fa");
        assert_eq!(args.get::<usize>("threads", 1).unwrap(), 4);
        assert!(args.flag("diploid"));
        assert!(!args.flag("nonexistent"));
        assert_eq!(args.get::<u64>("seed", 7).unwrap(), 7);
    }

    #[test]
    fn missing_subcommand_is_an_error() {
        assert!(parse_args(&argv(&[])).is_err());
        assert!(parse_args(&argv(&["--reference", "x"])).is_err());
    }

    #[test]
    fn duplicate_option_rejected() {
        assert!(parse_args(&argv(&["call", "--k", "1", "--k", "2"])).is_err());
    }

    #[test]
    fn unknown_option_rejected_after_accessors() {
        let args = parse_args(&argv(&["index-stats", "--reference", "r", "--bogus", "1"])).unwrap();
        let _ = args.require("reference");
        let _ = args.get::<usize>("k", 10);
        assert!(args.reject_unknown().is_err());
    }

    #[test]
    fn bad_typed_value_reports_key() {
        let args = parse_args(&argv(&["call", "--threads", "lots"])).unwrap();
        let err = args.get::<usize>("threads", 1).unwrap_err();
        assert!(err.contains("--threads"));
    }

    #[test]
    fn unknown_subcommand_is_reported() {
        let mut buf = Vec::new();
        let err = run(&argv(&["frobnicate"]), &mut buf).unwrap_err();
        assert!(err.contains("frobnicate"));
    }

    #[test]
    fn shared_option_parsers() {
        assert_eq!(parse_ploidy("haploid").unwrap(), Ploidy::Monoploid);
        assert!(parse_ploidy("triploid").is_err());
        assert!(matches!(
            parse_cutoff(None, None).unwrap(),
            Cutoff::PValue(_)
        ));
        assert!(parse_cutoff(Some(0.05), Some(0.05)).is_err());
        assert_eq!(parse_accumulator("fixed").unwrap(), AccumulatorMode::Fixed);
        assert!(parse_accumulator("sparse")
            .unwrap_err()
            .contains("unknown value"));
    }
}
