//! The three workloads: their parameters, the input generator, and the
//! loaders that read the generated files back.
//!
//! Generation runs in its own process before any timing starts and
//! writes only files; the measured process sees nothing but those files.
//! Everything is derived from the seed argument.

use genome::alphabet::Base;
use genome::read::SequencedRead;
use genome::seq::DnaSeq;
use genome::{fasta, fastq};
use gnumap_core::accum::{AccumulatorMode, FixedAccumulator, GenomeAccumulator};
use gnumap_core::mapping::AlignScratch;
use gnumap_core::snpcall::{Cutoff, SnpCallConfig};
use gnumap_core::{GnumapConfig, MappingEngine};
use gnumap_stats::lrt::Ploidy;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use simulate::reads::{simulate_reads, ReadSimConfig, ReadSource};
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Simulated read length (the paper's 62 bp).
pub const READ_LEN: usize = 62;
/// Chromosome name in the FASTA and the VCF.
pub const CHROM: &str = "chrBench";

/// How a workload drives the program.
#[derive(Debug, Clone, Copy)]
pub enum Mode {
    /// `gnumap call`: one registry driver over one FASTQ.
    Call {
        driver: &'static str,
        /// Threads or ranks handed to the driver.
        ranks: usize,
        accumulator: AccumulatorMode,
    },
    /// Closed-loop clients against a loopback server.
    Serve {
        workers: usize,
        clients: usize,
        /// Distinct amplicons; sessions cycle through them.
        pool: usize,
        /// Fewest sessions a run completes, so p90 has ten samples beyond.
        min_sessions: usize,
        /// Reads per `SubmitReads` frame; `gnumap client` sends 256 by
        /// default (`--chunk-size`).
        chunk: usize,
    },
}

/// One workload's parameters.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub genome_len: usize,
    /// Length of each region reads are drawn from: the whole genome, one
    /// target region, or one amplicon.
    pub region_len: usize,
    pub coverage: f64,
    pub ploidy: Ploidy,
    pub mode: Mode,
}

/// Planted SNPs per kilobase of reference.
const SNPS_PER_KBP: usize = 2;

pub const SPECS: &[Spec] = &[
    Spec {
        name: "deep-small",
        genome_len: 100_000,
        region_len: 100_000,
        coverage: 30.0,
        ploidy: Ploidy::Diploid,
        mode: Mode::Call {
            driver: "serial",
            ranks: 1,
            accumulator: AccumulatorMode::Norm,
        },
    },
    Spec {
        name: "panel-large",
        genome_len: 1_600_000,
        region_len: 50_000,
        coverage: 12.0,
        ploidy: Ploidy::Monoploid,
        mode: Mode::Call {
            driver: "read-split",
            ranks: 2,
            accumulator: AccumulatorMode::Fixed,
        },
    },
    Spec {
        name: "amplicon-serve",
        genome_len: 400_000,
        region_len: 2_000,
        coverage: 15.0,
        ploidy: Ploidy::Monoploid,
        mode: Mode::Serve {
            workers: 2,
            clients: 2,
            pool: 32,
            min_sessions: 100,
            chunk: 256,
        },
    },
];

/// Look a workload up by name.
pub fn spec(name: &str) -> Result<&'static Spec, String> {
    SPECS.iter().find(|s| s.name == name).ok_or_else(|| {
        let names: Vec<_> = SPECS.iter().map(|s| s.name).collect();
        format!("unknown workload {name:?} (expected one of {names:?})")
    })
}

impl Spec {
    /// The program configuration every workload runs: the production
    /// mapping defaults (banded DP, band 4, k = 10) and FDR 0.05 calling.
    pub fn config(&self) -> GnumapConfig {
        GnumapConfig {
            calling: SnpCallConfig {
                ploidy: self.ploidy,
                cutoff: Cutoff::Fdr(0.05),
                ..Default::default()
            },
            accumulator: match self.mode {
                Mode::Call { accumulator, .. } => accumulator,
                Mode::Serve { .. } => AccumulatorMode::Fixed,
            },
            ..Default::default()
        }
    }

    /// Regions reads are drawn from: one for call workloads, the amplicon
    /// pool for the serve workload.
    fn regions(&self, rng: &mut ChaCha8Rng) -> Vec<usize> {
        let count = match self.mode {
            Mode::Call { .. } => 1,
            Mode::Serve { pool, .. } => pool,
        };
        (0..count)
            .map(|_| rng.random_range(0..=self.genome_len - self.region_len))
            .collect()
    }
}

/// One group of reads with its truth: the whole call workload, or one
/// amplicon of the serve workload.
#[derive(Debug, Clone)]
pub struct Group {
    /// Index of the group's first read in `reads.fq`.
    pub first_read: usize,
    pub reads: usize,
    /// Serial `FixedAccumulator` digest of the group's reads (serve only;
    /// 0 for call workloads).
    pub digest: u64,
    /// Half-open bands at the region's edges where coverage tapers; calls
    /// there are not scored.
    pub unscored: [(usize, usize); 2],
    /// Planted `(position, alternate)` pairs the reads cover fully.
    pub truth: Vec<(usize, Base)>,
}

impl Group {
    /// Whether a call or a planted SNP at `pos` is scored.
    pub fn scored(&self, pos: usize) -> bool {
        !self
            .unscored
            .iter()
            .any(|&(lo, hi)| (lo..hi).contains(&pos))
    }
}

/// Generate the workload for `seed` into `dir`: `reference.fa`,
/// `reads.fq` and `groups.tsv` (read ranges, digests and truth).
pub fn generate(spec: &Spec, seed: u64, dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let reference = simulate::generate_genome(
        &simulate::GenomeConfig {
            length: spec.genome_len,
            repeat_families: (spec.genome_len / 25_000).max(1),
            ..Default::default()
        },
        &mut rng,
    );
    let catalog = simulate::generate_snp_catalog(
        &reference,
        &simulate::SnpCatalogConfig {
            count: spec.genome_len / 1000 * SNPS_PER_KBP,
            ..Default::default()
        },
        &mut rng,
    );
    let read_cfg = ReadSimConfig {
        read_length: READ_LEN,
        coverage: spec.coverage,
        ..Default::default()
    };
    let count = read_cfg.read_count(spec.region_len);
    let starts = spec.regions(&mut rng);
    let mut reads = Vec::new();
    let mut groups = Vec::new();
    if spec.ploidy == Ploidy::Diploid {
        let individual = simulate::apply_snps_diploid(&reference, &catalog, &mut rng);
        assert_eq!(starts, [0], "diploid workloads draw from the whole genome");
        reads = simulate_reads(
            &ReadSource::Diploid(&individual),
            count,
            &read_cfg,
            &mut rng,
        );
        groups.push((0, 0, spec.genome_len));
    } else {
        let individual = simulate::apply_snps_monoploid(&reference, &catalog);
        for &start in &starts {
            let region = individual.window(start, start + spec.region_len);
            let first = reads.len();
            reads.extend(simulate_reads(
                &ReadSource::Monoploid(&region),
                count,
                &read_cfg,
                &mut rng,
            ));
            groups.push((first, start, start + spec.region_len));
        }
    }
    let reads: Vec<SequencedRead> = reads.into_iter().map(|r| r.read).collect();

    // Coverage tapers within a read length of a region's edge (except at
    // the genome's own ends). Those bands are left out of scoring: truth
    // is the planted SNPs the reads cover fully, and calls in the bands
    // count neither way.
    let mut groups: Vec<Group> = groups
        .iter()
        .map(|&(first, lo, hi)| {
            let low = if lo == 0 { (0, 0) } else { (lo, lo + READ_LEN) };
            let high = if hi == spec.genome_len {
                (hi, hi)
            } else {
                (hi - READ_LEN, hi)
            };
            let mut g = Group {
                first_read: first,
                reads: count,
                digest: 0,
                unscored: [low, high],
                truth: Vec::new(),
            };
            g.truth = catalog
                .iter()
                .filter(|s| (lo..hi).contains(&s.pos) && g.scored(s.pos))
                .map(|s| (s.pos, s.alt))
                .collect();
            g
        })
        .collect();
    if matches!(spec.mode, Mode::Serve { .. }) {
        let engine = MappingEngine::new(&reference, spec.config().mapping);
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let per_thread = groups.len().div_ceil(threads);
        std::thread::scope(|scope| {
            for part in groups.chunks_mut(per_thread) {
                let (engine, reads, len) = (&engine, &reads, reference.len());
                scope.spawn(move || {
                    for g in part {
                        g.digest = serial_digest(
                            engine,
                            &reads[g.first_read..g.first_read + g.reads],
                            len,
                        );
                    }
                });
            }
        });
    }

    let create = |name: &str| {
        let path = dir.join(name);
        File::create(&path)
            .map(BufWriter::new)
            .map_err(|e| format!("{}: {e}", path.display()))
    };
    let record = fasta::FastaRecord {
        id: CHROM.into(),
        seq: reference,
    };
    let mut w = create("reference.fa")?;
    fasta::write_fasta(&mut w, &[record], 70).map_err(|e| e.to_string())?;
    w.flush().map_err(|e| e.to_string())?;
    let mut w = create("reads.fq")?;
    fastq::write_fastq(&mut w, &reads).map_err(|e| e.to_string())?;
    w.flush().map_err(|e| e.to_string())?;
    let mut w = create("groups.tsv")?;
    for g in &groups {
        let truth: Vec<String> = g.truth.iter().map(|(p, b)| format!("{p}:{b}")).collect();
        let [(a, b), (c, d)] = g.unscored;
        writeln!(
            w,
            "{}\t{}\t{}\t{a}\t{b}\t{c}\t{d}\t{}",
            g.first_read,
            g.reads,
            g.digest,
            truth.join(",")
        )
        .map_err(|e| e.to_string())?;
    }
    w.flush().map_err(|e| e.to_string())
}

/// The serial driver's map → deposit body over `reads` into a fresh
/// `FixedAccumulator`, and that accumulator's digest.
fn serial_digest(engine: &MappingEngine<'_>, reads: &[SequencedRead], len: usize) -> u64 {
    let mut acc = FixedAccumulator::new(len);
    let mut scratch = AlignScratch::new();
    gnumap_core::pipeline::accumulate_reads_with(engine, reads, &mut acc, &mut scratch);
    acc.digest()
}

/// Parse the generated reference.
pub fn read_reference(path: &Path) -> Result<DnaSeq, String> {
    let file = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    fasta::read_fasta(BufReader::new(file))
        .map_err(|e| format!("{}: {e}", path.display()))?
        .into_iter()
        .next()
        .map(|r| r.seq)
        .ok_or_else(|| format!("{}: no FASTA record", path.display()))
}

/// Parse the generated reads.
pub fn read_reads(path: &Path) -> Result<Vec<SequencedRead>, String> {
    let file = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    fastq::read_fastq(BufReader::new(file)).map_err(|e| format!("{}: {e}", path.display()))
}

/// Parse `groups.tsv`.
pub fn read_groups(path: &Path) -> Result<Vec<Group>, String> {
    let file = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let bad = |line: usize| format!("{}:{line}: malformed group", path.display());
    let mut out = Vec::new();
    for (i, line) in BufReader::new(file).lines().enumerate() {
        let line = line.map_err(|e| e.to_string())?;
        let f: Vec<&str> = line.split('\t').collect();
        if f.len() != 8 {
            return Err(bad(i + 1));
        }
        let num = |s: &str| s.parse::<u64>().map_err(|_| bad(i + 1));
        let mut truth = Vec::new();
        for item in f[7].split(',').filter(|s| !s.is_empty()) {
            let (pos, base) = item.split_once(':').ok_or_else(|| bad(i + 1))?;
            let base = base
                .bytes()
                .next()
                .and_then(Base::from_ascii)
                .ok_or_else(|| bad(i + 1))?;
            truth.push((num(pos)? as usize, base));
        }
        out.push(Group {
            first_read: num(f[0])? as usize,
            reads: num(f[1])? as usize,
            digest: num(f[2])?,
            unscored: [
                (num(f[3])? as usize, num(f[4])? as usize),
                (num(f[5])? as usize, num(f[6])? as usize),
            ],
            truth,
        });
    }
    Ok(out)
}
