//! The traced re-enactment of the map → deposit loop.
//!
//! Every read goes through the program's own public calls, as its
//! drivers make them: `MappingEngine::map_read_with` (span `map`), then
//! `pipeline::deposit` for each kept alignment (span `deposit`). A
//! sample of reads is additionally *probed*: the sub-layers inside
//! `map_read_with` are called one by one through their public functions
//! — `KmerIndex::seed_hits` (consumed as the mapper's candidate search
//! consumes them), `Pwm::from_read`, `MappingEngine::map_read_raw_with`
//! for the windows it keeps, and `PhmmScratch::posterior_columns` over
//! every candidate window — so seed, PWM and DP time and work are
//! measured without instrumenting the program.
//! Probe work is extra work; it shows in `trace.overhead_frac`.

use crate::trace::Lane;
use genome::read::SequencedRead;
use genome::seq::DnaSeq;
use gnumap_core::accum::GenomeAccumulator;
use gnumap_core::mapping::AlignScratch;
use gnumap_core::MappingEngine;
use pairhmm::kernel::{diagonal_bounds, row_range};
use pairhmm::{PhmmScratch, Pwm};

/// Reads probed per replay, about: enough for stable per-read ratios at
/// a few percent of extra work on the call workloads.
const PROBES: usize = 512;

/// Work counted from outside the program.
#[derive(Debug, Clone, Copy, Default)]
pub struct Work {
    /// Reads mapped and deposited.
    pub reads: u64,
    /// Alignments kept by `map_read_with`, over all reads.
    pub kept: u64,
    /// Posterior columns deposited.
    pub columns: u64,
    /// Reads probed.
    pub probed: u64,
    /// Seed hits the candidate search consumed for the probed reads,
    /// both strands.
    pub hits: u64,
    /// Windows scored by `map_read_raw_with` for the probed reads.
    pub windows: u64,
    /// Alignments kept for the probed reads.
    pub probed_kept: u64,
    /// In-band DP cells computed for the probed reads' candidate windows.
    pub cells: u64,
}

impl Work {
    pub fn add(&mut self, o: &Work) {
        self.reads += o.reads;
        self.kept += o.kept;
        self.columns += o.columns;
        self.probed += o.probed;
        self.hits += o.hits;
        self.windows += o.windows;
        self.probed_kept += o.probed_kept;
        self.cells += o.cells;
    }
}

/// Reads between probes for a replay of `reads` reads.
pub fn probe_every(reads: usize) -> usize {
    (reads / PROBES).max(1)
}

/// Map and deposit `reads` (with their global indices, the spans'
/// request ids) into `acc`, probing every `every`-th of them.
pub fn replay_reads<'a, A: GenomeAccumulator>(
    engine: &MappingEngine<'_>,
    reference: &DnaSeq,
    reads: impl Iterator<Item = (usize, &'a SequencedRead)>,
    every: usize,
    acc: &mut A,
    lane: &mut Lane,
) -> Work {
    let mut work = Work::default();
    let mut scratch = AlignScratch::new();
    let mut probe_scratch = Probe::default();
    for (n, (i, read)) in reads.enumerate() {
        let req = i as u64;
        lane.time("map", req, || engine.map_read_with(read, &mut scratch));
        let kept = scratch.len() as u64;
        work.reads += 1;
        work.kept += kept;
        lane.open("deposit", req);
        for aln in scratch.alignments() {
            work.columns += aln.columns.len() as u64;
            gnumap_core::pipeline::deposit(acc, aln.window_start, aln.score, aln.columns);
        }
        lane.close();
        if n % every == 0 {
            probe_scratch.run(engine, reference, read, req, lane, &mut work);
            work.probed_kept += kept;
        }
    }
    work
}

/// Buffers reused across probes.
#[derive(Default)]
struct Probe {
    raw: AlignScratch,
    phmm: PhmmScratch,
    /// Candidate starts, forward strand then reverse.
    starts: [Vec<usize>; 2],
    window: Vec<Option<genome::alphabet::Base>>,
}

impl Probe {
    fn run(
        &mut self,
        engine: &MappingEngine<'_>,
        reference: &DnaSeq,
        read: &SequencedRead,
        req: u64,
        lane: &mut Lane,
        work: &mut Work,
    ) {
        let config = *engine.config();
        lane.open("probe", req);
        let rc = read.reverse_complement();
        let [fwd, rev] = &mut self.starts;
        work.hits += lane.time("seed.lookup", req, || {
            candidate_starts(engine, read, fwd) + candidate_starts(engine, &rc, rev)
        });
        let pwms = lane.time("pwm.build", req, || {
            [Pwm::from_read(read), Pwm::from_read(&rc)]
        });
        lane.time("map.raw", req, || {
            engine.map_read_raw_with(read, &mut self.raw)
        });
        work.windows += self.raw.len() as u64;
        work.probed += 1;

        // Score each candidate window again as `map_read_raw_with` does:
        // the read against `len + window_pad` genome bases, band widened
        // by the pad.
        let n = read.len();
        let m = n + config.window_pad;
        let band = config.band.map(|w| w + config.window_pad);
        let cells = banded_cells(n, m, band);
        lane.open("phmm.dp", req);
        for (pwm, starts) in pwms.iter().zip(&self.starts) {
            for &start in starts {
                self.window.clear();
                self.window
                    .extend((0..m).map(|j| reference.try_get(start + j).flatten()));
                std::hint::black_box(self.phmm.posterior_columns(
                    pwm,
                    &self.window,
                    &config.phmm,
                    band,
                ));
                work.cells += cells;
            }
        }
        lane.close();
        lane.close();
    }
}

/// The placement starts the mapper scores for one oriented read, found
/// as `MappingEngine::map_read_raw_with` finds them: seed hits in index
/// order, starts that fall off the genome skipped, duplicates dropped,
/// stopping once `max_candidates` distinct starts are in hand. Returns
/// the seed hits consumed.
fn candidate_starts(
    engine: &MappingEngine<'_>,
    oriented: &SequencedRead,
    starts: &mut Vec<usize>,
) -> u64 {
    starts.clear();
    let mut hits = 0;
    for (qoff, gpos) in engine.index().seed_hits(&oriented.seq) {
        hits += 1;
        let gpos = gpos as usize;
        if gpos < qoff {
            continue;
        }
        let start = gpos - qoff;
        if start + oriented.len() <= engine.genome_len() {
            if let Err(pos) = starts.binary_search(&start) {
                starts.insert(pos, start);
            }
        }
        if starts.len() >= engine.config().max_candidates {
            break;
        }
    }
    hits
}

/// DP cells inside the band of an `n × m` table (all of them without a
/// band), counted with the kernel's own row ranges.
pub fn banded_cells(n: usize, m: usize, band: Option<usize>) -> u64 {
    let bounds = band.map(|w| diagonal_bounds(n, m, w));
    (1..=n)
        .map(|i| {
            let (lo, hi) = row_range(bounds, i, m);
            (hi + 1 - lo) as u64
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnumap_core::GnumapConfig;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use simulate::reads::{simulate_reads, ReadSimConfig, ReadSource};

    /// The replica finds exactly the windows the mapper scores, under the
    /// production cap and under a cap small enough that most reads hit it.
    #[test]
    fn candidate_starts_match_the_mappers_windows() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let genome = simulate::generate_genome(
            &simulate::GenomeConfig {
                length: 20_000,
                repeat_families: 8,
                ..Default::default()
            },
            &mut rng,
        );
        let reads = simulate_reads(
            &ReadSource::Monoploid(&genome),
            300,
            &ReadSimConfig {
                read_length: 62,
                ..Default::default()
            },
            &mut rng,
        );
        for cap in [GnumapConfig::default().mapping.max_candidates, 3] {
            let mut config = GnumapConfig::default().mapping;
            config.max_candidates = cap;
            let engine = MappingEngine::new(&genome, config);
            let (mut raw, mut starts) = (AlignScratch::new(), [Vec::new(), Vec::new()]);
            let mut capped = 0;
            for r in &reads {
                let rc = r.read.reverse_complement();
                let hits = candidate_starts(&engine, &r.read, &mut starts[0])
                    + candidate_starts(&engine, &rc, &mut starts[1]);
                assert!(hits as usize >= starts[0].len() + starts[1].len());
                engine.map_read_raw_with(&r.read, &mut raw);
                let mut windows: Vec<(bool, usize)> = raw
                    .alignments()
                    .map(|a| (a.reverse, a.window_start))
                    .collect();
                windows.sort_unstable();
                let replica: Vec<(bool, usize)> = [false, true]
                    .into_iter()
                    .zip(&starts)
                    .flat_map(|(rev, s)| s.iter().map(move |&p| (rev, p)))
                    .collect();
                assert_eq!(windows, replica);
                capped += starts.iter().filter(|s| s.len() == cap).count();
            }
            if cap == 3 {
                assert!(
                    capped > reads.len() / 2,
                    "only {capped} strands hit the cap"
                );
            }
        }
    }

    #[test]
    fn band_cells_count_the_diagonal_strip() {
        assert_eq!(banded_cells(4, 4, None), 16);
        // Band half-width 1 on a square table: 2 + 3 + 3 + 2 cells.
        assert_eq!(banded_cells(4, 4, Some(1)), 10);
        // A band wider than the table covers all of it.
        assert_eq!(banded_cells(5, 5, Some(10)), 25);
        assert_eq!(banded_cells(62, 62, Some(4)), 62 * 9 - 2 * (4 + 3 + 2 + 1));
    }
}
