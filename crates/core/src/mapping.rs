//! The probabilistic mapping engine (paper Figure 1, steps A–B).
//!
//! For each read: seed candidate placements through the k-mer index (both
//! strands), run the quality-extended Pair-HMM against a padded genome
//! window at each placement, and convert the per-window total likelihoods
//! into **posterior weights** across all of the read's candidate locations
//! (the normalised posterior probability scoring of GNUMAP \[7\]). A read
//! that maps equally well to two repeat copies contributes half its
//! evidence to each — exactly the multi-mapping behaviour the paper argues
//! makes SNP calls unbiased in repeat regions.

use genome::alphabet::Base;
use genome::index::{IndexConfig, KmerIndex};
use genome::read::SequencedRead;
use genome::seq::DnaSeq;
use pairhmm::marginal::ColumnPosterior;
use pairhmm::params::PhmmParams;
use pairhmm::pwm::Pwm;
use pairhmm::scratch::PhmmScratch;

/// Configuration of the mapping engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MappingConfig {
    /// k-mer index parameters (paper default k = 10).
    pub index: IndexConfig,
    /// Pair-HMM transition/emission parameters.
    pub phmm: PhmmParams,
    /// Banded-DP half width; `None` runs the full quadratic DP.
    pub band: Option<usize>,
    /// Genome bases appended to the right of each candidate placement,
    /// giving the alignment room for small indels. The model's boundary
    /// conditions force alignments to *begin* with `x_1 : y_1` matched
    /// (paper initialisation), so a left pad would shift the read into
    /// the pad; windows are padded on the right only. Every candidate is
    /// scored over the same window length, read length plus this pad, so
    /// posterior weights are comparable across locations. Candidates
    /// whose read would run past the genome end are dropped, and pad
    /// bases past the end become virtual `N`s. The default of 0 matches
    /// the substitution-dominated short-read regime; raise it to give
    /// indels room.
    pub window_pad: usize,
    /// Candidate locations with posterior weight below this are dropped
    /// (and the rest renormalised).
    pub min_weight: f64,
    /// Hard cap on candidate placements evaluated per read.
    pub max_candidates: usize,
}

impl Default for MappingConfig {
    fn default() -> Self {
        MappingConfig {
            index: IndexConfig::default(),
            phmm: PhmmParams::default(),
            band: Some(4),
            window_pad: 0,
            min_weight: 1e-4,
            max_candidates: 64,
        }
    }
}

/// Reusable per-thread scratch for the whole mapping hot path.
///
/// One instance is meant to live as long as a worker thread's read batch:
/// the Pair-HMM planes, the window buffers, the read's blend rows, the
/// candidate list and the column arena are all grow-only, so after the
/// first few reads the engine performs **zero heap allocations per
/// read×window pair** (per-read allocations — the reverse complement and
/// the PWM — remain, but are independent of the candidate count).
/// Results of
/// [`MappingEngine::map_read_with`] / [`MappingEngine::map_read_raw_with`]
/// are left inside the scratch and read back through
/// [`AlignScratch::alignments`].
#[derive(Default)]
pub struct AlignScratch {
    /// Pair-HMM emission/DP/rolling-row arena (see [`PhmmScratch`]).
    phmm: PhmmScratch,
    /// Genome window buffers, one per candidate of the oriented read
    /// being scored; grow-only.
    windows: Vec<Vec<Option<Base>>>,
    /// Emission blend rows of the oriented read being scored.
    blend: Vec<[f64; 4]>,
    /// Sorted, deduplicated candidate starts for one oriented read.
    starts: Vec<usize>,
    /// Column arena: every scored candidate appends its posteriors here.
    cols: Vec<ColumnPosterior>,
    /// Candidate metadata indexing into `cols`.
    cands: Vec<CandMeta>,
}

/// One scored candidate inside an [`AlignScratch`].
struct CandMeta {
    window_start: usize,
    /// Raw likelihood after `map_read_raw_with`; posterior weight after
    /// `map_read_with`.
    score: f64,
    reverse: bool,
    col_off: usize,
    col_len: usize,
}

/// Borrowed view of one alignment stored in an [`AlignScratch`].
#[derive(Debug, Clone, Copy)]
pub struct AlignmentView<'a> {
    /// Genome position of the window's first column, which is where the
    /// seeds placed read base 1.
    pub window_start: usize,
    /// Raw Pair-HMM likelihood (after
    /// [`MappingEngine::map_read_raw_with`]) or normalised posterior
    /// weight (after [`MappingEngine::map_read_with`]).
    pub score: f64,
    /// Reverse-strand flag.
    pub reverse: bool,
    /// Per-column evidence vectors, unweighted.
    pub columns: &'a [ColumnPosterior],
}

impl AlignScratch {
    /// Fresh, empty scratch. Buffers grow to the working-set size over the
    /// first few reads and are then reused.
    pub fn new() -> AlignScratch {
        AlignScratch::default()
    }

    /// Iterate the alignments produced by the most recent
    /// `map_read_with` / `map_read_raw_with` call.
    pub fn alignments(&self) -> impl Iterator<Item = AlignmentView<'_>> + '_ {
        self.cands.iter().map(move |c| AlignmentView {
            window_start: c.window_start,
            score: c.score,
            reverse: c.reverse,
            columns: &self.cols[c.col_off..c.col_off + c.col_len],
        })
    }

    /// Number of alignments currently held.
    pub fn len(&self) -> usize {
        self.cands.len()
    }

    /// Whether the most recent mapping produced no alignments.
    pub fn is_empty(&self) -> bool {
        self.cands.is_empty()
    }

    fn clear(&mut self) {
        self.cols.clear();
        self.cands.clear();
    }
}

/// The engine: genome + index + config.
pub struct MappingEngine<'g> {
    genome: &'g DnaSeq,
    index: KmerIndex,
    config: MappingConfig,
}

impl<'g> MappingEngine<'g> {
    /// Build the index over `genome` and wrap it with the configuration.
    pub fn new(genome: &'g DnaSeq, config: MappingConfig) -> MappingEngine<'g> {
        let index = KmerIndex::build(genome, config.index).expect("valid index config");
        MappingEngine {
            genome,
            index,
            config,
        }
    }

    /// Construct around an existing index (used by the genome-split driver
    /// to index a shard slice only).
    pub fn with_index(
        genome: &'g DnaSeq,
        index: KmerIndex,
        config: MappingConfig,
    ) -> MappingEngine<'g> {
        MappingEngine {
            genome,
            index,
            config,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &MappingConfig {
        &self.config
    }

    /// Borrow the seed index.
    pub fn index(&self) -> &KmerIndex {
        &self.index
    }

    /// Genome length.
    pub fn genome_len(&self) -> usize {
        self.genome.len()
    }

    /// Candidate placement starts for one oriented read: deduplicated
    /// diagonals from the seed hits, collected into `starts` in increasing
    /// genome order. A sorted-insert vector replaces the obvious
    /// `BTreeSet` so the buffer can be reused across reads; the insert
    /// sequence, the dedup behaviour, the `max_candidates` cut-off and the
    /// ascending output order are all identical.
    fn candidates_into(&self, oriented: &SequencedRead, starts: &mut Vec<usize>) {
        starts.clear();
        for (qoff, gpos) in self.index.seed_hits(&oriented.seq) {
            let gpos = gpos as usize;
            if gpos < qoff {
                continue;
            }
            let start = gpos - qoff;
            if start + oriented.len() <= self.genome.len() {
                if let Err(pos) = starts.binary_search(&start) {
                    starts.insert(pos, start);
                }
            }
            if starts.len() >= self.config.max_candidates {
                break;
            }
        }
    }

    /// Map one read into `scratch`, leaving **unnormalised** candidate
    /// alignments (each carries its raw Pair-HMM total likelihood in
    /// [`AlignmentView::score`]). The genome-split driver needs this form,
    /// because the normalising constant must be computed *across shards*
    /// (paper: "Communication between machines via message passing
    /// determines \[the\] additional locations and calculates the final
    /// score").
    ///
    /// Every candidate is scored over the same window length
    /// `N + window_pad`, so likelihoods are directly comparable across a
    /// read's candidate locations — a requirement for unbiased posterior
    /// weights. One strand's windows are scored four at a time in
    /// lockstep ([`PhmmScratch::score_windows`]), which is bit-identical
    /// to scoring them one by one; candidates are kept in strand, then
    /// ascending-start order, and zero-likelihood windows are dropped.
    pub fn map_read_raw_with(&self, read: &SequencedRead, scratch: &mut AlignScratch) {
        scratch.clear();
        let rc = read.reverse_complement();
        let pad = self.config.window_pad;
        let band = self.config.band.map(|w| w + pad);
        let params = &self.config.phmm;
        for (reverse, oriented) in [(false, read), (true, &rc)] {
            let pwm = Pwm::from_read(oriented);
            self.candidates_into(oriented, &mut scratch.starts);
            let AlignScratch {
                phmm,
                windows,
                blend,
                starts,
                cols,
                cands,
            } = scratch;
            pwm.fill_blend(params, blend);
            if windows.len() < starts.len() {
                windows.resize_with(starts.len(), Vec::new);
            }
            let windows = &mut windows[..starts.len()];
            let len = oriented.len() + pad;
            for (window, &start) in windows.iter_mut().zip(starts.iter()) {
                // Positions past the genome end become virtual `N` bases.
                window.clear();
                window.extend((0..len).map(|j| self.genome.try_get(start + j).flatten()));
            }
            phmm.score_windows(&pwm, blend, &*windows, params, band, |k, total, columns| {
                if total > 0.0 {
                    let col_off = cols.len();
                    cols.extend_from_slice(columns);
                    cands.push(CandMeta {
                        window_start: starts[k],
                        score: total,
                        reverse,
                        col_off,
                        col_len: cols.len() - col_off,
                    });
                }
            });
        }
    }

    /// Map one read into `scratch`: all candidate placements on both
    /// strands, scored and posterior-normalised
    /// ([`AlignmentView::score`] holds the weight). The scratch is left
    /// empty for unmappable reads.
    pub fn map_read_with(&self, read: &SequencedRead, scratch: &mut AlignScratch) {
        self.map_read_raw_with(read, scratch);
        posterior_weights(&mut scratch.cands, self.config.min_weight, |c| &mut c.score);
    }
}

/// The GNUMAP posterior-weight rule over one read's candidates, given in
/// strand-then-ascending-start order: divide each raw likelihood by the
/// grand total, drop candidates whose weight falls below `min_weight`,
/// and renormalise over the kept set. `score` projects a candidate onto
/// its score, which holds the likelihood on entry and the weight on
/// return; when the grand total is not positive every candidate is
/// dropped. Both sums and the filter run in candidate order, so the
/// mapper ([`MappingEngine::map_read_with`]) and genome-split's merged
/// cross-shard list, which call this one body, get bit-identical weights.
pub fn posterior_weights<T>(
    cands: &mut Vec<T>,
    min_weight: f64,
    mut score: impl FnMut(&mut T) -> &mut f64,
) {
    let grand_total: f64 = cands.iter_mut().map(|c| *score(c)).sum();
    if grand_total <= 0.0 {
        cands.clear();
        return;
    }
    cands.retain_mut(|c| {
        let s = score(c);
        *s /= grand_total;
        *s >= min_weight
    });
    let kept_sum: f64 = cands.iter_mut().map(|c| *score(c)).sum();
    if kept_sum > 0.0 {
        for c in cands.iter_mut() {
            *score(c) /= kept_sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn genome(s: &str) -> DnaSeq {
        s.parse().unwrap()
    }

    fn cfg(k: usize) -> MappingConfig {
        MappingConfig {
            index: IndexConfig {
                k,
                ..IndexConfig::default()
            },
            ..MappingConfig::default()
        }
    }

    fn read_from(g: &DnaSeq, start: usize, end: usize, q: u8) -> SequencedRead {
        SequencedRead::with_uniform_quality("r", g.window(start, end), q)
    }

    /// Owned copy of one weighted alignment.
    struct ReadAlignment {
        window_start: usize,
        weight: f64,
        reverse: bool,
        columns: Vec<ColumnPosterior>,
    }

    /// [`MappingEngine::map_read_with`] through a throwaway scratch,
    /// copied out.
    fn map_read(engine: &MappingEngine<'_>, read: &SequencedRead) -> Vec<ReadAlignment> {
        let mut scratch = AlignScratch::new();
        engine.map_read_with(read, &mut scratch);
        scratch
            .alignments()
            .map(|v| ReadAlignment {
                window_start: v.window_start,
                weight: v.score,
                reverse: v.reverse,
                columns: v.columns.to_vec(),
            })
            .collect()
    }

    #[test]
    fn unique_read_gets_weight_one() {
        let g = genome("TTGACCAGTTCAGGCATTGCAAGCTTGGCATCCATGGACC");
        let engine = MappingEngine::new(&g, cfg(8));
        let read = read_from(&g, 10, 34, 35);
        let alns = map_read(&engine, &read);
        assert_eq!(alns.len(), 1);
        let a = &alns[0];
        assert!((a.weight - 1.0).abs() < 1e-9);
        assert!(!a.reverse);
        // With no left pad the window starts at the placement itself.
        assert_eq!(a.window_start, 10);
        // Columns over the placement report the genome bases.
        for (j, col) in a.columns.iter().enumerate() {
            let gpos = a.window_start + j;
            if (10..34).contains(&gpos) {
                let expect = g.get(gpos).unwrap().index();
                let argmax = (0..5)
                    .max_by(|&x, &y| col.probs[x].total_cmp(&col.probs[y]))
                    .unwrap();
                assert_eq!(argmax, expect, "column {j}");
            }
        }
    }

    #[test]
    fn reverse_strand_read_maps() {
        let g = genome("TTGACCAGTTCAGGCATTGCAAGCTTGGCATCCATGGACC");
        let engine = MappingEngine::new(&g, cfg(8));
        let read =
            SequencedRead::with_uniform_quality("r", g.window(5, 30).reverse_complement(), 35);
        let alns = map_read(&engine, &read);
        assert_eq!(alns.len(), 1);
        assert!(alns[0].reverse);
        assert_eq!(alns[0].window_start, 5);
    }

    #[test]
    fn repeat_read_splits_weight_evenly() {
        // Two identical copies: posterior weight ≈ ½ each — the defining
        // behaviour of probabilistic mapping (paper Section V-B).
        let unit = "ACGGTTCAGGCATTGCAAGCTTGGC";
        let g = genome(&format!("{unit}TTATTATTAT{unit}"));
        let engine = MappingEngine::new(&g, cfg(8));
        let read = SequencedRead::with_uniform_quality("r", genome(unit), 35);
        let alns = map_read(&engine, &read);
        assert_eq!(alns.len(), 2, "both copies found");
        for a in &alns {
            assert!(
                (a.weight - 0.5).abs() < 1e-6,
                "even split expected, got {}",
                a.weight
            );
        }
    }

    #[test]
    fn mismatched_copy_gets_less_weight() {
        // Copy 2 differs from the read at one high-quality base: its
        // posterior weight must be much smaller but non-zero.
        let unit1 = "ACGGTTCAGGCATTGCAAGCTTGGC";
        let unit2 = "ACGGTTCAGGCTTTGCAAGCTTGGC"; // A→T at offset 11
        let g = genome(&format!("{unit1}TTATTATTAT{unit2}"));
        let engine = MappingEngine::new(&g, cfg(8));
        let read = SequencedRead::with_uniform_quality("r", genome(unit1), 30);
        let mut alns = map_read(&engine, &read);
        alns.sort_by(|a, b| b.weight.total_cmp(&a.weight));
        assert_eq!(alns.len(), 2);
        assert!(
            alns[0].weight > 0.9,
            "exact copy dominates: {}",
            alns[0].weight
        );
        assert!(alns[1].weight > 0.0 && alns[1].weight < 0.1);
        assert_eq!(alns[0].window_start, 0);
    }

    #[test]
    fn unmappable_read_returns_empty() {
        let g = genome("TTGACCAGTTCAGGCATTGCAAGCTTGGCATCCA");
        let engine = MappingEngine::new(&g, cfg(8));
        let read = SequencedRead::with_uniform_quality("r", genome("GGGGGGGGGGGGGGGGGGGG"), 35);
        assert!(map_read(&engine, &read).is_empty());
    }

    #[test]
    fn weights_always_sum_to_one() {
        let unit = "ACGGTTCAGGCATTGCAAGCTTGGC";
        let g = genome(&format!("{unit}TT{unit}AATT{unit}GG"));
        let engine = MappingEngine::new(&g, cfg(6));
        let read = SequencedRead::with_uniform_quality("r", genome(unit), 25);
        let alns = map_read(&engine, &read);
        assert!(alns.len() >= 3);
        let sum: f64 = alns.iter().map(|a| a.weight).sum();
        assert!((sum - 1.0).abs() < 1e-9, "weights sum to {sum}");
    }

    #[test]
    fn banded_and_full_agree_on_clean_reads() {
        let g = genome("TTGACCAGTTCAGGCATTGCAAGCTTGGCATCCATGGACC");
        let full = MappingEngine::new(
            &g,
            MappingConfig {
                band: None,
                ..cfg(8)
            },
        );
        let banded = MappingEngine::new(&g, cfg(8));
        let read = read_from(&g, 4, 36, 35);
        let a = map_read(&full, &read);
        let b = map_read(&banded, &read);
        assert_eq!(a.len(), b.len());
        assert!((a[0].weight - b[0].weight).abs() < 1e-9);
        for (ca, cb) in a[0].columns.iter().zip(&b[0].columns) {
            for k in 0..5 {
                assert!(
                    (ca.probs[k] - cb.probs[k]).abs() < 1e-6,
                    "banded column posterior diverged"
                );
            }
        }
    }

    #[test]
    fn column_mass_is_one_per_covered_position() {
        let g = genome("TTGACCAGTTCAGGCATTGCAAGCTTGGCATCCA");
        let engine = MappingEngine::new(&g, cfg(8));
        let read = read_from(&g, 6, 30, 30);
        let alns = map_read(&engine, &read);
        for col in &alns[0].columns {
            assert!((col.mass() - 1.0).abs() < 1e-9);
        }
    }
}
