//! Span recorder and per-layer summary for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public function; nothing inside the program is instrumented.
//! Every thread records into its own [`Lane`] (no locking on the hot
//! path); lanes are merged when the run ends, written out as JSON lines
//! and summarised. A span's *self time* is its duration minus the part
//! of that interval its child spans cover; children may sit on other
//! lanes (the rank threads of a read-split run), so overlapping children
//! are merged before they are subtracted.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::time::Instant;

/// Globally unique span id: lane in the high 32 bits, index in the low.
pub type SpanId = u64;

/// Span names that give a trace its shape but are not layers: a root, a
/// rank thread, one read's probe, one client session. They count toward
/// neither the per-layer self times nor the coverage.
pub const STRUCTURAL: &[&str] = &["run", "ranks", "rank", "probe", "session"];

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer (or structural) name.
    pub name: &'static str,
    /// This span's id.
    pub id: SpanId,
    /// The span that caused it.
    pub parent: Option<SpanId>,
    /// Request id: read index, session id or rank.
    pub req: u64,
    /// Nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Nanoseconds since the trace epoch.
    pub end_ns: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span buffer. Spans nest through an open-span stack; the
/// lane's outermost spans hang off `parent`, which may live on another
/// lane.
pub struct Lane {
    lane: u64,
    epoch: Instant,
    parent: Option<SpanId>,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Lane {
    /// A lane numbered `lane` (unique per trace) whose outermost spans
    /// are children of `parent`.
    pub fn new(epoch: Instant, lane: u32, parent: Option<SpanId>) -> Lane {
        Lane {
            lane: u64::from(lane),
            epoch,
            parent,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str, req: u64) -> SpanId {
        let parent = self.stack.last().map(|&i| self.spans[i].id).or(self.parent);
        let id = (self.lane << 32) | self.spans.len() as u64;
        let start_ns = self.now();
        self.stack.push(self.spans.len());
        self.spans.push(Span {
            name,
            id,
            parent,
            req,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        let i = self.stack.pop().expect("close without a matching open");
        self.spans[i].end_ns = self.now();
    }

    /// Record `f` as one span.
    pub fn time<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        self.open(name, req);
        let out = f();
        self.close();
        out
    }

    /// The lane's spans; every span must be closed.
    pub fn finish(self) -> Vec<Span> {
        assert!(self.stack.is_empty(), "lane finished with open spans");
        self.spans
    }
}

/// Total length of the union of half-open intervals.
fn union_len(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// Self time of every span, in nanoseconds, in the order given.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: HashMap<SpanId, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.as_ref().and_then(|p| index.get(p)) {
            let (ps, pe) = (spans[p].start_ns, spans[p].end_ns);
            let (cs, ce) = (s.start_ns.max(ps), s.end_ns.min(pe));
            if cs < ce {
                children[p].push((cs, ce));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, c)| s.dur() - union_len(c))
        .collect()
}

/// Share of `root`'s interval during which at least one layer span (any
/// non-structural span, on any lane) was open.
pub fn coverage(spans: &[Span], root: SpanId) -> f64 {
    let Some(r) = spans.iter().find(|s| s.id == root) else {
        return 0.0;
    };
    if r.dur() == 0 {
        return 0.0;
    }
    let layers = spans
        .iter()
        .filter(|s| !STRUCTURAL.contains(&s.name))
        .map(|s| (s.start_ns.max(r.start_ns), s.end_ns.min(r.end_ns)))
        .filter(|(s, e)| s < e)
        .collect();
    union_len(layers) as f64 / r.dur() as f64
}

/// Per-name totals over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerStat {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed self time, seconds.
    pub self_s: f64,
    /// Summed duration, seconds.
    pub wall_s: f64,
}

/// Self time, duration and count per span name.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, LayerStat> {
    let mut out: BTreeMap<&'static str, LayerStat> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let stat = out.entry(s.name).or_default();
        stat.count += 1;
        stat.self_s += own as f64 / 1e9;
        stat.wall_s += s.dur() as f64 / 1e9;
    }
    out
}

/// Write one JSON object per span.
pub fn write_json_lines(spans: &[Span], w: &mut impl Write) -> std::io::Result<()> {
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.id, parent, s.req, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

/// The highest whole percentile that still has at least ten of `n`
/// samples beyond its nearest-rank value, or `None` when `n <= 10`.
/// With 100 samples that is p90.
pub fn highest_reportable_percentile(n: usize) -> Option<u32> {
    if n <= 10 {
        return None;
    }
    Some((100 * (n - 10) / n) as u32)
}

/// 1-based nearest rank of percentile `p` (0..=100) among `n` samples.
fn nearest_rank(n: usize, p: u32) -> usize {
    (p as usize * n).div_ceil(100).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` (0..=100) of ascending `sorted`.
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// Samples strictly beyond the nearest-rank position of percentile `p`.
pub fn samples_beyond(n: usize, p: u32) -> usize {
    n.saturating_sub(nearest_rank(n, p))
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: SpanId, parent: Option<SpanId>, s: u64, e: u64) -> Span {
        Span {
            name,
            id,
            parent,
            req: 0,
            start_ns: s,
            end_ns: e,
        }
    }

    /// run [0,100] ├─ a [10,40] ─ c [15,20]
    ///             ├─ b [30,60]            (overlaps a: another lane)
    ///             └─ d [90,110]           (sticks out of its parent)
    fn tree() -> Vec<Span> {
        vec![
            span("run", 1, None, 0, 100),
            span("map", 2, Some(1), 10, 40),
            span("deposit", 3, Some(1), 30, 60),
            span("seed.lookup", 4, Some(2), 15, 20),
            span("call", 5, Some(1), 90, 110),
        ]
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let own = self_times(&tree());
        // run: 100 minus the union [10,60] ∪ [90,100] = 100 - 60.
        assert_eq!(own, vec![40, 25, 30, 5, 20]);
    }

    #[test]
    fn summary_sums_self_time_per_name() {
        let mut spans = tree();
        spans.push(span("map", 6, Some(1), 70, 80));
        let s = summarize(&spans);
        assert_eq!(s["map"].count, 2);
        assert!((s["map"].self_s - 35e-9).abs() < 1e-15);
        assert!((s["map"].wall_s - 40e-9).abs() < 1e-15);
        assert!((s["run"].self_s - 30e-9).abs() < 1e-15);
    }

    #[test]
    fn coverage_is_the_layer_union_over_the_root() {
        let mut spans = tree();
        // A structural child covers nothing by itself.
        spans.push(span("probe", 7, Some(1), 60, 90));
        // Layer spans [10,60] ∪ [90,100] inside the root.
        assert!((coverage(&spans, 1) - 0.6).abs() < 1e-12);
        assert_eq!(coverage(&spans, 99), 0.0);
    }

    #[test]
    fn lanes_nest_and_link_across_threads() {
        let epoch = Instant::now();
        let mut main = Lane::new(epoch, 0, None);
        let root = main.open("run", 0);
        let mut rank = Lane::new(epoch, 1, Some(root));
        rank.time("rank", 1, || ());
        let inner = rank.open("map", 7);
        rank.close();
        main.close();
        let rank_spans = rank.finish();
        assert_eq!(rank_spans[0].parent, Some(root));
        assert_eq!(rank_spans[1].id, inner);
        assert_eq!(inner >> 32, 1);
        assert_eq!(rank_spans[1].req, 7);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_reportable_percentile(10), None);
        assert_eq!(highest_reportable_percentile(11), Some(9));
        assert_eq!(highest_reportable_percentile(20), Some(50));
        assert_eq!(highest_reportable_percentile(100), Some(90));
        assert_eq!(highest_reportable_percentile(99), Some(89));
        assert_eq!(highest_reportable_percentile(1000), Some(99));
        for n in 11..500 {
            let p = highest_reportable_percentile(n).unwrap();
            assert!(samples_beyond(n, p) >= 10, "n={n} p={p}");
            assert!(samples_beyond(n, p + 1) < 10, "n={n} p={p}");
        }
    }

    #[test]
    fn nearest_rank_percentiles_and_median() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(samples_beyond(100, 90), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
