//! Reference oracles for the numerical kernels.
//!
//! Each oracle is an *independent* implementation of the same quantity the
//! production code computes, written in a deliberately different numeric
//! style so shared bugs are unlikely:
//!
//! * the Pair-HMM oracle runs the forward/backward recursions entirely in
//!   log space with `log_add` (the production tables are linear `f64`),
//!   writes out its own diagonal band, and rebuilds the per-column
//!   posterior `z` vectors from the log tables. It is checked against
//!   the kernel the mapper runs — its one-lane
//!   [`PhmmScratch::posterior_columns`] and every lane of a four-lane
//!   [`PhmmScratch::posterior_lanes`] group — unbanded and at the
//!   mapper's band, up to 150-bp reads;
//! * the LRT oracle maximises the constrained multinomial log-likelihoods
//!   numerically by ternary search over the probability simplex instead of
//!   using the closed-form MLEs;
//! * the χ² oracle integrates the density by Simpson quadrature instead of
//!   the regularised-gamma series.
//!
//! Agreement within tight tolerances on randomized inputs is strong
//! evidence both sides implement the model, not each other's bugs.

use crate::Outcome;
use genome::alphabet::{Base, BASES};
use gnumap_core::MappingConfig;
use gnumap_stats::lrt::Alternative;
use gnumap_stats::{diploid_lrt, monoploid_lrt, BaseCounts, ChiSquared};
use pairhmm::{ColumnPosterior, PhmmParams, PhmmScratch, Pwm};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Run the oracle tier. `fast` trims the number of random cases.
pub fn run(fast: bool) -> Outcome {
    let mut out = Outcome::default();
    phmm_tier(&mut out, if fast { 12 } else { 48 });
    lrt_tier(&mut out, if fast { 120 } else { 600 });
    chi2_tier(&mut out);
    out
}

// ---------------------------------------------------------------------------
// Log-space Pair-HMM forward/backward oracle
// ---------------------------------------------------------------------------

const NEG_INF: f64 = f64::NEG_INFINITY;

fn log_add(a: f64, b: f64) -> f64 {
    if a == NEG_INF {
        b
    } else if b == NEG_INF {
        a
    } else if a >= b {
        a + (b - a).exp().ln_1p()
    } else {
        b + (a - b).exp().ln_1p()
    }
}

/// Log-space DP tables, `(n + 2) × (m + 2)` so the backward recursion can
/// read one past the terminal cell without bounds checks (those cells stay
/// at `-inf`, matching the production convention that reads beyond
/// `(N, M)` contribute zero).
struct LogTables {
    m: Vec<Vec<f64>>,
    x: Vec<Vec<f64>>,
    y: Vec<Vec<f64>>,
}

impl LogTables {
    fn new(n: usize, m: usize) -> LogTables {
        let make = || vec![vec![NEG_INF; m + 2]; n + 2];
        LogTables {
            m: make(),
            x: make(),
            y: make(),
        }
    }
}

struct LogPhmm {
    ln_emit: Vec<Vec<f64>>,
    /// Inclusive bounds `[lo, hi]` on `j − i` of the cells the DP may
    /// fill; `None` is the full table.
    band: Option<(isize, isize)>,
    ln_tmm: f64,
    ln_tmg: f64,
    ln_tgm: f64,
    ln_tgg: f64,
    ln_q: f64,
    n: usize,
    m: usize,
}

impl LogPhmm {
    /// `band = Some(w)` keeps only cells with `j − i` in
    /// `[min(Δ,0) − w, max(Δ,0) + w]`, `Δ = M − N`; every other cell stays
    /// at `-inf`. Written out here rather than taken from the kernel so
    /// the oracle shares no band arithmetic with the code it checks.
    fn new(emit: pairhmm::Emission<'_>, params: &PhmmParams, band: Option<usize>) -> LogPhmm {
        let delta = emit.m() as isize - emit.n() as isize;
        LogPhmm {
            band: band.map(|w| (delta.min(0) - w as isize, delta.max(0) + w as isize)),
            ln_emit: (0..emit.n())
                .map(|i| emit.row(i).iter().map(|&p| p.ln()).collect())
                .collect(),
            ln_tmm: params.t_mm.ln(),
            ln_tmg: params.t_mg.ln(),
            ln_tgm: params.t_gm.ln(),
            ln_tgg: params.t_gg.ln(),
            ln_q: params.q.ln(),
            n: emit.n(),
            m: emit.m(),
        }
    }

    /// `ln p*(i, j)` in 1-based paper indexing; `-inf` out of range.
    fn ln_emit_at(&self, i: usize, j: usize) -> f64 {
        if i >= 1 && i <= self.n && j >= 1 && j <= self.m {
            self.ln_emit[i - 1][j - 1]
        } else {
            NEG_INF
        }
    }

    fn in_band(&self, i: usize, j: usize) -> bool {
        self.band
            .is_none_or(|(lo, hi)| (lo..=hi).contains(&(j as isize - i as isize)))
    }

    fn forward(&self) -> (LogTables, f64) {
        let mut t = LogTables::new(self.n, self.m);
        t.m[0][0] = 0.0;
        // Alignments are global and must open with `x_1 : y_1`, so the
        // border gap cells stay at -inf — only interior cells are filled,
        // exactly like the production loop.
        for i in 1..=self.n {
            for j in (1..=self.m).filter(|&j| self.in_band(i, j)) {
                t.m[i][j] = self.ln_emit_at(i, j)
                    + log_add(
                        self.ln_tmm + t.m[i - 1][j - 1],
                        self.ln_tgm + log_add(t.x[i - 1][j - 1], t.y[i - 1][j - 1]),
                    );
                t.x[i][j] =
                    self.ln_q + log_add(self.ln_tmg + t.m[i - 1][j], self.ln_tgg + t.x[i - 1][j]);
                t.y[i][j] =
                    self.ln_q + log_add(self.ln_tmg + t.m[i][j - 1], self.ln_tgg + t.y[i][j - 1]);
            }
        }
        let total = log_add(
            t.m[self.n][self.m],
            log_add(t.x[self.n][self.m], t.y[self.n][self.m]),
        );
        (t, total)
    }

    fn backward(&self) -> (LogTables, f64) {
        let mut t = LogTables::new(self.n, self.m);
        t.m[self.n][self.m] = 0.0;
        t.x[self.n][self.m] = 0.0;
        t.y[self.n][self.m] = 0.0;
        for i in (0..=self.n).rev() {
            for j in (0..=self.m).rev() {
                if (i == self.n && j == self.m) || !self.in_band(i, j) {
                    continue;
                }
                let diag = self.ln_emit_at(i + 1, j + 1);
                let gaps = log_add(t.x[i + 1][j], t.y[i][j + 1]);
                t.m[i][j] = log_add(
                    diag + self.ln_tmm + t.m[i + 1][j + 1],
                    self.ln_q + self.ln_tmg + gaps,
                );
                t.x[i][j] = log_add(
                    diag + self.ln_tgm + t.m[i + 1][j + 1],
                    self.ln_q + self.ln_tgg + t.x[i + 1][j],
                );
                t.y[i][j] = log_add(
                    diag + self.ln_tgm + t.m[i + 1][j + 1],
                    self.ln_q + self.ln_tgg + t.y[i][j + 1],
                );
            }
        }
        let total = self.ln_emit_at(1, 1) + self.ln_tmm + t.m[1][1];
        (t, total)
    }
}

/// Per-column `z` vectors from the log tables: match mass blended through
/// the PWM rows plus genome-deletion (`G_Y`) mass, all via
/// `exp(f + b - total)`.
fn oracle_column_posteriors(
    phmm: &LogPhmm,
    fwd: &LogTables,
    bwd: &LogTables,
    total: f64,
    pwm: &Pwm,
) -> Vec<[f64; 5]> {
    let mut cols = vec![[0.0f64; 5]; phmm.m];
    if total == NEG_INF {
        return cols;
    }
    for i in 1..=phmm.n {
        let r = pwm.row(i - 1);
        for (j0, col) in cols.iter_mut().enumerate() {
            let j = j0 + 1;
            let pm = (fwd.m[i][j] + bwd.m[i][j] - total).exp();
            for (slot, rk) in col.iter_mut().zip(r) {
                *slot += pm * rk;
            }
            col[4] += (fwd.y[i][j] + bwd.y[i][j] - total).exp();
        }
    }
    cols
}

/// One PWM row from a normalized positive simplex: noise on every base
/// plus a boost on `dominant` (random when `None`), like a real
/// quality-derived PWM. Integer draws keep the shim RNG surface minimal.
fn random_row(rng: &mut ChaCha8Rng, dominant: Option<usize>) -> [f64; 4] {
    let mut row = [0.0f64; 4];
    for v in row.iter_mut() {
        *v = (1 + rng.random_range(0..20u32)) as f64;
    }
    let k = dominant.unwrap_or_else(|| rng.random_range(0..4usize));
    row[k] += rng.random_range(20..200u32) as f64;
    let sum: f64 = row.iter().sum();
    for v in row.iter_mut() {
        *v /= sum;
    }
    row
}

/// A random genome window of `m` columns with occasional unknown (`None`)
/// bases.
fn random_window(rng: &mut ChaCha8Rng, m: usize) -> Vec<Option<Base>> {
    (0..m)
        .map(|_| {
            if rng.random_bool(0.05) {
                None
            } else {
                Some(BASES[rng.random_range(0..4usize)])
            }
        })
        .collect()
}

/// One small random PWM/window pair: read length 3–10, window up to
/// three columns longer, unrelated to each other.
fn random_case(rng: &mut ChaCha8Rng) -> (Pwm, Vec<Option<Base>>) {
    let n = rng.random_range(3..11usize);
    let m = n + rng.random_range(0..4usize);
    let rows: Vec<[f64; 4]> = (0..n).map(|_| random_row(rng, None)).collect();
    (Pwm::from_rows(rows), random_window(rng, m))
}

/// A production-shaped pair: a `len`-bp read against an equal-length
/// window, as the mapper scores it. A `sampled` read copies the window
/// (about 2% substituted) with one base deleted mid-read, so mass sits
/// on two diagonals; otherwise the read is unrelated and the total is
/// tiny (below 1e-120 at 150 bp).
fn production_case(rng: &mut ChaCha8Rng, len: usize, sampled: bool) -> (Pwm, Vec<Option<Base>>) {
    let window = random_window(rng, len);
    let deletion = rng.random_range(len / 4..3 * len / 4);
    let rows: Vec<[f64; 4]> = (0..len)
        .map(|i| {
            let source = if i < deletion { i } else { i + 1 };
            let dominant = window
                .get(source)
                .copied()
                .flatten()
                .filter(|_| sampled && !rng.random_bool(0.02))
                .map(|b| b.index());
            random_row(rng, dominant)
        })
        .collect();
    (Pwm::from_rows(rows), window)
}

/// The log-space oracle's ln-total and column `z` vectors for one pair
/// at one band, after checking that both sweep directions recover the
/// same total likelihood.
fn oracle_pair(
    out: &mut Outcome,
    label: &str,
    pwm: &Pwm,
    window: &[Option<Base>],
    params: &PhmmParams,
    band: Option<usize>,
) -> (f64, Vec<[f64; 5]>) {
    let emit = pwm.emission_table(window, params);
    let phmm = LogPhmm::new(emit.view(), params, band);
    let (lf, lf_total) = phmm.forward();
    let (lb, lb_total) = phmm.backward();
    out.check((lf_total - lb_total).abs() < 1e-9, || {
        format!("{label} band {band:?}: oracle fwd/bwd totals disagree: {lf_total} vs {lb_total}")
    });
    let cols = oracle_column_posteriors(&phmm, &lf, &lb, lf_total, pwm);
    (lf_total, cols)
}

/// Check one kernel result — its total and every column `z` vector —
/// against the oracle's for the same pair and band.
fn check_against_oracle(
    out: &mut Outcome,
    label: &str,
    band: Option<usize>,
    (ln_total, oracle_cols): &(f64, Vec<[f64; 5]>),
    prod_total: f64,
    prod_cols: &[ColumnPosterior],
) {
    let prod_ln_total = prod_total.ln();
    out.check((ln_total - prod_ln_total).abs() < 1e-9, || {
        format!(
            "{label} band {band:?}: production ln(total) {prod_ln_total} \
             vs log-space oracle {ln_total}"
        )
    });
    out.check(prod_cols.len() == oracle_cols.len(), || {
        format!(
            "{label} band {band:?}: {} production columns vs {} oracle columns",
            prod_cols.len(),
            oracle_cols.len()
        )
    });
    for (j, (oracle, prod_col)) in oracle_cols.iter().zip(prod_cols).enumerate() {
        let max_delta = oracle
            .iter()
            .zip(&prod_col.probs)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        out.check(max_delta < 1e-9, || {
            format!(
                "{label} band {band:?} column {j}: posterior delta {max_delta:.3e} \
                 (oracle {oracle:?} vs production {:?})",
                prod_col.probs
            )
        });
    }
}

/// Check the log-space oracle against the fused kernel on one pair, at
/// each band in `bands`: once on the one-lane `posterior_columns`, and
/// once with the window scored in a four-lane `posterior_lanes` group
/// beside three `partners` of the same length, where every lane is
/// checked against its own window's oracle.
#[allow(clippy::too_many_arguments)]
fn check_phmm_case(
    out: &mut Outcome,
    label: &str,
    pwm: &Pwm,
    window: &[Option<Base>],
    partners: &[Vec<Option<Base>>; 3],
    params: &PhmmParams,
    bands: &[Option<usize>],
    scratch: &mut PhmmScratch,
) {
    let mut blend = Vec::new();
    pwm.fill_blend(params, &mut blend);
    let group: [&[Option<Base>]; 4] = [window, &partners[0], &partners[1], &partners[2]];
    for &band in bands {
        let oracles: Vec<_> = group
            .iter()
            .enumerate()
            .map(|(l, w)| oracle_pair(out, &format!("{label} lane {l}"), pwm, w, params, band))
            .collect();

        let total = scratch.posterior_columns(pwm, window, params, band);
        check_against_oracle(out, label, band, &oracles[0], total, scratch.columns());

        let totals = scratch.posterior_lanes(pwm, &blend, group, params, band);
        for (l, (oracle, &total)) in oracles.iter().zip(&totals).enumerate() {
            let lane_label = format!("{label} lane {l}");
            check_against_oracle(
                out,
                &lane_label,
                band,
                oracle,
                total,
                scratch.lane_columns(l),
            );
        }
    }
}

/// Three lockstep partners for `window`: copies with 5%, 10% and 15% of
/// their columns redrawn, like the diverged repeat copies a read's
/// candidate windows often are. Drawn from `rng`, a stream of its own,
/// so the cases themselves do not depend on the partners.
fn partners(rng: &mut ChaCha8Rng, window: &[Option<Base>]) -> [Vec<Option<Base>>; 3] {
    std::array::from_fn(|k| {
        let redraw = random_window(rng, window.len());
        window
            .iter()
            .zip(redraw)
            .map(|(&b, r)| {
                if rng.random_bool(0.05 * (k + 1) as f64) {
                    r
                } else {
                    b
                }
            })
            .collect()
    })
}

/// `cases` small random pairs, plus `cases / 6` production-shaped pairs
/// at each of 62 and 150 bp, each checked unbanded and at the mapper's
/// default band, one lane and four lanes.
fn phmm_tier(out: &mut Outcome, cases: usize) {
    let mut rng = ChaCha8Rng::seed_from_u64(0x0a_c1e);
    let mut partner_rng = ChaCha8Rng::seed_from_u64(0x1a_e5);
    let mapper = MappingConfig::default();
    let bands = [None, mapper.band];
    let default = PhmmParams::default();
    let gappy = PhmmParams::with_gap_rates(0.05, 0.4, 0.04);
    let mut scratch = PhmmScratch::new();
    for case in 0..cases {
        let (pwm, window) = random_case(&mut rng);
        let partners = partners(&mut partner_rng, &window);
        let params = if case % 3 == 2 { &gappy } else { &default };
        let label = format!("case {case}");
        check_phmm_case(
            out,
            &label,
            &pwm,
            &window,
            &partners,
            params,
            &bands,
            &mut scratch,
        );
    }
    for len in [62usize, 150] {
        for case in 0..cases / 6 {
            let sampled = case % 2 == 0;
            let (pwm, window) = production_case(&mut rng, len, sampled);
            let partners = partners(&mut partner_rng, &window);
            let label = format!("{len}-bp case {case}");
            check_phmm_case(
                out,
                &label,
                &pwm,
                &window,
                &partners,
                &mapper.phmm,
                &bands,
                &mut scratch,
            );
        }
    }
}

// ---------------------------------------------------------------------------
// LRT oracle: numeric maximisation of the constrained log-likelihoods
// ---------------------------------------------------------------------------

fn xlnp(x: f64, p: f64) -> f64 {
    if x == 0.0 {
        0.0
    } else {
        x * p.ln()
    }
}

/// Maximise a concave `f` over `[lo, hi]` by ternary search.
fn ternary_max(mut lo: f64, mut hi: f64, f: impl Fn(f64) -> f64) -> f64 {
    for _ in 0..200 {
        let m1 = lo + (hi - lo) / 3.0;
        let m2 = hi - (hi - lo) / 3.0;
        if f(m1) < f(m2) {
            lo = m1;
        } else {
            hi = m2;
        }
    }
    f(0.5 * (lo + hi))
}

/// H1 log-likelihood for the monoploid model maximised numerically over
/// the dominant-base probability `p`.
fn oracle_monoploid_h1(z5: f64, rest: f64) -> f64 {
    ternary_max(0.0, 1.0, |p| xlnp(z5, p) + xlnp(rest, (1.0 - p) / 4.0))
}

/// Heterozygous H1 log-likelihood maximised over `(p1, p2)` on the
/// simplex by nested ternary search (jointly concave).
fn oracle_diploid_het_h1(z5: f64, z4: f64, rest: f64) -> f64 {
    ternary_max(0.0, 1.0, |p1| {
        ternary_max(0.0, 1.0 - p1, |p2| {
            xlnp(z5, p1) + xlnp(z4, p2) + xlnp(rest, (1.0 - p1 - p2) / 3.0)
        })
    })
}

/// Random per-position base counts: uniform background noise plus zero,
/// one or two boosted alleles, mirroring hom-ref / hom-alt / het columns.
fn random_counts(rng: &mut ChaCha8Rng) -> BaseCounts {
    let mut z = [0.0f64; 5];
    for v in z.iter_mut() {
        *v = rng.random_range(0..12u32) as f64 / 4.0;
    }
    z[rng.random_range(0..5usize)] += rng.random_range(1..25u32) as f64;
    if rng.random_bool(0.5) {
        z[rng.random_range(0..5usize)] += rng.random_range(1..20u32) as f64;
    }
    BaseCounts(z)
}

/// Chi-square critical value at p = 0.05 with 1 dof — the het/hom model
/// selection cutoff used by the production LRT.
const HET_CUTOFF: f64 = 3.841_458_820_694_124;

fn lrt_tier(out: &mut Outcome, cases: usize) {
    let mut rng = ChaCha8Rng::seed_from_u64(0x17_2a_6e);
    for case in 0..cases {
        let z = random_counts(&mut rng);
        let n = z.total();
        if n <= 0.0 {
            continue;
        }
        let log_h0 = xlnp(n, 0.2);
        let mut sorted = z.0;
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let (z5, z4) = (sorted[0], sorted[1]);

        // Monoploid: closed-form statistic vs numeric maximisation.
        // (`n > 0` was checked above, so the tests are defined.)
        let mono = monoploid_lrt(&z).expect("n > 0");
        let mono_h1 = oracle_monoploid_h1(z5, n - z5);
        let oracle_stat = (-2.0 * (log_h0 - mono_h1)).max(0.0);
        let tol = 1e-6 * oracle_stat.abs().max(1.0);
        out.check((mono.statistic - oracle_stat).abs() < tol, || {
            format!(
                "case {case}: monoploid statistic {} vs oracle {oracle_stat} for z = {:?}",
                mono.statistic, z.0
            )
        });

        // Diploid: the statistic uses the better of the hom/het models;
        // model selection is by the het-gain against the χ² cutoff.
        let dip = diploid_lrt(&z).expect("n > 0");
        let het_h1 = oracle_diploid_het_h1(z5, z4, n - z5 - z4);
        let best_h1 = het_h1.max(mono_h1);
        let oracle_dip_stat = (-2.0 * (log_h0 - best_h1)).max(0.0);
        let dip_tol = 1e-6 * oracle_dip_stat.abs().max(1.0);
        out.check((dip.statistic - oracle_dip_stat).abs() < dip_tol, || {
            format!(
                "case {case}: diploid statistic {} vs oracle {oracle_dip_stat} for z = {:?}",
                dip.statistic, z.0
            )
        });

        // Model selection: the production code declares a heterozygote
        // when the het-gain beats the χ²₁ 95% point. Skip cases landing
        // within ±0.1 of the cutoff, where a legitimate `1e-6`-level
        // maximisation error could flip the decision without either side
        // being wrong.
        let het_gain = (2.0 * (het_h1 - mono_h1)).max(0.0);
        if (het_gain - HET_CUTOFF).abs() > 0.1 {
            let oracle_het = het_gain > HET_CUTOFF;
            let prod_het = dip.alternative == Alternative::TwoBases;
            out.check(prod_het == oracle_het, || {
                format!(
                    "case {case}: het selection {:?} but oracle het-gain {het_gain} \
                     vs cutoff {HET_CUTOFF} for z = {:?}",
                    dip.alternative, z.0
                )
            });
        }
    }
}

// ---------------------------------------------------------------------------
// χ² CDF oracle: Simpson quadrature of the density
// ---------------------------------------------------------------------------

/// Simpson's rule over `[a, b]` with `2k` panels.
fn simpson(a: f64, b: f64, k: usize, f: impl Fn(f64) -> f64) -> f64 {
    let steps = 2 * k;
    let h = (b - a) / steps as f64;
    let mut sum = f(a) + f(b);
    for s in 1..steps {
        let w = if s % 2 == 1 { 4.0 } else { 2.0 };
        sum += w * f(a + s as f64 * h);
    }
    sum * h / 3.0
}

/// `P(X ≤ x)` for χ²(dof) by quadrature. For dof 1 the density has an
/// integrable singularity at 0, removed by the substitution `u = t²`
/// (then `∫ pdf(u) du = ∫ pdf(t²)·2t dt`, a smooth integrand).
fn chi2_cdf_quadrature(dist: &ChiSquared, dof: f64, x: f64) -> f64 {
    if dof < 2.0 {
        // At t = 0 the transformed integrand is 0·∞ numerically; its true
        // limit for dof 1 is 2·e⁰/(√2·Γ(½)) = √(2/π).
        let at_zero = (2.0 / std::f64::consts::PI).sqrt();
        simpson(0.0, x.sqrt(), 4000, |t| {
            if t == 0.0 {
                at_zero
            } else {
                dist.pdf(t * t) * 2.0 * t
            }
        })
    } else {
        simpson(0.0, x, 4000, |t| dist.pdf(t))
    }
}

fn chi2_tier(out: &mut Outcome) {
    for &dof in &[1.0f64, 2.0, 5.0] {
        let dist = ChiSquared::new(dof);
        for &x in &[0.05f64, 0.2, 0.5, 1.0, 2.0, 3.84, 5.0, 9.0, 15.0] {
            let quad = chi2_cdf_quadrature(&dist, dof, x);
            let cdf = dist.cdf(x);
            out.check((cdf - quad).abs() < 1e-8, || {
                format!("chi2(dof {dof}).cdf({x}) = {cdf} vs quadrature {quad}")
            });
            let sf = dist.sf(x);
            out.check((sf - (1.0 - cdf)).abs() < 1e-12, || {
                format!("chi2(dof {dof}).sf({x}) = {sf} inconsistent with cdf {cdf}")
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_tier_passes_fast() {
        let out = run(true);
        assert!(out.checks > 50, "expected a real sweep, got {}", out.checks);
        assert!(out.failures.is_empty(), "failures: {:#?}", out.failures);
    }

    #[test]
    fn log_add_handles_neg_inf() {
        assert_eq!(log_add(NEG_INF, NEG_INF), NEG_INF);
        assert!((log_add(0.0, 0.0) - std::f64::consts::LN_2).abs() < 1e-15);
    }

    #[test]
    fn ternary_search_finds_binomial_mle() {
        // max of 3 ln p + 7 ln(1-p) is at p = 0.3.
        let best = ternary_max(0.0, 1.0, |p| xlnp(3.0, p) + xlnp(7.0, 1.0 - p));
        let exact = xlnp(3.0, 0.3) + xlnp(7.0, 0.7);
        assert!((best - exact).abs() < 1e-10);
    }
}
