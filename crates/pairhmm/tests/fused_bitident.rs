//! Property tests: the fused streaming marginal pass of
//! [`pairhmm::PhmmScratch`] must be **bit-identical** (`f64::to_bits`) to
//! the materialized forward/backward implementation — on randomized PWMs,
//! window lengths 1..=64, banded and unbanded, with and without scratch
//! reuse — and the banded DP must collapse to the full DP bitwise when the
//! band covers every cell. Every lane of the lockstep entry
//! [`pairhmm::PhmmScratch::posterior_lanes`] must in turn be bit-identical
//! to `posterior_columns` on its own window.

use genome::alphabet::{Base, BASES};
use pairhmm::marginal::PosteriorAlignment;
use pairhmm::params::PhmmParams;
use pairhmm::pwm::Pwm;
use pairhmm::PhmmScratch;
use proptest::prelude::*;

fn params_strategy() -> impl Strategy<Value = PhmmParams> {
    (0.001f64..0.2, 0.1f64..0.9, 0.001f64..0.2)
        .prop_map(|(open, close, mismatch)| PhmmParams::with_gap_rates(open, close, mismatch))
}

/// Random normalised PWM of `n` rows.
fn pwm_strategy(n: usize) -> impl Strategy<Value = Pwm> {
    proptest::collection::vec(proptest::collection::vec(0.01f64..1.0, 4), n).prop_map(|rows| {
        let rows: Vec<[f64; 4]> = rows
            .into_iter()
            .map(|r| {
                let sum: f64 = r.iter().sum();
                [r[0] / sum, r[1] / sum, r[2] / sum, r[3] / sum]
            })
            .collect();
        Pwm::from_rows(rows)
    })
}

/// Random genome window of `m` columns with ~5% unknown (`None`) bases.
fn window_strategy(m: usize) -> impl Strategy<Value = Vec<Option<Base>>> {
    proptest::collection::vec(0..80usize, m).prop_map(|draws| {
        draws
            .into_iter()
            .map(|d| if d < 4 { None } else { Some(BASES[d % 4]) })
            .collect()
    })
}

type Case = (Pwm, Vec<Option<Base>>, PhmmParams);

/// Read lengths 1..=24 against window lengths 1..=64 — covers skinny,
/// square and wide tables, including the degenerate 1×1.
fn case_strategy() -> impl Strategy<Value = Case> {
    (1..=24usize, 1..=64usize)
        .prop_flat_map(|(n, m)| (pwm_strategy(n), window_strategy(m), params_strategy()))
}

/// Compare the fused pass against the materialized one, bit for bit.
fn check_bitident(
    pwm: &Pwm,
    window: &[Option<Base>],
    params: &PhmmParams,
    band: Option<usize>,
    scratch: &mut PhmmScratch,
) -> TestCaseResult {
    let emit = pwm.emission_table(window, params);
    let post = PosteriorAlignment::from_emissions(emit.view(), params, band);
    let fused_total = scratch.posterior_columns(pwm, window, params, band);
    prop_assert_eq!(
        fused_total.to_bits(),
        post.total().to_bits(),
        "total diverged: fused {} vs materialized {}",
        fused_total,
        post.total()
    );
    let cols = post.column_posteriors(pwm);
    prop_assert_eq!(cols.len(), scratch.columns().len());
    for (j, (a, b)) in cols.iter().zip(scratch.columns()).enumerate() {
        for k in 0..5 {
            prop_assert_eq!(
                a.probs[k].to_bits(),
                b.probs[k].to_bits(),
                "column {} symbol {}: materialized {} vs fused {}",
                j,
                k,
                a.probs[k],
                b.probs[k]
            );
        }
    }
    Ok(())
}

/// One read against 1..=9 windows of one length `M = N + pad` (the
/// mapper's window pad), at a random band or unbanded.
type LaneCase = (Pwm, Vec<Vec<Option<Base>>>, PhmmParams, Option<usize>);

fn lane_case_strategy() -> impl Strategy<Value = LaneCase> {
    (1..=24usize, 0..=6usize, 1..=9usize, 0..12usize).prop_flat_map(|(n, pad, count, w)| {
        // A quarter of the cases unbanded, the rest at half-width 0..=8.
        let band = (w >= 3).then(|| w - 3);
        (
            pwm_strategy(n),
            proptest::collection::vec(window_strategy(n + pad), count),
            params_strategy(),
            proptest::strategy::Just(band),
        )
    })
}

/// Score `windows` as the mapper does, through
/// [`PhmmScratch::score_windows`]: groups of four in lockstep, a short
/// group's idle lanes fed a copy of its last window, a lone window on the
/// one-lane kernel. Every window must match `posterior_columns` on its
/// own, bit for bit.
fn check_lanes(
    case: &LaneCase,
    lanes: &mut PhmmScratch,
    reference: &mut PhmmScratch,
) -> TestCaseResult {
    let (pwm, windows, params, band) = case;
    let mut blend = Vec::new();
    pwm.fill_blend(params, &mut blend);
    let mut scored = Vec::new();
    lanes.score_windows(pwm, &blend, windows, params, *band, |k, total, cols| {
        scored.push((k, total, cols.to_vec()));
    });
    prop_assert_eq!(scored.len(), windows.len(), "every window reported once");
    for (i, (k, total, cols)) in scored.into_iter().enumerate() {
        prop_assert_eq!(k, i, "windows reported in order");
        let want = reference.posterior_columns(pwm, &windows[k], params, *band);
        prop_assert_eq!(
            total.to_bits(),
            want.to_bits(),
            "window {} of {}: total {} vs one-lane {}",
            k,
            windows.len(),
            total,
            want
        );
        prop_assert_eq!(cols.len(), reference.columns().len());
        for (j, (a, b)) in cols.iter().zip(reference.columns()).enumerate() {
            for s in 0..5 {
                prop_assert_eq!(
                    a.probs[s].to_bits(),
                    b.probs[s].to_bits(),
                    "window {} column {} symbol {}: {} vs one-lane {}",
                    k,
                    j,
                    s,
                    a.probs[s],
                    b.probs[s]
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    #[test]
    fn every_lane_is_bit_identical_to_the_one_lane_kernel(
        cases in proptest::collection::vec(lane_case_strategy(), 1..=4),
    ) {
        // One pair of scratches across every shape in the stream, so
        // stale lanes from earlier (larger) groups must stay invisible.
        let mut lanes = PhmmScratch::new();
        let mut reference = PhmmScratch::new();
        for case in &cases {
            check_lanes(case, &mut lanes, &mut reference)?;
        }
    }

    #[test]
    fn fused_marginals_are_bit_identical_unbanded(case in case_strategy()) {
        let (pwm, window, params) = case;
        let mut scratch = PhmmScratch::new();
        check_bitident(&pwm, &window, &params, None, &mut scratch)?;
    }

    #[test]
    fn fused_marginals_are_bit_identical_banded(
        case in case_strategy(),
        w in 0..=8usize,
    ) {
        let (pwm, window, params) = case;
        let mut scratch = PhmmScratch::new();
        check_bitident(&pwm, &window, &params, Some(w), &mut scratch)?;
    }

    #[test]
    fn full_width_band_collapses_to_unbanded_bitwise(case in case_strategy()) {
        // When the half-width covers the whole table the banded DP must be
        // the full DP — not merely close, the same bits.
        let (pwm, window, params) = case;
        let w = pwm.len().max(window.len());
        let emit = pwm.emission_table(&window, &params);
        let full = PosteriorAlignment::from_emissions(emit.view(), &params, None);
        let banded = PosteriorAlignment::from_emissions(emit.view(), &params, Some(w));
        prop_assert_eq!(banded.total().to_bits(), full.total().to_bits());
        let fc = full.column_posteriors(&pwm);
        let bc = banded.column_posteriors(&pwm);
        for (a, b) in fc.iter().zip(&bc) {
            for k in 0..5 {
                prop_assert_eq!(a.probs[k].to_bits(), b.probs[k].to_bits());
            }
        }
    }
}

/// Scratch reuse across a stream of differently-sized cases must not
/// perturb a single bit: stale plane/roll-buffer contents from earlier
/// (larger) alignments are invisible to later ones.
#[test]
fn reused_scratch_is_bit_identical_across_random_case_stream() {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xf0_5ed);
    let mut scratch = PhmmScratch::new();
    for case in 0..300 {
        let n = rng.random_range(1..25usize);
        let m = rng.random_range(1..65usize);
        let rows: Vec<[f64; 4]> = (0..n)
            .map(|_| {
                let mut row = [0.0f64; 4];
                for v in row.iter_mut() {
                    *v = (1 + rng.random_range(0..50u32)) as f64;
                }
                let sum: f64 = row.iter().sum();
                for v in row.iter_mut() {
                    *v /= sum;
                }
                row
            })
            .collect();
        let pwm = Pwm::from_rows(rows);
        let window: Vec<Option<Base>> = (0..m)
            .map(|_| {
                let d = rng.random_range(0..80usize);
                if d < 4 {
                    None
                } else {
                    Some(BASES[d % 4])
                }
            })
            .collect();
        let params = if case % 3 == 0 {
            PhmmParams::with_gap_rates(0.05, 0.4, 0.04)
        } else {
            PhmmParams::default()
        };
        let band = match case % 4 {
            0 => None,
            r => Some(r),
        };

        let emit = pwm.emission_table(&window, &params);
        let post = PosteriorAlignment::from_emissions(emit.view(), &params, band);
        let fused_total = scratch.posterior_columns(&pwm, &window, &params, band);
        assert_eq!(
            fused_total.to_bits(),
            post.total().to_bits(),
            "case {case}: total diverged under scratch reuse"
        );
        let cols = post.column_posteriors(&pwm);
        assert_eq!(cols.len(), scratch.columns().len());
        for (j, (a, b)) in cols.iter().zip(scratch.columns()).enumerate() {
            for k in 0..5 {
                assert_eq!(
                    a.probs[k].to_bits(),
                    b.probs[k].to_bits(),
                    "case {case} column {j} symbol {k} diverged under reuse"
                );
            }
        }
    }
}
