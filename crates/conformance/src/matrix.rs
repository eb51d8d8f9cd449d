//! The driver-matrix differential runner.
//!
//! One seeded workload at a time, the serial pipeline is the reference and
//! **every driver in the [`engine::DriverRegistry`]** must reproduce it.
//! The rows are not hand-listed: the matrix iterates the registry, so a
//! newly registered execution mode is pulled into the differential sweep
//! automatically — and a driver the matrix does not know how to shape
//! fails the tier outright rather than silently escaping coverage.
//!
//! Bit-exact rows (everything funnelling through `FixedAccumulator`) must
//! match the serial run on:
//!
//! * the same `FixedAccumulator` digest (an XOR of per-position avalanche
//!   hashes over the raw count bits, so one flipped ULP anywhere in the
//!   genome changes it);
//! * bit-identical SNP-call wires (`encode_calls` compared at the
//!   `f64::to_bits` level, stricter than `PartialEq` on floats);
//! * the same mapped-read count.
//!
//! Bit-identity is achievable because every such driver funnels deposits
//! through the fixed-point accumulator, whose integer adds commute; the
//! matrix exists to catch any driver that re-orders *float* arithmetic
//! (normalisation, margin hand-off, reduction trees) instead. The one
//! float-pinned driver (`read-split-ring`) is held to semantic agreement
//! with a serial norm-accumulator run instead.

use crate::workload::{build, Workload, WorkloadSpec};
use crate::Outcome;
use engine::{Driver, DriverRegistry, EngineError, NullSink, ReadSource, RunContext};
use gnumap_core::accum::AccumulatorMode;
use gnumap_core::driver::encode_calls;
use gnumap_core::report::RunReport;

/// Workloads in the sweep (the acceptance floor is 20).
const FULL_WORKLOADS: usize = 20;
const FAST_WORKLOADS: usize = 6;

/// Run the matrix tier.
pub fn run(fast: bool) -> Outcome {
    let mut out = Outcome::default();
    let registry = DriverRegistry::standard();
    let workloads = if fast { FAST_WORKLOADS } else { FULL_WORKLOADS };
    for i in 0..workloads {
        let spec = WorkloadSpec::matrix(i);
        let wl = build(&spec);
        let mut ctx = RunContext::new(&wl.reference);
        ctx.config = wl.config;
        ctx.config.accumulator = AccumulatorMode::Fixed;
        ctx.seed = spec.seed;
        let reference = match run_driver(&registry, "serial", &ctx, &wl) {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!("workload {i}: serial reference failed: {e}"));
                continue;
            }
        };
        out.check(reference.accumulator_digest.is_some(), || {
            format!("workload {i}: serial driver produced no accumulator digest")
        });
        compare_drivers(&mut out, i, &registry, &wl, &reference, fast);
    }
    out
}

/// Resolve `name` in the registry and run it over the workload's reads.
fn run_driver(
    registry: &DriverRegistry,
    name: &str,
    ctx: &RunContext<'_>,
    wl: &Workload,
) -> Result<RunReport, EngineError> {
    registry
        .get(name)?
        .run(ctx, ReadSource::Slice(&wl.reads), &mut NullSink)
}

/// Wire form of a report's calls, compared bit-for-bit.
fn call_bits(report: &RunReport) -> Vec<u64> {
    encode_calls(&report.calls)
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

/// Assert `candidate` reproduces `reference` exactly.
fn assert_identical(
    out: &mut Outcome,
    workload: usize,
    driver: &str,
    reference: &RunReport,
    candidate: &RunReport,
) {
    out.check(
        candidate.accumulator_digest == reference.accumulator_digest,
        || {
            format!(
                "workload {workload}: {driver} accumulator digest {:?} != serial {:?}",
                candidate.accumulator_digest, reference.accumulator_digest
            )
        },
    );
    out.check(call_bits(candidate) == call_bits(reference), || {
        format!(
            "workload {workload}: {driver} calls differ from serial \
             ({} vs {} calls)",
            candidate.calls.len(),
            reference.calls.len()
        )
    });
    out.check(candidate.reads_mapped == reference.reads_mapped, || {
        format!(
            "workload {workload}: {driver} mapped {} reads, serial mapped {}",
            candidate.reads_mapped, reference.reads_mapped
        )
    });
}

/// Compare two call lists up to float reordering: matched positions must
/// agree on alleles and statistics (relative 1e-6); a position present on
/// one side only is excused iff its evidence total sits on the `min_total`
/// testing threshold, where summation order legitimately decides whether
/// the position is tested at all. Returns `None` on success, or a
/// description of the first divergence.
fn semantically_equal(
    a: &[gnumap_core::SnpCall],
    b: &[gnumap_core::SnpCall],
    min_total: f64,
) -> Option<String> {
    let (mut ia, mut ib) = (a.iter().peekable(), b.iter().peekable());
    loop {
        match (ia.peek(), ib.peek()) {
            (None, None) => return None,
            (Some(ca), Some(cb)) if ca.pos == cb.pos => {
                if ca.allele != cb.allele
                    || ca.second_allele != cb.second_allele
                    || (ca.statistic - cb.statistic).abs() > 1e-6 * cb.statistic.abs().max(1.0)
                {
                    return Some(format!(
                        "position {}: alleles/statistic differ ({} vs {})",
                        ca.pos, ca.statistic, cb.statistic
                    ));
                }
                ia.next();
                ib.next();
            }
            // One-sided call: pick whichever side is behind (or the only
            // one left) and check it is a threshold-edge site.
            (sa, sb) => {
                let lone = match (sa, sb) {
                    (Some(ca), Some(cb)) if ca.pos < cb.pos => ia.next().unwrap(),
                    (Some(_), Some(_)) | (None, Some(_)) => ib.next().unwrap(),
                    (Some(_), None) => ia.next().unwrap(),
                    (None, None) => unreachable!(),
                };
                let total: f64 = lone.counts.iter().sum();
                if (total - min_total).abs() > 1e-6 {
                    return Some(format!(
                        "position {} called on one side only with evidence total {total} \
                         (not a min_total = {min_total} edge)",
                        lone.pos
                    ));
                }
            }
        }
    }
}

/// How one registry driver is shaped and judged for workload `i`.
///
/// Every driver the registry knows must resolve to a row here; an
/// unmatched name is recorded as a tier failure so that registering a new
/// execution mode without extending the matrix cannot pass verification.
fn compare_drivers(
    out: &mut Outcome,
    workload: usize,
    registry: &DriverRegistry,
    wl: &Workload,
    reference: &RunReport,
    fast: bool,
) {
    // Vary the parallel shape with the workload index so the sweep covers
    // worker/rank/batch-size combinations without a full cross product.
    let threads = [2, 3, 4][workload % 3];
    let ranks = [2, 3, 5][workload % 3];

    for driver in registry.all() {
        let mut ctx = RunContext::new(&wl.reference);
        ctx.config = wl.config;
        ctx.config.accumulator = AccumulatorMode::Fixed;
        ctx.seed = WorkloadSpec::matrix(workload).seed;

        match driver.name() {
            // The reference row itself.
            "serial" => {}
            "rayon" => {
                ctx.threads = threads;
                run_and_assert(
                    out,
                    workload,
                    driver,
                    &format!("rayon(threads {threads})"),
                    &ctx,
                    wl,
                    reference,
                );
            }
            "read-split" | "genome-split" => {
                ctx.threads = ranks;
                run_and_assert(
                    out,
                    workload,
                    driver,
                    &format!("{}(ranks {ranks})", driver.name()),
                    &ctx,
                    wl,
                    reference,
                );
            }
            // The ring variant is pinned to the float norm accumulator
            // internally, so it lives in a different numeric domain:
            // positions whose total mass sits exactly on the `min_total`
            // testing threshold can be included or excluded depending on
            // quantization, and summation order perturbs low bits. Its
            // contract is therefore semantic agreement with a *serial
            // norm-accumulator* run: the same sites and alleles, with
            // statistics equal up to float reordering.
            "read-split-ring" => {
                if fast {
                    continue;
                }
                ctx.config.accumulator = AccumulatorMode::Norm;
                ctx.threads = ranks;
                let norm_ref = match run_driver(registry, "serial", &ctx, wl) {
                    Ok(r) => r,
                    Err(e) => {
                        out.fail(format!("workload {workload}: serial norm run failed: {e}"));
                        continue;
                    }
                };
                match driver.run(&ctx, ReadSource::Slice(&wl.reads), &mut NullSink) {
                    Ok(r) => {
                        let verdict = semantically_equal(
                            &r.calls,
                            &norm_ref.calls,
                            wl.config.calling.min_total,
                        );
                        out.check(verdict.is_none(), || {
                            format!(
                                "workload {workload}: read-split-ring(ranks {ranks}) calls \
                                 diverge from the serial norm run: {}",
                                verdict.unwrap_or_default()
                            )
                        });
                    }
                    Err(e) => out.fail(format!("workload {workload}: read-split-ring failed: {e}")),
                }
            }
            "stream" => {
                ctx.threads = [1, 2, 4][workload % 3];
                ctx.batch_size = [16, 32, 64][workload % 3];
                ctx.shards = [4, 16, 32][workload % 3];
                run_and_assert(
                    out,
                    workload,
                    driver,
                    &format!(
                        "stream(workers {}, batch {}, shards {})",
                        ctx.threads, ctx.batch_size, ctx.shards
                    ),
                    &ctx,
                    wl,
                    reference,
                );
            }
            // The serving layer: a loopback TCP round trip through the
            // batching daemon must also be bit-identical. One workload
            // suffices — the server reuses the per-session sharded
            // fixed-point accumulator, so this row guards the wire +
            // session plumbing, not the arithmetic.
            "server" => {
                if workload != 0 {
                    continue;
                }
                ctx.threads = 2;
                ctx.batch_size = 16;
                run_and_assert(
                    out,
                    workload,
                    driver,
                    "server(loopback, workers 2, batch 16)",
                    &ctx,
                    wl,
                    reference,
                );
            }
            other => out.fail(format!(
                "workload {workload}: registry driver {other:?} has no matrix row — \
                 extend compare_drivers before registering new execution modes"
            )),
        }
    }
}

fn run_and_assert(
    out: &mut Outcome,
    workload: usize,
    driver: &dyn Driver,
    label: &str,
    ctx: &RunContext<'_>,
    wl: &Workload,
    reference: &RunReport,
) {
    match driver.run(ctx, ReadSource::Slice(&wl.reads), &mut NullSink) {
        Ok(r) => assert_identical(out, workload, label, reference, &r),
        Err(e) => out.fail(format!("workload {workload}: {label} failed: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_tier_passes_fast() {
        let out = run(true);
        assert!(out.checks > 30, "expected a real sweep, got {}", out.checks);
        assert!(out.failures.is_empty(), "failures: {:#?}", out.failures);
    }

    /// Registering a driver the matrix does not know fails the tier
    /// instead of silently escaping differential coverage.
    #[test]
    fn unknown_registry_drivers_fail_the_matrix() {
        struct Rogue;
        impl Driver for Rogue {
            fn name(&self) -> &'static str {
                "rogue"
            }
            fn description(&self) -> &'static str {
                "a driver without a matrix row"
            }
            fn capabilities(&self) -> engine::Capabilities {
                engine::Capabilities {
                    accumulators: &[AccumulatorMode::Fixed],
                    parallel: false,
                    streaming: false,
                    checkpointing: false,
                    bit_exact_parallel: true,
                }
            }
            fn run(
                &self,
                _ctx: &RunContext<'_>,
                _source: ReadSource<'_>,
                _sink: &mut dyn engine::CallSink,
            ) -> Result<RunReport, EngineError> {
                unreachable!("the matrix must fail before running a rowless driver")
            }
        }

        let mut registry = DriverRegistry::standard();
        registry.register(Box::new(Rogue));
        let wl = build(&WorkloadSpec::matrix(0));
        let mut ctx = RunContext::new(&wl.reference);
        ctx.config = wl.config;
        ctx.config.accumulator = AccumulatorMode::Fixed;
        let reference = run_driver(&registry, "serial", &ctx, &wl).unwrap();

        let mut out = Outcome::default();
        compare_drivers(&mut out, 0, &registry, &wl, &reference, true);
        assert!(
            out.failures.iter().any(|f| f.contains("no matrix row")),
            "failures: {:#?}",
            out.failures
        );
    }
}
