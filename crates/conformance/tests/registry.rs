//! Registry coverage: every driver the registry exposes runs under every
//! accumulator mode it advertises, on a seeded workload, and agrees with
//! the serial pipeline.
//!
//! The matrix tier checks bit-identity for the fixed-point rows; this
//! sweep is broader but shallower — it guards the *capability table*
//! itself. A driver advertising a mode it cannot run, or producing calls
//! at different sites than serial under an advertised mode, fails here.

use conformance::workload::{build, WorkloadSpec};
use engine::{DriverRegistry, NullSink, ReadSource, RunContext};
use gnumap_core::accum::AccumulatorMode;
use gnumap_core::SnpCall;

fn workload_spec() -> WorkloadSpec {
    WorkloadSpec {
        seed: 0x005e_9157,
        genome_len: 2_000,
        snp_count: 4,
        coverage: 6.0,
        read_length: 62,
        repeat_families: 0,
    }
}

/// Positions and alleles only — statistics differ across accumulator
/// numeric domains (float vs fixed point), sites and alleles must not.
/// A site on one side only is excused iff its evidence total sits on the
/// `min_total` testing threshold, where quantization legitimately decides
/// whether the site is tested at all.
fn same_sites(a: &[SnpCall], b: &[SnpCall], min_total: f64) -> Result<(), String> {
    let site = |c: &SnpCall| (c.pos, c.allele, c.second_allele);
    let on_edge = |c: &SnpCall| {
        let total: f64 = c.counts.iter().sum();
        (total - min_total).abs() <= 1e-6
    };
    let bs: std::collections::BTreeMap<_, _> = b.iter().map(|c| (c.pos, c)).collect();
    for ca in a {
        match bs.get(&ca.pos) {
            Some(cb) if site(ca) == site(cb) => {}
            Some(cb) => {
                return Err(format!(
                    "position {}: alleles differ ({ca:?} vs {cb:?})",
                    ca.pos
                ))
            }
            None if on_edge(ca) => {}
            None => return Err(format!("position {} called on one side only", ca.pos)),
        }
    }
    let as_: std::collections::BTreeSet<_> = a.iter().map(|c| c.pos).collect();
    for cb in b {
        if !as_.contains(&cb.pos) && !on_edge(cb) {
            return Err(format!("position {} called on one side only", cb.pos));
        }
    }
    Ok(())
}

#[test]
fn every_driver_runs_every_advertised_accumulator_mode() {
    let wl = build(&workload_spec());
    let registry = DriverRegistry::standard();
    let serial = registry.get("serial").unwrap();

    for driver in registry.all() {
        let caps = driver.capabilities();
        assert!(
            !caps.accumulators.is_empty(),
            "{} advertises no accumulator at all",
            driver.name()
        );
        for &mode in caps.accumulators {
            let mut ctx = RunContext::new(&wl.reference);
            ctx.config = wl.config;
            ctx.config.accumulator = mode;
            ctx.seed = workload_spec().seed;
            ctx.threads = 2;
            ctx.batch_size = 16;
            ctx.shards = 8;

            let report = driver
                .run(&ctx, ReadSource::Slice(&wl.reads), &mut NullSink)
                .unwrap_or_else(|e| panic!("{} × {mode:?} failed: {e}", driver.name()));
            let reference = serial
                .run(&ctx, ReadSource::Slice(&wl.reads), &mut NullSink)
                .unwrap_or_else(|e| panic!("serial × {mode:?} failed: {e}"));

            // Mapping is independent of the accumulator layout.
            assert_eq!(
                report.reads_mapped,
                reference.reads_mapped,
                "{} × {mode:?}: mapped-read count diverged",
                driver.name()
            );
            if let Err(why) =
                same_sites(&report.calls, &reference.calls, wl.config.calling.min_total)
            {
                panic!("{} × {mode:?}: {why}", driver.name());
            }
            // Fixed point is the bit-exact domain: digests must match, not
            // just sites.
            if mode == AccumulatorMode::Fixed {
                assert_eq!(
                    report.accumulator_digest,
                    reference.accumulator_digest,
                    "{} × Fixed: digest diverged from serial",
                    driver.name()
                );
            }
        }
    }
}
