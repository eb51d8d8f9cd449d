//! The two MPI decompositions side by side on the simulated runtime:
//! read-split (shared genome) vs genome-split (spread memory), with call
//! agreement, per-rank memory and communication traffic.
//!
//! ```sh
//! cargo run --release --example distributed
//! ```

use gnumap_snp::engine;
use gnumap_snp::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use simulate::reads::{simulate_reads, ReadSimConfig, ReadSource};

fn main() {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let reference = simulate::generate_genome(
        &simulate::GenomeConfig {
            length: 30_000,
            repeat_families: 2,
            ..Default::default()
        },
        &mut rng,
    );
    let snps = simulate::generate_snp_catalog(
        &reference,
        &simulate::SnpCatalogConfig {
            count: 8,
            ..Default::default()
        },
        &mut rng,
    );
    let individual = simulate::apply_snps_monoploid(&reference, &snps);
    let read_cfg = ReadSimConfig {
        coverage: 12.0,
        ..Default::default()
    };
    let reads: Vec<_> = simulate_reads(
        &ReadSource::Monoploid(&individual),
        read_cfg.read_count(reference.len()),
        &read_cfg,
        &mut rng,
    )
    .into_iter()
    .map(|r| r.read)
    .collect();

    let ranks = 4;
    let registry = DriverRegistry::standard();
    let mut ctx = RunContext::new(&reference);
    ctx.threads = ranks;
    let run = |name: &str| {
        registry
            .get(name)
            .expect("registered driver")
            .run(&ctx, engine::ReadSource::Slice(&reads), &mut NullSink)
            .expect("call wire intact")
    };

    println!(
        "workload: {} bp genome, {} reads, {} ranks\n",
        reference.len(),
        reads.len(),
        ranks
    );

    let shared = run("read-split");
    let spread = run("genome-split");

    for (name, report, per_rank_note) in [
        (
            "read-split (shared genome)",
            &shared,
            "full genome accumulator on every rank",
        ),
        (
            "genome-split (spread memory)",
            &spread,
            "≈1/ranks of the accumulator per rank",
        ),
    ] {
        let traffic = report.traffic.unwrap();
        println!("{name}:");
        println!("  calls            : {}", report.calls.len());
        println!(
            "  wall time        : {:.2}s ({:.0} seqs/sec)",
            report.elapsed_secs,
            report.seqs_per_sec()
        );
        println!(
            "  accumulator bytes: {} ({per_rank_note})",
            report.accumulator_bytes
        );
        println!("  traffic          : {traffic}\n");
    }

    let shared_calls: Vec<(usize, Base)> = shared.calls.iter().map(|c| (c.pos, c.allele)).collect();
    let spread_calls: Vec<(usize, Base)> = spread.calls.iter().map(|c| (c.pos, c.allele)).collect();
    println!(
        "decomposition-independence: calls identical = {}",
        shared_calls == spread_calls
    );
    let truth: Vec<_> = snps.iter().map(|s| (s.pos, s.alt)).collect();
    let accuracy = score_snp_calls(&shared.calls, &truth);
    println!(
        "accuracy vs truth: TP {} FP {} FN {}",
        accuracy.true_positives, accuracy.false_positives, accuracy.false_negatives
    );
    println!(
        "\nthe genome-split mode pays {}x more messages for its memory saving —\n\
         the paper's Figure 4 trade-off.",
        spread.traffic.unwrap().messages.max(1) / shared.traffic.unwrap().messages.max(1)
    );
}
