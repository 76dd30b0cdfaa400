//! Scale — visits/s of the sharded population engine vs shard count.
//!
//! The ROADMAP's north star is "heavy traffic from millions of users …
//! as fast as the hardware allows"; this binary quantifies how far the
//! sharded batch engine (`population::shard`) gets toward it on the
//! current machine, and re-checks the determinism contract while it's at
//! it (a fast parallel engine that changes the science is worthless).
//!
//! Output: a table of `shards → visits/s → speedup` against the serial
//! batch driver, plus `results/scale.json`. Overrides (CLI flag or env,
//! via `bench::fixtures::RunArgs`): `--visits`/`ENCORE_VISITS` (total
//! visits per run, default 100 000), `--shards`/`ENCORE_SHARDS` (highest
//! shard count in the sweep, default 8), `--seed`/`ENCORE_SEED`.
//!
//! Exit is non-zero if determinism is violated (1-shard run differing
//! from the serial driver, or a repeated run differing from itself), or
//! if the throughput gate fails. The gate asks for 40% parallel
//! efficiency of the hardware thread count, capped at the 4× target
//! (reached at ≥ 10 threads) and floored at 0.4× on a single core;
//! `--min-speedup`/`ENCORE_MIN_SPEEDUP` overrides it.

use bench::fixtures::RunArgs;
use bench::print_table;
use bench::shard_fixture::{batch, build_censored as build};
use netsim::geo::World;
use population::shard::ShardContext;
use population::{run_sharded_world, run_visit_batch, Audience, WorldRecipe};
use serde::Serialize;
use sim_core::SimRng;
use std::time::Instant;

#[derive(Serialize)]
struct ShardPoint {
    shards: usize,
    visits_per_sec: f64,
    speedup_vs_serial: f64,
    detections: usize,
}

#[derive(Serialize)]
struct ScaleResult {
    visits: u64,
    hardware_threads: usize,
    serial_visits_per_sec: f64,
    points: Vec<ShardPoint>,
    lockstep_ok: bool,
    reproducible_ok: bool,
    verdicts_stable: bool,
}

fn main() {
    let args = RunArgs::parse();
    let visits = args.visits(100_000);
    let max_shards = args.shards(8);
    let seed = args.seed;
    let audience = Audience::world(&World::builtin());
    let hardware = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Serial baseline: the existing single-thread batch driver. The
    // world build is inside the timed region, as it is for the sharded
    // runs below (each shard builds its own world on its thread) — the
    // speedup comparison must be end-to-end on both sides.
    let t0 = Instant::now();
    let (mut net, mut sys) = build(ShardContext {
        index: 0,
        shards: 1,
    });
    let mut rng = SimRng::new(seed);
    let serial_report = run_visit_batch(&mut net, &mut sys, &audience, &batch(visits), &mut rng);
    let serial_secs = t0.elapsed().as_secs_f64();
    let serial_vps = visits as f64 / serial_secs;
    let serial_snapshot = sys.collection.snapshot();

    let shard_counts: Vec<usize> = [1usize, 2, 4, 8, 16, 32]
        .into_iter()
        .filter(|&s| s <= max_shards.max(1))
        .collect();

    let mut points = Vec::new();
    let mut lockstep_ok = true;
    let mut verdict_sets: Vec<Vec<String>> = Vec::new();
    let mut rows = Vec::new();
    rows.push(vec![
        "serial".to_string(),
        format!("{serial_vps:.0}"),
        "1.00x".to_string(),
        "-".to_string(),
    ]);

    let recipe = WorldRecipe::batch(batch(visits));
    for &shards in &shard_counts {
        let t = Instant::now();
        let run = run_sharded_world(&build, &audience, &recipe, shards, seed);
        let secs = t.elapsed().as_secs_f64();
        let vps = visits as f64 / secs;

        if shards == 1 && (run.outcome.report != serial_report || run.collection != serial_snapshot)
        {
            eprintln!("DETERMINISM VIOLATION: 1-shard run differs from the serial driver");
            lockstep_ok = false;
        }
        let keys = bench::shard_fixture::verdict_keys(&run.collection.records, &run.geo);

        rows.push(vec![
            shards.to_string(),
            format!("{vps:.0}"),
            format!("{:.2}x", vps / serial_vps),
            keys.len().to_string(),
        ]);
        points.push(ShardPoint {
            shards,
            visits_per_sec: vps,
            speedup_vs_serial: vps / serial_vps,
            detections: keys.len(),
        });
        verdict_sets.push(keys);
    }

    let verdicts_stable = verdict_sets.windows(2).all(|w| w[0] == w[1]);
    if !verdicts_stable {
        eprintln!("DETERMINISM VIOLATION: detector verdicts vary with shard count");
    }

    // Reproducibility at the highest shard count.
    let top = *shard_counts.last().unwrap();
    let recipe = WorldRecipe::batch(batch(visits.min(20_000)));
    let a = run_sharded_world(&build, &audience, &recipe, top, seed);
    let b = run_sharded_world(&build, &audience, &recipe, top, seed);
    let reproducible_ok = a.outcome.report == b.outcome.report && a.collection == b.collection;
    if !reproducible_ok {
        eprintln!("DETERMINISM VIOLATION: fixed (seed, shards) run not reproducible");
    }

    println!(
        "Sharded population engine — {visits} visits, seed {seed:#x}, {hardware} hw thread(s)"
    );
    print_table(&["shards", "visits/s", "speedup", "verdicts"], &rows);

    let best = points
        .iter()
        .map(|p| p.speedup_vs_serial)
        .fold(0.0f64, f64::max);

    args.write_results(
        "scale",
        &ScaleResult {
            visits,
            hardware_threads: hardware,
            serial_visits_per_sec: serial_vps,
            points,
            lockstep_ok,
            reproducible_ok,
            verdicts_stable,
        },
    );

    // Throughput gate, scaled smoothly to what this machine can
    // physically show: 40% parallel efficiency of the hardware thread
    // count, capped at the ISSUE's 4× target (reached at ≥ 10 threads)
    // and floored at 0.4× (sharding must never be catastrophically
    // slower than serial, even on one core). `ENCORE_MIN_SPEEDUP`
    // overrides for stricter or laxer environments — wall-clock speedup
    // on shared CI runners is inherently noisy, so the default leans
    // lenient; determinism violations always fail regardless.
    let required = args.min_speedup((0.4 * hardware as f64).clamp(0.4, 4.0));
    let throughput_ok = best >= required;
    if !throughput_ok {
        eprintln!(
            "THROUGHPUT REGRESSION: best speedup {best:.2}x < required {required:.2}x \
             ({hardware} hw threads)"
        );
    }

    if !(lockstep_ok && reproducible_ok && verdicts_stable && throughput_ok) {
        std::process::exit(1);
    }
}
