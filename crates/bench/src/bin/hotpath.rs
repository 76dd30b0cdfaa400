//! Hotpath — ns/visit and visits/s of the per-visit pipeline, the
//! canonical perf-trajectory artifact for the data-oriented hot path.
//!
//! Where `scale` and `world_scale` ask "how far does sharding get us",
//! this binary asks the prior question: **how expensive is one visit?**
//! It times the serial batch driver on the shared `bench::shard_fixture`
//! censored world in three session-temperature modes —
//!
//! * `cold`  — `repeat_visitor_rate = 0.0`: every visit builds a fresh
//!   browser client (fresh DNS cache, no keep-alive, cold HTTP cache);
//! * `mixed` — the default 0.35 repeat rate (the `BatchConfig` default,
//!   what `scale` gates on);
//! * `warm`  — `repeat_visitor_rate = 0.95`: almost every visit runs on
//!   a pooled client whose session state is already hot, i.e. the
//!   zero-allocation warm path the interning/SoA work targets;
//!
//! — plus a sharded run of the `mixed` mode at the machine's top shard
//! count. Results go to `results/hotpath.json`. Every speedup it reports
//! is against a run on the same host in the same invocation.
//!
//! Determinism is re-checked while timing: the 1-shard sharded run must
//! be byte-identical to the serial driver, and a repeated serial run
//! must reproduce exactly. The throughput gate is parallelism-aware
//! (same shape as `world_scale`): the sharded run must reach 40%
//! parallel efficiency of the hardware thread count, capped at 4× and
//! floored at 0.4×; `--min-speedup`/`ENCORE_MIN_SPEEDUP` overrides.
//! Exit is non-zero on any determinism violation or a failed gate.
//!
//! Every timed configuration runs `--reps`/`ENCORE_REPS` times
//! (default 3) and reports the minimum wall time: noise on a shared
//! machine is one-sided (steal and frequency dips only add time), so
//! the minimum is the estimator closest to the true per-visit cost.
//! The repetitions double as reproducibility probes — every rep of a
//! configuration must produce byte-identical reports.
//!
//! Overrides: `--visits`/`ENCORE_VISITS` (default 100 000),
//! `--shards`/`ENCORE_SHARDS` (default 8), `--seed`/`ENCORE_SEED`,
//! `--reps`/`ENCORE_REPS`.

use bench::fixtures::RunArgs;
use bench::print_table;
use bench::shard_fixture::{batch, build_censored as build};
use netsim::geo::World;
use population::shard::ShardContext;
use population::{run_sharded_world, run_visit_batch, Audience, BatchConfig, WorldRecipe};
use serde::Serialize;
use sim_core::SimRng;
use std::time::Instant;

#[derive(Serialize)]
struct ModePoint {
    mode: &'static str,
    repeat_visitor_rate: f64,
    visits_per_sec: f64,
    ns_per_visit: f64,
}

#[derive(Serialize)]
struct ShardPoint {
    shards: usize,
    visits_per_sec: f64,
    ns_per_visit: f64,
    speedup_vs_serial: f64,
}

#[derive(Serialize)]
struct HotpathResult {
    visits: u64,
    hardware_threads: usize,
    serial: Vec<ModePoint>,
    sharded: Vec<ShardPoint>,
    lockstep_ok: bool,
    reproducible_ok: bool,
}

/// The fixture batch with an overridden repeat-visitor rate.
fn mode_config(visits: u64, repeat: f64) -> BatchConfig {
    BatchConfig {
        repeat_visitor_rate: repeat,
        ..batch(visits)
    }
}

/// Run the serial batch driver once; world build is *outside* the timed
/// region — this binary measures the per-visit pipeline, not world
/// construction (which `scale` already covers end-to-end).
fn run_serial(
    visits: u64,
    repeat: f64,
    seed: u64,
    audience: &Audience,
) -> (population::BatchReport, encore::CollectionSnapshot, f64) {
    let (mut net, mut sys) = build(ShardContext {
        index: 0,
        shards: 1,
    });
    let config = mode_config(visits, repeat);
    let mut rng = SimRng::new(seed);
    let t0 = Instant::now();
    let report = run_visit_batch(&mut net, &mut sys, audience, &config, &mut rng);
    let secs = t0.elapsed().as_secs_f64();
    (report, sys.collection.snapshot(), secs)
}

fn main() {
    let args = RunArgs::parse();
    let visits = args.visits(100_000);
    let max_shards = args.shards(8);
    let reps = args.reps(3);
    let seed = args.seed;
    let audience = Audience::world(&World::builtin());
    let hardware = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Serial temperature sweep.
    let modes: [(&'static str, f64); 3] = [("cold", 0.0), ("mixed", 0.35), ("warm", 0.95)];
    let mut serial_points = Vec::new();
    let mut mixed_vps = 0.0;
    let mut mixed_report = None;
    let mut mixed_snapshot = None;
    let mut rows = Vec::new();
    // Serial reproducibility rides on the repetitions: the same
    // (seed, config) must reproduce byte-for-byte — the per-visit
    // pipeline may not read wall-clock, addresses, or
    // iteration-order-unstable state.
    let mut reproducible_ok = true;
    for (mode, repeat) in modes {
        let (report, snapshot, mut secs) = run_serial(visits, repeat, seed, &audience);
        for _ in 1..reps {
            let (rep_n, snap_n, secs_n) = run_serial(visits, repeat, seed, &audience);
            if rep_n != report || snap_n != snapshot {
                eprintln!("DETERMINISM VIOLATION: fixed-seed serial/{mode} run not reproducible");
                reproducible_ok = false;
            }
            secs = secs.min(secs_n);
        }
        let vps = report.visits as f64 / secs;
        let ns = secs * 1e9 / report.visits as f64;
        rows.push(vec![
            format!("serial/{mode}"),
            format!("{vps:.0}"),
            format!("{ns:.0}"),
            "-".to_string(),
        ]);
        if mode == "mixed" {
            mixed_vps = vps;
            mixed_report = Some(report);
            mixed_snapshot = Some(snapshot);
        }
        serial_points.push(ModePoint {
            mode,
            repeat_visitor_rate: repeat,
            visits_per_sec: vps,
            ns_per_visit: ns,
        });
    }
    let mixed_report = mixed_report.unwrap();
    let mixed_snapshot = mixed_snapshot.unwrap();

    // Sharded mixed mode: 1 shard (lockstep check) and the top count.
    let shard_counts: Vec<usize> = [1usize, max_shards.max(1)]
        .into_iter()
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let mut shard_points = Vec::new();
    let mut lockstep_ok = true;
    let recipe = WorldRecipe::batch(mode_config(visits, 0.35));
    for &shards in &shard_counts {
        let t = Instant::now();
        let run = run_sharded_world(&build, &audience, &recipe, shards, seed);
        let mut secs = t.elapsed().as_secs_f64();
        for _ in 1..reps {
            let t = Instant::now();
            let run_n = run_sharded_world(&build, &audience, &recipe, shards, seed);
            secs = secs.min(t.elapsed().as_secs_f64());
            if run_n.outcome.report != run.outcome.report || run_n.collection != run.collection {
                eprintln!("DETERMINISM VIOLATION: fixed-seed {shards}-shard run not reproducible");
                lockstep_ok = false;
            }
        }
        let report = run.outcome.report;
        let vps = report.visits as f64 / secs;
        if shards == 1 && (report != mixed_report || run.collection != mixed_snapshot) {
            eprintln!("DETERMINISM VIOLATION: 1-shard run differs from the serial driver");
            lockstep_ok = false;
        }
        rows.push(vec![
            format!("shards/{shards}"),
            format!("{vps:.0}"),
            format!("{:.0}", secs * 1e9 / report.visits as f64),
            format!("{:.2}x", vps / mixed_vps),
        ]);
        shard_points.push(ShardPoint {
            shards,
            visits_per_sec: vps,
            ns_per_visit: secs * 1e9 / report.visits as f64,
            speedup_vs_serial: vps / mixed_vps,
        });
    }

    let best = shard_points
        .iter()
        .map(|p| p.speedup_vs_serial)
        .fold(0.0f64, f64::max);
    println!(
        "Visit hot path — {visits} visits, seed {seed:#x}, {hardware} hw thread(s), \
         min of {reps} rep(s)"
    );
    print_table(&["config", "visits/s", "ns/visit", "vs serial"], &rows);

    args.write_results(
        "hotpath",
        &HotpathResult {
            visits,
            hardware_threads: hardware,
            serial: serial_points,
            sharded: shard_points,
            lockstep_ok,
            reproducible_ok,
        },
    );

    // Parallelism-aware throughput gate, same shape as `world_scale`:
    // the sharded run must show real parallel efficiency on this
    // machine. (Wall-clock on arbitrary runners is too noisy to
    // hard-gate an absolute number.)
    let required = args.min_speedup((0.4 * hardware as f64).clamp(0.4, 4.0));
    let throughput_ok = best >= required;
    if !throughput_ok {
        eprintln!(
            "THROUGHPUT REGRESSION: best sharded speedup {best:.2}x < required {required:.2}x \
             ({hardware} hw threads)"
        );
    }

    if !(lockstep_ok && reproducible_ok && throughput_ok) {
        std::process::exit(1);
    }
}
