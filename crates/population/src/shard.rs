//! Sharded multi-core population engine.
//!
//! One [`crate::world::WorldRecipe`] — arrivals *plus* the full control
//! plane of a longitudinal run (policy timelines, mutations,
//! re-prioritisations, maintenance, rollups) — executes across N shards
//! the way large discrete-event simulators parallelise: **control
//! events are broadcast** verbatim to every shard ([`shard_recipe`]),
//! **workload events are partitioned** 1/N ([`shard_batch_config`] /
//! [`shard_deployment_config`]), and per-shard outputs **merge
//! deterministically** in shard order through the associative
//! [`crate::analytics::Merge`] path. [`run_sharded_world`] is the entry
//! point for OS threads; [`crate::transport`] runs the same shards in
//! worker processes. Both backends share the two pieces that matter:
//! one function runs a shard (build, thin, run, snapshot) and one fold
//! merges shard outputs in index order. Each shard runs its own private
//! world engine with
//!
//! * an **independent deterministic RNG stream** ([`SimRng::split`]:
//!   disjoint 2^192-draw blocks *and* a re-keyed fork namespace, with
//!   shard 0 reproducing the serial stream exactly),
//! * a **private `Network` + `EncoreSystem`** built from a shared,
//!   `Send + Sync` scenario via the caller's builder (nothing
//!   thread-unsafe ever crosses a thread boundary — each shard's striped
//!   [`netsim::ip::IpAllocator`] keeps its address space disjoint from
//!   every sibling's), and
//! * a **thinned Poisson arrival process**: shard *i* of *N* runs 1/N of
//!   the visits at N× the inter-arrival gap. Superposing N independent
//!   Poisson processes of rate λ/N yields a Poisson process of rate λ,
//!   so the sharded population is statistically the serial population —
//!   and at N = 1 it is *bitwise* the serial population.
//!
//! Afterwards the per-shard outputs merge through associative APIs
//! ([`BatchReport::merge`], [`CollectionSnapshot::merge`],
//! [`GeoDb::merge`]) in shard-index order, so the merged run is
//! byte-stable regardless of scheduling, and the §7.2 detector runs
//! once over the union.

use crate::analytics::Merge;
use crate::audience::Audience;
use crate::batch::{BatchConfig, BatchReport};
use crate::driver::DeploymentConfig;
use crate::world::{RunMode, WorldEngine, WorldOutcome, WorldRecipe};
use encore::collection::CollectionSnapshot;
use encore::geo::GeoDb;
use encore::system::EncoreSystem;
use netsim::network::Network;
use serde::{Deserialize, Serialize};
use sim_core::{SimDuration, SimRng};
use std::thread;

/// Which slice of a sharded run a builder is materialising.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardContext {
    /// This shard's index, `0..shards`.
    pub index: usize,
    /// Total shard count.
    pub shards: usize,
}

/// The batch configuration shard `index` of `shards` actually runs:
/// `1/shards` of the visits (earlier shards take the remainder), the
/// arrival gap scaled by `shards` (Poisson thinning), and a
/// proportionally divided client pool. With `shards == 1` this is the
/// input config unchanged — the lockstep guarantee.
pub fn shard_batch_config(total: &BatchConfig, shards: usize, index: usize) -> BatchConfig {
    assert!(shards >= 1, "shard count must be at least 1");
    assert!(
        index < shards,
        "shard index {index} out of range 0..{shards}"
    );
    if shards == 1 {
        // Bitwise lockstep with the serial driver: not even a float
        // round-trip on the gap, not even a clamped pool size.
        return *total;
    }
    let base = total.visits / shards as u64;
    let remainder = total.visits % shards as u64;
    let visits = base + u64::from((index as u64) < remainder);
    let mean_gap = SimDuration::from_millis_f64(total.mean_gap.as_millis_f64() * shards as f64);
    BatchConfig {
        visits,
        mean_gap,
        repeat_visitor_rate: total.repeat_visitor_rate,
        client_pool: total.client_pool.div_ceil(shards),
    }
}

/// The deployment configuration shard `index` of `shards` actually runs:
/// the Poisson arrival *rate* divides by the shard count (thinning — the
/// per-origin gap distribution stretches by N, and superposing the N
/// thinned streams reproduces the aggregate rate), the span is
/// unchanged, and the returning-visitor pool divides proportionally.
/// With `shards == 1` this is the input config unchanged — the lockstep
/// guarantee.
pub fn shard_deployment_config(
    total: &DeploymentConfig,
    shards: usize,
    index: usize,
) -> DeploymentConfig {
    assert!(shards >= 1, "shard count must be at least 1");
    assert!(
        index < shards,
        "shard index {index} out of range 0..{shards}"
    );
    if shards == 1 {
        // Bitwise lockstep with the serial engine: not even a float
        // round-trip on the rate.
        return *total;
    }
    DeploymentConfig {
        duration: total.duration,
        visits_per_day_per_weight: total.visits_per_day_per_weight / shards as f64,
        repeat_visitor_rate: total.repeat_visitor_rate,
        returning_pool: total.returning_pool.div_ceil(shards),
    }
}

/// The recipe shard `index` of `shards` actually executes: **control
/// events broadcast verbatim** (the policy timeline, shared mutations,
/// re-prioritisations, maintenance and rollup cadences are byte-for-byte
/// the caller's — every shard replays the identical control schedule
/// against its own private world), while the **arrival process thins
/// 1/N** ([`shard_batch_config`] / [`shard_deployment_config`]). At
/// `shards == 1` the recipe is returned unchanged, so a one-shard
/// sharded run replays the serial engine exactly.
pub fn shard_recipe(recipe: &WorldRecipe, shards: usize, index: usize) -> WorldRecipe {
    let mut sharded = recipe.clone();
    sharded.mode = match recipe.mode {
        RunMode::Deployment(config) => {
            RunMode::Deployment(shard_deployment_config(&config, shards, index))
        }
        RunMode::Batch(config) => RunMode::Batch(shard_batch_config(&config, shards, index)),
    };
    sharded
}

/// Derive the per-shard RNG streams from a root seed. Stream 0 is an
/// exact snapshot of `SimRng::new(seed)` (so a one-shard run replays the
/// serial run); streams 1..N occupy disjoint long-jump blocks with
/// re-keyed fork namespaces.
pub fn shard_rngs(seed: u64, shards: usize) -> Vec<SimRng> {
    let mut root = SimRng::new(seed);
    (0..shards).map(|_| root.split()).collect()
}

/// One shard's output: what a thread hands back and what a worker
/// process streams over the pipe.
#[derive(Debug)]
pub(crate) struct ShardOutput {
    pub(crate) outcome: WorldOutcome,
    pub(crate) collection: CollectionSnapshot,
    pub(crate) geo: GeoDb,
}

impl Merge for ShardOutput {
    /// Piecewise fold through each component's associative merge.
    fn merge(self, other: ShardOutput) -> ShardOutput {
        ShardOutput {
            outcome: self.outcome.merge(other.outcome),
            collection: Merge::merge(self.collection, other.collection),
            geo: Merge::merge(self.geo, other.geo),
        }
    }
}

/// Run shard `ctx` of `recipe`: build its private world, replay
/// [`shard_recipe`] on it with the shard's RNG stream, and snapshot the
/// result. The thread backend calls this on each scoped thread, and a
/// worker process calls it once; nothing else runs a shard.
pub(crate) fn run_shard<F>(
    build: &F,
    audience: &Audience,
    recipe: &WorldRecipe,
    ctx: ShardContext,
    mut rng: SimRng,
) -> ShardOutput
where
    F: Fn(ShardContext) -> (Network, EncoreSystem),
{
    let (mut net, mut sys) = build(ctx);
    let shard_cfg = shard_recipe(recipe, ctx.shards, ctx.index);
    let outcome =
        WorldEngine::from_recipe(&mut net, &mut sys, audience, &shard_cfg, &mut rng).run();
    ShardOutput {
        outcome,
        collection: sys.collection.snapshot(),
        geo: GeoDb::from_allocator(&net.allocator),
    }
}

/// The coordinator fold both backends share: shard outputs pushed **in
/// shard-index order** fold through [`ShardOutput`]'s associative
/// [`Merge`], so the result is the same whichever backend produced them.
pub(crate) struct ShardFold {
    acc: Option<ShardOutput>,
    per_shard: Vec<BatchReport>,
    peak_resident: usize,
}

impl ShardFold {
    /// An empty fold expecting `shards` outputs.
    pub(crate) fn new(shards: usize) -> ShardFold {
        ShardFold {
            acc: None,
            per_shard: Vec::with_capacity(shards),
            peak_resident: 0,
        }
    }

    /// Fold in the next shard's output.
    pub(crate) fn push(&mut self, output: ShardOutput) {
        // Resident while this shard folds: the accumulator (if any) plus
        // the shard being folded — never more, whatever the shard count.
        self.peak_resident = self.peak_resident.max(usize::from(self.acc.is_some()) + 1);
        self.per_shard.push(output.outcome.report);
        self.acc = Some(match self.acc.take() {
            Some(acc) => acc.merge(output),
            None => output,
        });
    }

    /// Peak outcome-shaped aggregates resident at once so far.
    pub(crate) fn peak_resident_outcomes(&self) -> usize {
        self.peak_resident
    }

    /// The merged run.
    ///
    /// # Panics
    ///
    /// Panics if no shard was pushed — both backends run at least one.
    pub(crate) fn finish(self) -> ShardedWorldRun {
        let merged = self.acc.expect("a shard fold needs at least one shard");
        ShardedWorldRun {
            outcome: merged.outcome,
            per_shard: self.per_shard,
            collection: merged.collection,
            geo: merged.geo,
        }
    }
}

/// The merged outcome of a sharded world run.
#[derive(Debug, Clone)]
pub struct ShardedWorldRun {
    /// The merged world outcome: union report, time-interleaved visit
    /// log, pointwise-summed rollup series, control-plane policy count.
    pub outcome: WorldOutcome,
    /// Per-shard reports, in shard-index order.
    pub per_shard: Vec<BatchReport>,
    /// Union of all shard collection stores, in canonical order.
    pub collection: CollectionSnapshot,
    /// Union of all shard GeoIP databases (disjoint striped ranges).
    pub geo: GeoDb,
}

/// Execute one [`WorldRecipe`] across `shards` OS threads. A flat batch
/// run is the recipe [`WorldRecipe::batch`].
///
/// `build` is called once per shard, *on that shard's thread*, and must
/// return a freshly built `Network` + deployed `EncoreSystem` for the
/// given [`ShardContext`] — typically via
/// [`netsim::scenario::NetworkScenario::build_shard`] (or
/// [`netsim::scenario::WorldScenario::build_shard`] for worlds with
/// pre-installed middleboxes) plus `EncoreSystem::deploy`. The builder
/// must be deterministic in the context: building the same shard twice
/// must yield identical deployments.
///
/// Each shard runs [`WorldEngine::from_recipe`] over
/// [`shard_recipe`]\(recipe, shards, index\): control events (policy
/// changes, mutations, re-prioritisations, maintenance, rollups) are
/// **broadcast** verbatim to every shard, arrival events are **thinned**
/// 1/N, and the per-shard RNG streams come from [`shard_rngs`]
/// (`SimRng::split` / `long_jump`, shard 0 reproducing the serial stream
/// exactly). The threads are joined in shard-index order and each output
/// folds through the associative [`crate::analytics::Merge`] path, so
/// the result is deterministic in `(seed, recipe, shards, scenario)` no
/// matter how the threads were scheduled — and at `shards == 1` it is
/// byte-identical to `WorldEngine::from_recipe(..).run()` on the same
/// recipe (`tests/world_shard_equivalence.rs`).
pub fn run_sharded_world<F>(
    build: &F,
    audience: &Audience,
    recipe: &WorldRecipe,
    shards: usize,
    seed: u64,
) -> ShardedWorldRun
where
    F: Fn(ShardContext) -> (Network, EncoreSystem) + Sync,
{
    assert!(shards >= 1, "shard count must be at least 1");
    let mut fold = ShardFold::new(shards);
    thread::scope(|scope| {
        let handles: Vec<_> = shard_rngs(seed, shards)
            .into_iter()
            .enumerate()
            .map(|(index, rng)| {
                let ctx = ShardContext { index, shards };
                scope.spawn(move || run_shard(build, audience, recipe, ctx, rng))
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(output) => fold.push(output),
                // Re-raise the shard's own panic, message intact.
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    fold.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use encore::coordination::SchedulingStrategy;
    use encore::delivery::OriginSite;
    use encore::tasks::{MeasurementId, MeasurementTask, TaskSpec};
    use netsim::geo::country;
    use netsim::http::{ContentType, HttpResponse};
    use netsim::scenario::{NetworkScenario, WorldSpec};

    fn scenario() -> NetworkScenario {
        NetworkScenario::new(WorldSpec::Builtin)
            .with_ideal_paths()
            .with_server(
                "target.example",
                country("US"),
                HttpResponse::ok(ContentType::Image, 400),
            )
    }

    fn build(ctx: ShardContext) -> (Network, EncoreSystem) {
        let mut net = scenario().build_shard(ctx.index, ctx.shards);
        let tasks = vec![MeasurementTask {
            id: MeasurementId(0),
            spec: TaskSpec::Image {
                url: "http://target.example/favicon.ico".into(),
            },
        }];
        let sys = EncoreSystem::deploy(
            &mut net,
            tasks,
            SchedulingStrategy::RoundRobin,
            vec![OriginSite::academic("prof.example")],
            country("US"),
        );
        (net, sys)
    }

    #[test]
    fn visits_partition_exactly() {
        let total = BatchConfig {
            visits: 10,
            ..BatchConfig::default()
        };
        for shards in [1usize, 2, 3, 7, 10, 11] {
            let sum: u64 = (0..shards)
                .map(|i| shard_batch_config(&total, shards, i).visits)
                .sum();
            assert_eq!(sum, 10, "visits lost at {shards} shards");
        }
    }

    #[test]
    fn one_shard_config_is_the_serial_config() {
        let total = BatchConfig::default();
        assert_eq!(shard_batch_config(&total, 1, 0), total);
        // Including degenerate configs — a zero pool must stay zero, or
        // the 1-shard RNG stream diverges from the serial driver's.
        let no_pool = BatchConfig {
            client_pool: 0,
            ..BatchConfig::default()
        };
        assert_eq!(shard_batch_config(&no_pool, 1, 0), no_pool);
        assert_eq!(shard_batch_config(&no_pool, 4, 2).client_pool, 0);
    }

    #[test]
    fn gap_scales_with_shard_count() {
        let total = BatchConfig::default();
        let two = shard_batch_config(&total, 2, 0);
        assert_eq!(
            two.mean_gap.as_millis_f64(),
            total.mean_gap.as_millis_f64() * 2.0
        );
    }

    /// A flat batch of `visits` over `shards` threads.
    fn run_batch(visits: u64, shards: usize, seed: u64) -> ShardedWorldRun {
        let recipe = WorldRecipe::batch(BatchConfig {
            visits,
            ..BatchConfig::default()
        });
        run_sharded_world(&build, &Audience::academic(), &recipe, shards, seed)
    }

    #[test]
    fn sharded_run_produces_merged_measurements() {
        let run = run_batch(1_000, 2, 0x5A4D);
        let report = run.outcome.report;
        assert_eq!(report.visits, 1_000);
        assert_eq!(run.per_shard.len(), 2);
        assert_eq!(run.per_shard[0].visits, 500);
        assert_eq!(run.per_shard[1].visits, 500);
        assert!(report.results_delivered > 100, "{report:?}");
        assert!(!run.collection.is_empty());
        // Every record geolocates through the merged striped database.
        let located = run
            .collection
            .records
            .iter()
            .filter(|r| run.geo.lookup(r.client_ip).is_some())
            .count();
        assert_eq!(located, run.collection.len());
    }

    #[test]
    fn sharded_run_is_reproducible() {
        let go = || run_batch(300, 3, 77);
        let (a, b) = (go(), go());
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.collection, b.collection);
        assert_eq!(a.per_shard, b.per_shard);
    }

    #[test]
    fn shards_see_different_streams() {
        let run = run_batch(400, 2, 3);
        assert_ne!(
            run.per_shard[0], run.per_shard[1],
            "shards replayed the same stream"
        );
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_shards_rejected() {
        let _ = run_batch(10, 0, 1);
    }
}
