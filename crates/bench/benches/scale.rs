//! Sharded-engine throughput: serial batch driver vs the multi-core
//! shard engine at 2 and 8 shards.
//!
//! Each iteration runs a full censored-world deployment (three social
//! targets, the 2014 national censors, world audience) end to end, so
//! the numbers track the real production path: visit arrival → session
//! fetches → censor pipeline → collection. On multi-core hardware the
//! 8-shard case should approach the hardware's parallelism; on a single
//! core it documents the (small) thread orchestration overhead.

use bench::shard_fixture::{batch as fixture_batch, build_censored as build};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use netsim::geo::World;
use population::shard::ShardContext;
use population::{run_sharded_world, run_visit_batch, Audience, BatchConfig, WorldRecipe};
use sim_core::SimRng;

const VISITS: u64 = 20_000;

fn batch() -> BatchConfig {
    fixture_batch(VISITS)
}

fn bench_scale(c: &mut Criterion) {
    let audience = Audience::world(&World::builtin());
    let mut group = c.benchmark_group("scale");
    group.sample_size(10);

    group.bench_function("serial_20k_visits", |b| {
        b.iter(|| {
            let (mut net, mut sys) = build(ShardContext {
                index: 0,
                shards: 1,
            });
            let mut rng = SimRng::new(0x5CA1E);
            let report = run_visit_batch(&mut net, &mut sys, &audience, &batch(), &mut rng);
            assert_eq!(report.visits, VISITS);
            black_box(report)
        })
    });

    let recipe = WorldRecipe::batch(batch());
    for (shards, id) in [
        (2usize, "sharded_2x_20k_visits"),
        (8, "sharded_8x_20k_visits"),
    ] {
        group.bench_function(id, |b| {
            b.iter(|| {
                let run = run_sharded_world(&build, &audience, &recipe, shards, 0x5CA1E);
                assert_eq!(run.outcome.report.visits, VISITS);
                black_box(run.outcome.report)
            })
        });
    }

    group.finish();
}

criterion_group!(benches, bench_scale);
criterion_main!(benches);
