//! The four workloads. Each builds its inputs (`setup`, timed as
//! `setup_s`), then runs one measured operation from the seed: from the
//! first engine or transport call to the checked, serialized artifact
//! (`run`, timed as `wall_s`), wrapping each layer call in a span. Why
//! each workload exists, and what it should show, is in this directory's
//! README.

use crate::host;
use crate::runner::Bench;
use crate::trace::Tracer;
use bench::corpus_fixture::{self, WorldReport, DAYS, RATE};
use bench::specs::BenchWorldSpec;
use bench::{congested_fixture, shard_fixture, world_fixture};
use encore::system::EncoreSystem;
use encore::{GeoDb, StoredMeasurement};
use netsim::geo::World;
use netsim::network::Network;
use population::transport::{ProcessTransport, TransportKind, TransportStats, WorldSpec};
use population::{
    run_visit_batch, Audience, BatchConfig, BatchReport, ShardContext, ShardedWorldRun,
    StreamingSpec, WorldEngine, WorldRecipe,
};
use sim_core::{SimDuration, SimRng};

/// Name the process transport resolves the shard worker by. The worker
/// is this executable itself, found through `ENCORE_WORKER_BIN`.
pub const WORKER_NAME: &str = "perfbench";

/// The serial golden artifact at `bench::DEFAULT_SEED`.
const WORLD_REPORT_GOLDEN: &str = include_str!("../../tests/golden/world_report.json");

/// Visits in one `batch_mixed` operation.
pub const BATCH_VISITS: u64 = 500_000;
/// Simulated days of one `congested_streaming` operation.
pub const CONGESTED_DAYS: u64 = 30;
/// Arrival rate of `congested_streaming` (visits/day/origin weight).
pub const CONGESTED_RATE: f64 = 1_500.0;

/// The workloads, by name.
pub const NAMES: [&str; 4] = [
    "corpus_serial",
    "corpus_process2",
    "batch_mixed",
    "congested_streaming",
];

/// The workload named `name`, at its stated size.
pub fn by_name(name: &str) -> Option<Box<dyn Bench>> {
    Some(match name {
        "corpus_serial" => Box::new(CorpusSerial),
        "corpus_process2" => Box::new(CorpusProcess),
        "batch_mixed" => Box::new(BatchMixed {
            visits: BATCH_VISITS,
        }),
        "congested_streaming" => Box::new(CongestedStreaming {
            days: CONGESTED_DAYS,
            rate: CONGESTED_RATE,
        }),
        _ => return None,
    })
}

/// What one measured operation produced.
#[derive(Debug)]
pub struct Done {
    /// The checked, serialized artifact.
    pub artifact: String,
    /// The run's aggregate counters, simulated visits among them.
    pub report: BatchReport,
    /// The stored records the run judged (empty in streaming mode),
    /// handed back so they are dropped outside the timed region and so
    /// the traced run can make its extra detector pass over them.
    pub records: Vec<StoredMeasurement>,
    /// GeoIP database the records are judged against.
    pub geo: GeoDb,
    /// Bytes of analytics state the collection server kept resident.
    pub resident_analytics_bytes: usize,
    /// Submissions the streaming ingest dropped (0 in exact mode).
    pub ingest_drops: u64,
    /// Timeline policy changes that mutated the world.
    pub policy_changes_applied: usize,
    /// Censor control signals applied.
    pub control_signals_applied: usize,
    /// Process-transport accounting (absent on the other backends).
    pub transport: Option<TransportLayer>,
}

/// What a process-transport call cost, beyond its wall time.
#[derive(Debug, Clone, Copy)]
pub struct TransportLayer {
    /// Streaming counters from the transport itself.
    pub stats: TransportStats,
    /// Coordinator CPU seconds during the call.
    pub busy_s: Option<f64>,
    /// CPU seconds of the worker processes.
    pub worker_cpu_s: Option<f64>,
    /// Peak RSS of the largest worker this process has waited for.
    pub worker_peak_rss_mib: Option<f64>,
}

/// One benchmark workload.
pub trait Workload {
    /// Inputs built by [`Workload::setup`].
    type Prepared;
    /// Build the scenario, corpus, deployment and recipe. They do not
    /// depend on the seed; the seed enters through the run's RNG.
    fn setup(&self) -> Self::Prepared;
    /// One measured operation, checked against the workload's truth.
    fn run(&self, prepared: Self::Prepared, seed: u64, tr: &mut Tracer) -> Result<Done, String>;
    /// Checks that need a reference computed outside the timed region.
    fn check_reference(&self, _seed: u64, _artifact: &str) -> Result<(), String> {
        Ok(())
    }
    /// In a traced run, the operation's computation again, after its
    /// spans close, split into finer layer calls than the timed path
    /// makes. It returns its artifact, which must equal the operation's.
    fn breakdown(&self, _seed: u64, _tr: &mut Tracer) -> Option<Result<String, String>> {
        None
    }
}

fn serialize<T: serde::Serialize>(tr: &mut Tracer, value: &T) -> Result<String, String> {
    tr.span("bench.serialize", |_| serde_json::to_string_pretty(value))
        .map_err(|e| format!("artifact does not serialize: {e:?}"))
}

fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// The corpus world's inputs: its spec, audience and recipe. The
/// transport builds each shard's world from the spec itself.
pub struct CorpusInputs {
    spec: BenchWorldSpec,
    audience: Audience,
    recipe: WorldRecipe,
}

fn corpus_spec() -> BenchWorldSpec {
    BenchWorldSpec::Corpus {
        days: DAYS,
        rate: RATE,
    }
}

fn corpus_setup() -> CorpusInputs {
    let spec = corpus_spec();
    CorpusInputs {
        audience: spec.audience(),
        recipe: spec.recipe(),
        spec,
    }
}

/// The fixture's ground truth, which must hold at every seed: the
/// standing CN/IR/PK regimes flagged from day 0 and never lifted, the
/// Turkish block at days 30–60, the Russian escalation at days 20–75,
/// both control-plane stories applied, and no detection at all on the
/// benignly disrupted rank-1 site.
fn check_corpus_truth(report: &WorldReport) -> Result<(), String> {
    let v = &report.verdicts;
    let pair = |cc: &str, domain: &str| {
        v.pairs
            .iter()
            .find(|p| p.country == cc && p.domain == domain)
            .ok_or_else(|| format!("tracked pair {cc}:{domain} missing"))
    };
    for (cc, domain) in [
        ("CN", "twitter.com"),
        ("IR", "twitter.com"),
        ("CN", "youtube.com"),
        ("PK", "youtube.com"),
    ] {
        let p = pair(cc, domain)?;
        ensure(p.onset_day == Some(0) && p.lift_day.is_none(), || {
            format!(
                "{cc}:{domain} onset {:?} lift {:?}, want 0 and none",
                p.onset_day, p.lift_day
            )
        })?;
    }
    let corpus = corpus_fixture::corpus();
    let stories = [
        (
            "TR",
            "twitter.com".to_string(),
            corpus_fixture::TR_BLOCK_ONSET,
            corpus_fixture::TR_BLOCK_LIFT,
        ),
        (
            "RU",
            corpus_fixture::adaptive_target(&corpus),
            corpus_fixture::RU_RST_DAY,
            corpus_fixture::RU_STAND_DOWN_DAY,
        ),
    ];
    for (cc, domain, onset, lift) in stories {
        let p = pair(cc, &domain)?;
        ensure(
            p.onset_day == Some(onset) && p.lift_day == Some(lift),
            || {
                format!(
                    "{cc}:{domain} onset {:?} lift {:?}, want {onset} and {lift}",
                    p.onset_day, p.lift_day
                )
            },
        )?;
    }
    ensure(v.disrupted_detections == 0, || {
        format!(
            "{} detections on the disrupted site {}",
            v.disrupted_detections, v.disrupted_domain
        )
    })?;
    ensure(
        report.policy_changes_applied == 2 && report.control_signals_applied == 4,
        || {
            format!(
                "control plane applied {} policy changes and {} signals, want 2 and 4",
                report.policy_changes_applied, report.control_signals_applied
            )
        },
    )
}

fn golden_report() -> WorldReport {
    serde_json::from_str(WORLD_REPORT_GOLDEN).expect("the committed golden parses")
}

/// Judge and serialize a finished corpus run.
fn corpus_artifact(
    run: ShardedWorldRun,
    shards: usize,
    seed: u64,
    tr: &mut Tracer,
    transport: Option<TransportLayer>,
) -> Result<Done, String> {
    let (report, artifact) = judge_corpus(&run, shards, seed, tr)?;
    let outcome = run.outcome;
    Ok(Done {
        artifact,
        report: outcome.report,
        resident_analytics_bytes: run.collection.records.len()
            * std::mem::size_of::<StoredMeasurement>(),
        records: run.collection.records,
        geo: run.geo,
        ingest_drops: 0,
        policy_changes_applied: report.policy_changes_applied,
        control_signals_applied: report.control_signals_applied,
        transport,
    })
}

/// Judge a corpus run, check its ground truth, and serialize it.
fn judge_corpus(
    run: &ShardedWorldRun,
    shards: usize,
    seed: u64,
    tr: &mut Tracer,
) -> Result<(WorldReport, String), String> {
    let report = tr.span("bench.judge", |_| {
        corpus_fixture::report(run, shards, DAYS, seed)
    });
    check_corpus_truth(&report)?;
    let artifact = serialize(tr, &report)?;
    Ok((report, artifact))
}

/// `corpus_serial`: the golden 90-day corpus world on one shard of the
/// thread transport. A traced run also makes the same computation layer
/// by layer, after the operation: world build, engine, snapshot and
/// GeoIP, judge, serialize.
pub struct CorpusSerial;

impl Workload for CorpusSerial {
    type Prepared = CorpusInputs;

    fn setup(&self) -> CorpusInputs {
        corpus_setup()
    }

    fn run(&self, inputs: CorpusInputs, seed: u64, tr: &mut Tracer) -> Result<Done, String> {
        let run = tr
            .span("population.transport", |_| {
                TransportKind::Threads.run(WORKER_NAME, &inputs.spec, 1, seed)
            })
            .map_err(|e| format!("thread transport failed: {e}"))?;
        let done = corpus_artifact(run, 1, seed, tr, None)?;
        if seed == bench::DEFAULT_SEED {
            ensure(done.artifact == WORLD_REPORT_GOLDEN, || {
                "artifact differs from tests/golden/world_report.json".to_string()
            })?;
        }
        Ok(done)
    }

    /// The operation's computation without the transport: the shard
    /// world, `WorldEngine::from_recipe(..).run()`, the snapshot and
    /// GeoIP build, the judge and serialization, each in its own span.
    fn breakdown(&self, seed: u64, tr: &mut Tracer) -> Option<Result<String, String>> {
        let CorpusInputs {
            spec,
            audience,
            recipe,
        } = corpus_setup();
        let artifact = tr.span("bench.breakdown", |tr| {
            let (mut net, mut sys) = tr.span("bench.world_build", |_| {
                spec.build(ShardContext {
                    index: 0,
                    shards: 1,
                })
            });
            let mut rng = SimRng::new(seed);
            let outcome = tr.span("population.engine", |_| {
                WorldEngine::from_recipe(&mut net, &mut sys, &audience, &recipe, &mut rng).run()
            });
            let (collection, geo) = tr.span("encore.snapshot", |_| {
                (
                    sys.collection.snapshot(),
                    GeoDb::from_allocator(&net.allocator),
                )
            });
            let run = ShardedWorldRun {
                per_shard: vec![outcome.report],
                outcome,
                collection,
                geo,
            };
            judge_corpus(&run, 1, seed, tr).map(|(_, artifact)| artifact)
        });
        Some(artifact)
    }
}

/// Worker processes of `corpus_process2`.
pub const PROCESS_SHARDS: usize = 2;

/// `corpus_process2`: the same world on two shards over the process
/// transport, with this executable as the worker.
pub struct CorpusProcess;

impl Workload for CorpusProcess {
    type Prepared = CorpusInputs;

    fn setup(&self) -> CorpusInputs {
        corpus_setup()
    }

    fn run(&self, inputs: CorpusInputs, seed: u64, tr: &mut Tracer) -> Result<Done, String> {
        let transport = ProcessTransport::for_worker(WORKER_NAME)
            .map_err(|e| format!("no shard worker: {e}"))?;
        let (self_before, children_before) = (host::self_usage(), host::children_usage());
        let (run, stats) = tr
            .span("population.transport", |_| {
                transport.run_with_stats(&inputs.spec, PROCESS_SHARDS, seed)
            })
            .map_err(|e| format!("process transport failed: {e}"))?;
        let (self_after, children_after) = (host::self_usage(), host::children_usage());
        let layer = TransportLayer {
            stats,
            busy_s: self_before.zip(self_after).map(|(a, b)| b.cpu_s - a.cpu_s),
            worker_cpu_s: children_before
                .zip(children_after)
                .map(|(a, b)| b.cpu_s - a.cpu_s),
            worker_peak_rss_mib: children_after.map(|u| u.max_rss_mib),
        };
        corpus_artifact(run, PROCESS_SHARDS, seed, tr, Some(layer))
    }

    /// The sharded verdicts must equal the serial ones at the same seed:
    /// the committed golden's at the golden seed, a serial run's
    /// otherwise.
    fn check_reference(&self, seed: u64, artifact: &str) -> Result<(), String> {
        let report: WorldReport = serde_json::from_str(artifact)
            .map_err(|e| format!("artifact does not parse: {e:?}"))?;
        let serial = if seed == bench::DEFAULT_SEED {
            golden_report()
        } else {
            let run = TransportKind::Threads
                .run(WORKER_NAME, &corpus_spec(), 1, seed)
                .map_err(|e| format!("serial reference failed: {e}"))?;
            corpus_fixture::report(&run, 1, DAYS, seed)
        };
        ensure(report.verdicts == serial.verdicts, || {
            format!("{PROCESS_SHARDS}-shard verdicts differ from the serial verdicts")
        })
    }
}

/// `batch_mixed`: warm-session batch visits over the censored §7.2
/// world, one shard.
pub struct BatchMixed {
    /// Visits per operation.
    pub visits: u64,
}

/// `batch_mixed` inputs.
pub struct BatchInputs {
    world: (Network, EncoreSystem),
    audience: Audience,
    config: BatchConfig,
}

impl Workload for BatchMixed {
    type Prepared = BatchInputs;

    fn setup(&self) -> BatchInputs {
        BatchInputs {
            world: shard_fixture::build_censored(ShardContext {
                index: 0,
                shards: 1,
            }),
            audience: Audience::world(&World::builtin()),
            config: shard_fixture::batch(self.visits),
        }
    }

    fn run(&self, inputs: BatchInputs, seed: u64, tr: &mut Tracer) -> Result<Done, String> {
        let BatchInputs {
            world: (mut net, mut sys),
            audience,
            config,
        } = inputs;
        let mut rng = SimRng::new(seed);
        let report = tr.span("population.engine", |_| {
            run_visit_batch(&mut net, &mut sys, &audience, &config, &mut rng)
        });
        let (collection, geo) = tr.span("encore.snapshot", |_| {
            (
                sys.collection.snapshot(),
                GeoDb::from_allocator(&net.allocator),
            )
        });
        ensure(report.visits == self.visits, || {
            format!(
                "{} visits simulated, {} requested",
                report.visits, self.visits
            )
        })?;
        ensure(report.results_delivered <= report.tasks_executed, || {
            format!(
                "{} results delivered from {} tasks executed",
                report.results_delivered, report.tasks_executed
            )
        })?;
        let artifact = serialize(tr, &report)?;
        Ok(Done {
            artifact,
            report,
            resident_analytics_bytes: collection.records.len()
                * std::mem::size_of::<StoredMeasurement>(),
            records: collection.records,
            geo,
            ingest_drops: 0,
            policy_changes_applied: 0,
            control_signals_applied: 0,
            transport: None,
        })
    }
}

/// `congested_streaming`: the routed brownout-plus-block world with
/// streaming analytics folding one-day windows at ingest.
pub struct CongestedStreaming {
    /// Simulated days.
    pub days: u64,
    /// Visits per day per origin weight.
    pub rate: f64,
}

/// `congested_streaming` inputs.
pub struct CongestedInputs {
    world: (Network, EncoreSystem),
    audience: Audience,
    recipe: WorldRecipe,
}

impl Workload for CongestedStreaming {
    type Prepared = CongestedInputs;

    fn setup(&self) -> CongestedInputs {
        CongestedInputs {
            world: congested_fixture::build(ShardContext {
                index: 0,
                shards: 1,
            }),
            audience: Audience::world(&World::builtin()),
            recipe: congested_fixture::recipe(self.days, self.rate)
                .with_streaming(StreamingSpec::with_window(SimDuration::from_days(1))),
        }
    }

    fn run(&self, inputs: CongestedInputs, seed: u64, tr: &mut Tracer) -> Result<Done, String> {
        let CongestedInputs {
            world: (mut net, mut sys),
            audience,
            recipe,
        } = inputs;
        let mut rng = SimRng::new(seed);
        let outcome = tr.span("population.engine", |_| {
            WorldEngine::from_recipe(&mut net, &mut sys, &audience, &recipe, &mut rng).run()
        });
        let (collection, geo) = tr.span("encore.snapshot", |_| {
            (
                sys.collection.snapshot(),
                GeoDb::from_allocator(&net.allocator),
            )
        });
        let stats = collection
            .streaming
            .as_ref()
            .ok_or("streaming run produced no streaming analytics")?;
        let judgment = tr.span("bench.judge", |_| {
            world_fixture::judge_timeline_streamed(
                stats,
                congested_fixture::censor_country(),
                congested_fixture::TARGET,
            )
        });
        let (onset, lift) = (
            congested_fixture::BLOCK_ONSET,
            congested_fixture::BLOCK_LIFT,
        );
        ensure(
            judgment.onset_day == Some(onset) && judgment.lift_day == Some(lift),
            || {
                format!(
                    "onset {:?} lift {:?}, want {onset} and {lift}",
                    judgment.onset_day, judgment.lift_day
                )
            },
        )?;
        let brownout_only = congested_fixture::BROWNOUT_START..onset;
        let flagged_early: Vec<u64> = judgment
            .days
            .iter()
            .filter(|&&(day, _, flagged)| flagged && brownout_only.contains(&day))
            .map(|&(day, _, _)| day)
            .collect();
        ensure(flagged_early.is_empty(), || {
            format!("brownout-only days {flagged_early:?} flagged as censorship")
        })?;
        let artifact = serialize(tr, &judgment)?;
        Ok(Done {
            artifact,
            report: outcome.report,
            resident_analytics_bytes: stats.resident_bytes(),
            ingest_drops: stats.drops.total(),
            records: collection.records,
            geo,
            policy_changes_applied: outcome.policy_changes_applied,
            control_signals_applied: outcome.control_signals_applied,
            transport: None,
        })
    }
}
