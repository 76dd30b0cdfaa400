//! # population — client populations and deployment simulation
//!
//! Encore's vantage points are "the set of users who happen to visit a
//! Web site that has installed an Encore script" (paper §6.3). This crate
//! models that population and drives whole deployments:
//!
//! * [`audience`] — who visits an origin site: country mix, browser mix,
//!   access-network mix, dwell times, crawler fraction. Two calibrated
//!   audiences are provided: the §6.2 academic-homepage audience and a
//!   world audience for the §7 seven-month run.
//! * [`world`] — the discrete-event world engine: client arrivals,
//!   scheduled policy changes ([`censor::timeline::PolicyTimeline`]),
//!   world mutations, coordination re-prioritisation, session
//!   maintenance, and collection rollups are all events on one
//!   [`sim_core::queue::EventQueue`]. Every driver below is a thin
//!   wrapper over it, and a whole run — arrivals plus control plane —
//!   can be described as a `Send + Sync` [`world::WorldRecipe`] that
//!   drives serial ([`world::WorldEngine::from_recipe`]) and sharded
//!   ([`shard::run_sharded_world`]) execution alike.
//! * [`driver`] — Poisson visit arrivals over a time span; each visit
//!   instantiates a browser client and runs the full Figure 2 flow
//!   through [`encore::EncoreSystem`].
//! * [`batch`] — the throughput-oriented batched driver: incremental
//!   arrivals, a persistent client pool whose transport sessions stay
//!   warm across visits, and flat-memory aggregate reporting.
//! * [`shard`] — the multi-core engine: a world recipe's control events
//!   broadcast to every shard, its arrivals thinned 1/N, each shard
//!   running one private event-driven world with a split RNG stream.
//!   One function runs a shard and one fold merges the outputs in shard
//!   order through the associative [`analytics::Merge`] path, so the
//!   parallel run is provably equivalent to the serial one.
//! * [`analytics`] — the Google-Analytics-style report of §6.2, the
//!   shared visit-outcome classification every driver tallies with, and
//!   the single merge path ([`analytics::Merge`]) every sharded output
//!   folds through.
//! * [`transport`] — where the shards run, chosen by
//!   [`transport::TransportKind`]: in-process threads, or worker
//!   *processes* speaking the length-prefixed [`sim_core::frame`]
//!   protocol over OS pipes. Both feed the same shard fold.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod analytics;
pub mod audience;
pub mod batch;
pub mod driver;
pub mod shard;
pub mod transport;
pub mod world;

pub use analytics::{
    merge_in_order, tally_outcome, Analytics, Merge, Rollup, RollupFold, RollupSeries,
    StreamSummary, VisitTally, WindowedRollups,
};
pub use audience::Audience;
pub use batch::{run_visit_batch, BatchConfig, BatchReport};
pub use driver::{run_deployment, DeploymentConfig, VisitRecord};
pub use shard::{run_sharded_world, shard_recipe, ShardContext, ShardedWorldRun};
pub use transport::{
    run_on_threads, sibling_worker, worker_main, ProcessTransport, TransportError, TransportKind,
    TransportStats, WorldSpec,
};
pub use world::{RunMode, StreamingSpec, WorldEngine, WorldEvent, WorldOutcome, WorldRecipe};
