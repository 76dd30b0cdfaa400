//! Shared experiment-harness plumbing: world construction, result
//! tables, and JSON output.
//!
//! Every experiment binary in `src/bin/` regenerates one table or figure
//! from the paper (see DESIGN.md's per-experiment index). Binaries print
//! a human-readable table to stdout *and* write the same data as JSON
//! under `results/`, so EXPERIMENTS.md can be regenerated and diffed.

pub mod fixtures;
pub mod specs;

use browser::{BrowserClient, Engine};
use censor::registry::SAFE_TARGETS;
use encore::pipeline::{GenerationConfig, PatternExpander, TargetFetcher, TaskGenerator};
use encore::tasks::MeasurementTask;
use netsim::geo::{country, IspClass, World};
use netsim::network::Network;
use serde::Serialize;
use sim_core::{SimRng, SimTime};
use websim::generator::{social_site, SyntheticWeb, WebConfig};
use websim::har::Har;
use websim::site::SiteHandler;
use websim::{SearchIndex, UrlPattern};

/// Default root seed for all experiments (override with `ENCORE_SEED`
/// or `--seed`; see [`fixtures::RunArgs`], the single CLI/env parser
/// every experiment binary goes through).
pub const DEFAULT_SEED: u64 = 0x0000_E7C0_2015;

/// A fully built paper-world: network + corpus + social sites + index.
pub struct PaperWorld {
    /// The network (with the corpus and social sites installed; censors
    /// and testbed are installed by the experiments that need them).
    pub net: Network,
    /// The synthetic content corpus (the Herdict-style 178 domains).
    pub web: SyntheticWeb,
    /// Search index over the corpus plus the social sites.
    pub index: SearchIndex,
    /// Root RNG (forked per subsystem).
    pub rng: SimRng,
}

impl PaperWorld {
    /// Build the world used by the feasibility experiments: 170-country
    /// world table, the 178-domain corpus, and the three §7.2 social
    /// sites.
    pub fn build(web_config: &WebConfig, seed: u64) -> PaperWorld {
        let mut rng = SimRng::new(seed);
        let world = World::with_long_tail(170);
        let mut net = Network::new(world);

        let web = SyntheticWeb::generate(web_config, &mut rng);
        web.install(&mut net, &mut rng);
        let mut index = SearchIndex::build(&web);

        // The high-collateral social sites.
        let mut social_rng = rng.fork("social-sites");
        for domain in SAFE_TARGETS {
            let site = std::sync::Arc::new(social_site(domain, &mut social_rng));
            net.add_server(
                domain,
                country("US"),
                Box::new(SiteHandler::new(site.clone())),
            );
            index.add_domain(domain, site.pages_by_popularity());
        }

        PaperWorld {
            net,
            web,
            index,
            rng,
        }
    }

    /// Run the full Figure 3 pipeline over the corpus: expand every
    /// domain pattern, fetch HARs from an unfiltered US vantage, return
    /// the HARs (the §6.1 corpus: "6,548 URLs from the 178 URL
    /// patterns").
    pub fn fetch_corpus_hars(&mut self) -> Vec<Har> {
        let patterns: Vec<UrlPattern> = self
            .web
            .domains()
            .into_iter()
            .map(UrlPattern::Domain)
            .collect();
        let expander = PatternExpander::new(&self.index);
        let urls = expander.expand_all(&patterns);
        let fetcher_browser = BrowserClient::new(
            &mut self.net,
            country("US"),
            IspClass::Academic,
            Engine::Chrome,
            &self.rng,
        );
        let mut fetcher = TargetFetcher::new(fetcher_browser);
        fetcher.fetch_all(&mut self.net, &urls, SimTime::ZERO)
    }

    /// Generate the task pool from HARs with the given config.
    pub fn generate_tasks(&self, hars: &[Har], config: GenerationConfig) -> Vec<MeasurementTask> {
        let mut generator = TaskGenerator::new(config);
        // The "manual verification" stand-in: a careful operator rejects
        // pages with known side effects (ground truth consulted the way a
        // human reviewer would inspect the page).
        let web = &self.web;
        generator.generate_all(hars, |url| {
            let Some(host) = netsim::http::host_of(url) else {
                return false;
            };
            let path = netsim::http::path_of(url);
            match web.site(&host) {
                Some(site) => site.page(&path).is_none_or(|p| !p.side_effects),
                None => false, // unknown page: a reviewer would reject it
            }
        })
    }
}

/// The shared censored-world fixture for the sharded-engine scale runs
/// and the shard-equivalence determinism harness.
///
/// One definition serves the `scale` binary, the `scale` criterion
/// bench, and `tests/shard_equivalence.rs`, so the scenario CI gates on
/// is provably the scenario the harness proves equivalent — three
/// hand-synchronised copies would drift.
pub mod shard_fixture {
    use censor::registry::{install_world_censors, SAFE_TARGETS};
    use encore::coordination::SchedulingStrategy;
    use encore::delivery::OriginSite;
    use encore::system::EncoreSystem;
    use netsim::geo::country;
    use netsim::http::{ContentType, HttpResponse};
    use netsim::network::Network;
    use netsim::scenario::{NetworkScenario, WorldSpec};
    use population::shard::ShardContext;
    use population::BatchConfig;
    use sim_core::SimDuration;

    /// The §7.2 world: the three social-site targets over ideal paths.
    pub fn scenario() -> NetworkScenario {
        let mut spec = NetworkScenario::new(WorldSpec::Builtin).with_ideal_paths();
        for d in SAFE_TARGETS {
            spec = spec.with_server(d, country("US"), HttpResponse::ok(ContentType::Image, 500));
        }
        spec
    }

    /// Shard builder with the 2014 national censors installed.
    pub fn build_censored(ctx: ShardContext) -> (Network, EncoreSystem) {
        let mut net = scenario().build_shard(ctx.index, ctx.shards);
        install_world_censors(&mut net);
        deploy(net)
    }

    /// Shard builder for the uncensored control world.
    pub fn build_uncensored(ctx: ShardContext) -> (Network, EncoreSystem) {
        let net = scenario().build_shard(ctx.index, ctx.shards);
        deploy(net)
    }

    /// Deploy Encore over the fixture world: one favicon task per safe
    /// target, a single academic origin.
    pub fn deploy(mut net: Network) -> (Network, EncoreSystem) {
        let origins = vec![OriginSite::academic("origin.example").with_popularity(3.0)];
        let sys = crate::fixtures::deploy_us(
            &mut net,
            crate::fixtures::favicon_tasks(&SAFE_TARGETS),
            SchedulingStrategy::RoundRobin,
            origins,
        );
        (net, sys)
    }

    /// The fixture batch: a busy aggregate arrival rate.
    pub fn batch(visits: u64) -> BatchConfig {
        BatchConfig {
            visits,
            mean_gap: SimDuration::from_millis(1_200),
            ..BatchConfig::default()
        }
    }

    /// Sorted, deduplicated `domain:country` verdict keys from the §7.2
    /// detector over a merged record set — the single definition of
    /// "verdict" that both the CI gate and the equivalence harness
    /// compare.
    pub fn verdict_keys(records: &[encore::StoredMeasurement], geo: &encore::GeoDb) -> Vec<String> {
        let mut keys: Vec<String> = encore::FilteringDetector::default()
            .detect(records, geo)
            .into_iter()
            .map(|d| format!("{}:{}", d.domain, d.country))
            .collect();
        keys.sort();
        keys.dedup();
        keys
    }
}

/// The shared longitudinal-world fixture: the Turkey-2014-style Twitter
/// block as one [`population::WorldRecipe`], runnable serially
/// ([`population::WorldEngine::from_recipe`]) or across N cores
/// ([`population::run_sharded_world`]).
///
/// One definition serves the `timeline` and `world_scale` binaries and
/// `tests/world_shard_equivalence.rs`, so the scenario CI gates on is
/// provably the scenario the harness proves shard-invariant.
pub mod world_fixture {
    use censor::policy::{CensorPolicy, Mechanism};
    use censor::timeline::{CensorSpec, PolicyChange, PolicyTimeline};
    use encore::coordination::SchedulingStrategy;
    use encore::delivery::OriginSite;
    use encore::inference::WindowReport;
    use encore::system::EncoreSystem;
    use encore::{FilteringDetector, GeoDb, StoredMeasurement};
    use netsim::geo::{country, CountryCode};
    use netsim::http::{ContentType, HttpResponse};
    use netsim::network::Network;
    use netsim::scenario::{NetworkScenario, WorldScenario, WorldSpec};
    use population::shard::ShardContext;
    use population::{DeploymentConfig, WorldRecipe};
    use serde::Serialize;
    use sim_core::{SimDuration, SimTime};
    use std::sync::Arc;

    /// Ground truth: the block switches on at day 10…
    pub const ONSET_DAY: u64 = 10;
    /// …and lifts at day 20.
    pub const LIFT_DAY: u64 = 20;

    /// The blocked domain.
    pub const TARGET: &str = "twitter.com";

    /// The substrate scenario: the built-in world table (default path
    /// model — latency jitter and loss are part of the longitudinal
    /// story) with a favicon-serving twitter.com.
    pub fn scenario() -> NetworkScenario {
        NetworkScenario::new(WorldSpec::Builtin).with_server(
            TARGET,
            country("US"),
            HttpResponse::ok(ContentType::Image, 500),
        )
    }

    /// Deploy Encore over one shard of the fixture world: two equally
    /// popular academic origins, one favicon task on the target.
    pub fn deploy(mut net: Network) -> (Network, EncoreSystem) {
        let origins = vec![
            OriginSite::academic("origin-a.example").with_popularity(5.0),
            OriginSite::academic("origin-b.example").with_popularity(5.0),
        ];
        let sys = crate::fixtures::deploy_us(
            &mut net,
            crate::fixtures::favicon_tasks(&[TARGET]),
            SchedulingStrategy::RoundRobin,
            origins,
        );
        (net, sys)
    }

    /// Shard builder for the plain fixture world.
    pub fn build(ctx: ShardContext) -> (Network, EncoreSystem) {
        deploy(scenario().build_shard(ctx.index, ctx.shards))
    }

    /// Shard builder for the fixture world with a **standing** Chinese
    /// censor pre-installed through the scenario's middlebox-factory
    /// hook ([`netsim::scenario::WorldScenario`]) — censorship that is
    /// already in force when the run starts, alongside the scheduled
    /// Turkish block. Exercises the cross-layer path `CensorSpec as
    /// MiddleboxFactory` on every shard thread.
    pub fn build_with_standing_censor(ctx: ShardContext) -> (Network, EncoreSystem) {
        let spec = WorldScenario::new(scenario()).with_middlebox(Arc::new(standing_censor()));
        deploy(spec.build_shard(ctx.index, ctx.shards))
    }

    /// The standing censor: China blocks the target for the whole run.
    pub fn standing_censor() -> CensorSpec {
        CensorSpec::new(
            country("CN"),
            CensorPolicy::named("cn-standing-block").block_domain(TARGET, Mechanism::DnsNxDomain),
        )
    }

    /// The March-2014-style block as a policy timeline: install at day
    /// [`ONSET_DAY`], lift at day [`LIFT_DAY`].
    pub fn turkey_timeline() -> PolicyTimeline {
        PolicyTimeline::new()
            .at(
                day(ONSET_DAY),
                PolicyChange::Install(CensorSpec::new(
                    country("TR"),
                    CensorPolicy::named("tr-election-block")
                        .block_domain(TARGET, Mechanism::DnsNxDomain),
                )),
            )
            .at(
                day(LIFT_DAY),
                PolicyChange::Lift {
                    name: "tr-election-block".into(),
                },
            )
    }

    /// The full longitudinal recipe: `days` of Poisson arrivals at
    /// `visits_per_day_per_weight`, the Turkey timeline, daily rollups,
    /// hourly session maintenance.
    pub fn recipe(days: u64, visits_per_day_per_weight: f64) -> WorldRecipe {
        WorldRecipe::deployment(DeploymentConfig {
            duration: SimDuration::from_days(days),
            visits_per_day_per_weight,
            ..DeploymentConfig::default()
        })
        .with_timeline(turkey_timeline())
        .with_rollups(SimDuration::from_days(1))
        .with_maintenance(SimDuration::from_secs(3_600))
    }

    /// Convert a day number to simulated time.
    pub fn day(d: u64) -> SimTime {
        SimTime::from_secs(d * 86_400)
    }

    /// The §7.2 windowed detector's verdict on one (country, domain)
    /// pair over a run's collected records: the per-day flag series and
    /// the localised onset/lift days. The single definition both the
    /// timeline binary and the shard-equivalence harness compare.
    #[derive(Debug, Clone, PartialEq, Eq, Serialize)]
    pub struct TimelineJudgment {
        /// `(day, result measurements, flagged)` per detector window.
        pub days: Vec<(u64, usize, bool)>,
        /// First window the pair was flagged (block onset).
        pub onset_day: Option<u64>,
        /// First window after onset the flag cleared (block lifted).
        pub lift_day: Option<u64>,
    }

    /// Flag `cc:domain` in each window report and localise the onset and
    /// lift transitions: the one verdict step of every timeline judge,
    /// whichever path produced the reports. Localisation goes through
    /// [`encore::localise_transitions`] — the same rule the simcheck
    /// fuzz oracle applies to generated worlds — so the goldens and the
    /// generated scenario space can never disagree on what "onset" and
    /// "lift" mean.
    pub fn judge_reports(
        reports: &[WindowReport],
        cc: CountryCode,
        domain: &str,
    ) -> TimelineJudgment {
        let days: Vec<(u64, usize, bool)> = reports
            .iter()
            .map(|r| {
                let flagged = r
                    .detections
                    .iter()
                    .any(|d| d.country == cc && d.domain == domain);
                (r.window, r.measurements, flagged)
            })
            .collect();
        let (onset, lift) = encore::localise_transitions(days.iter().map(|&(w, _, f)| (w, f)));
        TimelineJudgment {
            days,
            onset_day: onset,
            lift_day: lift,
        }
    }

    /// Run the windowed detector (1-day windows) over a run's records and
    /// judge `cc:domain` with [`judge_reports`].
    pub fn judge_timeline(
        records: &[StoredMeasurement],
        geo: &GeoDb,
        cc: CountryCode,
        domain: &str,
    ) -> TimelineJudgment {
        let reports =
            FilteringDetector::default().detect_windows(records, geo, SimDuration::from_days(1));
        judge_reports(&reports, cc, domain)
    }

    /// The same verdict as [`judge_timeline`], judged from merged
    /// bounded-memory streaming analytics instead of a record log —
    /// what a `--streaming` run's windows are localised from.
    pub fn judge_timeline_streamed(
        stats: &encore::streaming::StreamingStats,
        cc: CountryCode,
        domain: &str,
    ) -> TimelineJudgment {
        judge_reports(
            &FilteringDetector::default().judge_streamed(stats),
            cc,
            domain,
        )
    }
}

/// The shared adversarial-world fixture: a 30-day world under an
/// **escalating adaptive censor** ([`censor::adaptive::AdaptiveCensor`])
/// driven by scheduled reactions — Iran watches the target from day 0,
/// injects RSTs from day 6, poisons DNS (1-hour lying TTL) from day 12,
/// null-routes from day 18, retaliates against the Encore collection
/// server itself from day 24, and stands down at day 27.
///
/// One definition serves `tests/adaptive_world.rs` (golden snapshot +
/// 1-vs-2-shard verdict check) so the scenario CI gates on is provably
/// the scenario the harness checks.
pub mod adaptive_fixture {
    use censor::adaptive::{AdaptiveSpec, Reaction, ReactionPolicy, Stage};
    use encore::system::EncoreSystem;
    use netsim::geo::{country, CountryCode};
    use netsim::network::Network;
    use netsim::scenario::WorldScenario;
    use population::shard::ShardContext;
    use population::{DeploymentConfig, WorldRecipe};
    use sim_core::{SimDuration, SimTime};
    use std::sync::Arc;

    /// The watched measurement target — the *same* domain the timeline
    /// fixture's deployment measures, re-exported so the censor's watch
    /// list and the measurement tasks can never silently de-correlate.
    pub use crate::world_fixture::TARGET;
    /// The adaptive censor's diagnostic name.
    pub const CENSOR: &str = "ir-adaptive";
    /// The censoring country.
    pub fn censor_country() -> CountryCode {
        country("IR")
    }

    /// Day each rung engages: RST injection, DNS poisoning, IP blocking,
    /// retaliation, stand-down.
    pub const RST_DAY: u64 = 6;
    /// See [`RST_DAY`].
    pub const POISON_DAY: u64 = 12;
    /// See [`RST_DAY`].
    pub const IP_BLOCK_DAY: u64 = 18;
    /// See [`RST_DAY`].
    pub const RETALIATE_DAY: u64 = 24;
    /// See [`RST_DAY`].
    pub const STAND_DOWN_DAY: u64 = 27;

    fn day(d: u64) -> SimTime {
        SimTime::from_secs(d * 86_400)
    }

    /// The standing adaptive censor: Iran watching the target, 1-hour
    /// lying poison TTL, retaliation aimed at the collection server.
    pub fn adaptive_spec() -> AdaptiveSpec {
        AdaptiveSpec::new(CENSOR, censor_country(), vec![TARGET.to_string()])
            .with_poison_ttl(SimDuration::from_secs(3_600))
    }

    /// The escalation schedule as a broadcastable reaction policy.
    pub fn reactions() -> ReactionPolicy {
        ReactionPolicy::new(CENSOR)
            .at(day(RST_DAY), Reaction::SetStage(Stage::RstInjection))
            .at(day(POISON_DAY), Reaction::SetStage(Stage::DnsPoison))
            .at(day(IP_BLOCK_DAY), Reaction::SetStage(Stage::IpBlock))
            .at(day(RETALIATE_DAY), Reaction::SetStage(Stage::Retaliate))
            .at(day(STAND_DOWN_DAY), Reaction::StandDown)
    }

    /// The 30-day longitudinal recipe: Poisson arrivals, the escalation
    /// schedule, daily rollups, hourly maintenance.
    ///
    /// The repeat-visitor rate is kept low for the same reason the
    /// simcheck detector-class generator keeps it low: returning
    /// clients' warm browser caches mask the block (§3.1 cache
    /// interference), and during the *probabilistic* RST rung that can
    /// push a low-n day cell into the binomial test's ambiguous zone,
    /// where the verdict would depend on per-shard arrival draws. At
    /// 0.05 every censored day stays decisively flagged at any shard
    /// count.
    pub fn recipe(days: u64, visits_per_day_per_weight: f64) -> WorldRecipe {
        WorldRecipe::deployment(DeploymentConfig {
            duration: SimDuration::from_days(days),
            visits_per_day_per_weight,
            repeat_visitor_rate: 0.05,
            ..DeploymentConfig::default()
        })
        .with_reaction(reactions())
        .with_rollups(SimDuration::from_days(1))
        .with_maintenance(SimDuration::from_secs(3_600))
    }

    /// Shard builder: the timeline fixture's world plus the standing
    /// adaptive censor installed through the middlebox-factory hook on
    /// every shard thread.
    pub fn build(ctx: ShardContext) -> (Network, EncoreSystem) {
        let spec = WorldScenario::new(crate::world_fixture::scenario())
            .with_middlebox(Arc::new(adaptive_spec()));
        crate::world_fixture::deploy(spec.build_shard(ctx.index, ctx.shards))
    }
}

/// The shared congestion-vs-censorship fixture: a 30-day **routed**
/// world (scale-free AS topology, Turkey's path to the US-hosted target
/// forced across a transit hotspot) where a week-long transit brownout
/// (days [`BROWNOUT_START`](congested_fixture::BROWNOUT_START)..[`BROWNOUT_END`](congested_fixture::BROWNOUT_END)) brackets a real DNS
/// block (days [`BLOCK_ONSET`](congested_fixture::BLOCK_ONSET)..[`BLOCK_LIFT`](congested_fixture::BLOCK_LIFT)). The two brownout-only
/// days before the block are the trap: a detector that reads shed
/// fetches as censorship advances the onset to day 8; the
/// congestion-aware detector must localise onset exactly at
/// [`BLOCK_ONSET`](congested_fixture::BLOCK_ONSET) and never flag days 8–9.
///
/// One definition serves `tests/congested_world.rs` (golden snapshot +
/// 1-vs-2-shard verdict check) and the `topology_scale` bench binary,
/// so the scenario CI gates on is provably the scenario the harness
/// checks.
pub mod congested_fixture {
    use censor::policy::{CensorPolicy, Mechanism};
    use censor::timeline::{CensorSpec, PolicyChange, PolicyTimeline};
    use encore::system::EncoreSystem;
    use netsim::geo::{country, CountryCode};
    use netsim::network::Network;
    use netsim::scenario::NetworkScenario;
    use netsim::TopologySpec;
    use population::shard::ShardContext;
    use population::{DeploymentConfig, WorldRecipe};
    use sim_core::{SimDuration, SimTime};

    /// The measured (and blocked) domain — shared with the timeline
    /// fixture so the scenarios stay comparable.
    pub use crate::world_fixture::TARGET;

    /// Seed of the scale-free AS topology the fixture routes over.
    pub const TOPOLOGY_SEED: u64 = 7;
    /// Day the transit brownout begins (background load jumps to
    /// [`BROWNOUT_LEVEL`] on every hotspot link).
    pub const BROWNOUT_START: u64 = 8;
    /// Day the brownout clears.
    pub const BROWNOUT_END: u64 = 14;
    /// Day the real DNS block lands — two days *into* the brownout.
    pub const BLOCK_ONSET: u64 = 10;
    /// Day the block lifts (with the brownout still fading the same day).
    pub const BLOCK_LIFT: u64 = 14;
    /// Brownout background utilisation: above the 0.7 shed threshold,
    /// below collapse — the congestion-class generator's powered range.
    pub const BROWNOUT_LEVEL: f64 = 0.82;

    /// The censoring country, whose route to the US target crosses the
    /// browned-out hotspot.
    pub fn censor_country() -> CountryCode {
        country("TR")
    }

    /// The substrate scenario: the timeline fixture's world routed over
    /// the seeded AS topology, with the censored country's path to the
    /// target forced across a transit hotspot link.
    pub fn scenario() -> NetworkScenario {
        crate::world_fixture::scenario().with_topology(
            TopologySpec::with_seed(TOPOLOGY_SEED)
                .with_hotspot_between(censor_country(), country("US")),
        )
    }

    /// The day-10 block as a policy timeline (DNS NXDOMAIN, the
    /// March-2014 mechanism).
    pub fn block_timeline() -> PolicyTimeline {
        PolicyTimeline::new()
            .at(
                day(BLOCK_ONSET),
                PolicyChange::Install(CensorSpec::new(
                    censor_country(),
                    CensorPolicy::named("tr-congested-block")
                        .block_domain(TARGET, Mechanism::DnsNxDomain),
                )),
            )
            .at(
                day(BLOCK_LIFT),
                PolicyChange::Lift {
                    name: "tr-congested-block".into(),
                },
            )
    }

    /// The full longitudinal recipe: `days` of Poisson arrivals, the
    /// day-10 block, and the transit brownout as a pair of **shared
    /// world mutations** — data-plane only, so congestion never counts
    /// as a control signal and never recompiles the middlebox pipeline.
    pub fn recipe(days: u64, visits_per_day_per_weight: f64) -> WorldRecipe {
        WorldRecipe::deployment(DeploymentConfig {
            duration: SimDuration::from_days(days),
            visits_per_day_per_weight,
            repeat_visitor_rate: 0.05,
            ..DeploymentConfig::default()
        })
        .with_timeline(block_timeline())
        .mutate_at(day(BROWNOUT_START), |net, _| {
            if let Some(topo) = net.topology_mut() {
                topo.set_hotspot_background(BROWNOUT_LEVEL);
            }
        })
        .mutate_at(day(BROWNOUT_END), |net, _| {
            if let Some(topo) = net.topology_mut() {
                topo.set_hotspot_background(0.0);
            }
        })
        .with_rollups(SimDuration::from_days(1))
        .with_maintenance(SimDuration::from_secs(3_600))
    }

    /// Shard builder for the routed fixture world. `build_shard` scales
    /// hotspot capacity by the shard count, keeping utilisation — and
    /// thus verdicts — invariant in how the offered load is split.
    pub fn build(ctx: ShardContext) -> (Network, EncoreSystem) {
        crate::world_fixture::deploy(scenario().build_shard(ctx.index, ctx.shards))
    }

    /// Convert a day number to simulated time.
    pub fn day(d: u64) -> SimTime {
        SimTime::from_secs(d * 86_400)
    }
}

/// The flagship generative-corpus fixture: a 90-day multi-country "world
/// report" over a seeded [`websim::corpus::Corpus`] — Zipf-popularity
/// sites with scale-free cross-links installed on every shard — under
/// four censor stories at once:
///
/// * **Standing registry regimes** ([`censor::registry`]): China, Iran,
///   and Pakistan filter the social targets for the whole run.
/// * **A scheduled block**: Turkey blocks twitter.com days
///   [`TR_BLOCK_ONSET`](corpus_fixture::TR_BLOCK_ONSET)..[`TR_BLOCK_LIFT`](corpus_fixture::TR_BLOCK_LIFT) (policy timeline).
/// * **An adaptive censor**: Russia watches the corpus' rank-0 domain
///   from day 0, escalates RST → DNS poison → IP block, and stands down
///   (reaction schedule, [`censor::adaptive::AdaptiveCensor`]).
/// * **Benign disruptions** ([`websim::corpus::Disruption`]): the rank-1
///   domain — also measured — suffers an origin outage, a botched cert
///   rotation, and a permanent redesign, each failing *globally*. The
///   detector's cross-region control must keep all of them out of the
///   verdicts.
///
/// The audience is a [`websim::corpus::CountryMix`] demographic over ten
/// countries, pairing each censoring country with enough healthy regions
/// for the cross-region control to work.
///
/// One definition serves the `world_report` binary and
/// `tests/world_report.rs` (golden byte-pin + 2-shard verdict check), so
/// the scenario CI gates on is provably the scenario the harness checks.
pub mod corpus_fixture {
    use browser::Engine;
    use censor::adaptive::{AdaptiveSpec, Reaction, ReactionPolicy, Stage};
    use censor::policy::{CensorPolicy, Mechanism};
    use censor::registry::{install_world_censors, SAFE_TARGETS};
    use censor::timeline::{CensorSpec, PolicyChange, PolicyTimeline};
    use encore::coordination::SchedulingStrategy;
    use encore::delivery::OriginSite;
    use encore::system::EncoreSystem;
    use encore::tasks::TaskOutcome;
    use encore::{FilteringDetector, GeoDb, StoredMeasurement, SubmissionPhase};
    use netsim::geo::{country, IspClass};
    use netsim::http::{ContentType, HttpResponse};
    use netsim::network::Network;
    use netsim::scenario::{NetworkScenario, WorldScenario, WorldSpec};
    use population::shard::ShardContext;
    use population::{Audience, DeploymentConfig, WorldRecipe};
    use serde::Serialize;
    use sim_core::{Empirical, SimDuration, SimRng, SimTime};
    use websim::corpus::{Corpus, CorpusConfig, CountryMix, Disruption, DisruptionKind};
    use websim::generator::WebConfig;

    /// Length of the flagship run.
    pub const DAYS: u64 = 90;
    /// Arrival rate (visits/day/origin-weight). Four round-robin tasks
    /// over origin weight 10 put ~1,000 visits/day on each task — the
    /// per-task power the timeline and adaptive goldens are proven at.
    pub const RATE: f64 = 400.0;
    /// Seed of the corpus itself (content, links, hosting) — independent
    /// of the run seed so re-seeding a run keeps the same web.
    pub const CORPUS_SEED: u64 = 0x0C0_7075;

    /// Turkey blocks twitter.com at this day…
    pub const TR_BLOCK_ONSET: u64 = 30;
    /// …and lifts the block here.
    pub const TR_BLOCK_LIFT: u64 = 60;
    /// Russia's adaptive censor escalates to RST injection…
    pub const RU_RST_DAY: u64 = 20;
    /// …then DNS poisoning (1-hour lying TTL)…
    pub const RU_POISON_DAY: u64 = 35;
    /// …then IP null-routing…
    pub const RU_IP_BLOCK_DAY: u64 = 50;
    /// …and stands down here.
    pub const RU_STAND_DOWN_DAY: u64 = 75;
    /// The rank-1 origin goes dark at this day…
    pub const OUTAGE_START: u64 = 40;
    /// …and is restored here.
    pub const OUTAGE_END: u64 = 42;
    /// A one-day botched cert rotation on the rank-1 origin.
    pub const CERT_ROTATION_DAY: u64 = 55;
    /// The rank-1 site's permanent redesign breaks its favicon task.
    pub const REDESIGN_DAY: u64 = 70;

    /// The Russian adaptive censor's diagnostic name.
    pub const RU_CENSOR: &str = "ru-adaptive";

    /// Corpus knobs: 12 Zipf-ranked sites, scale-free cross-links.
    pub fn corpus_config() -> CorpusConfig {
        CorpusConfig {
            web: WebConfig {
                num_domains: 12,
                median_pages_per_domain: 8.0,
                ..WebConfig::default()
            },
            zipf_exponent: 1.1,
            cross_links_per_site: 2,
        }
    }

    /// The fixture corpus — a pure function of [`CORPUS_SEED`], so every
    /// shard (and every recipe mutation closure) sees identical content.
    pub fn corpus() -> Corpus {
        Corpus::generate(&corpus_config(), &mut SimRng::new(CORPUS_SEED))
            .expect("fixture corpus config is valid")
    }

    /// The adaptive censor's watched domain: the corpus' rank-0 site.
    pub fn adaptive_target(corpus: &Corpus) -> String {
        corpus.domain(0).to_string()
    }

    /// The benignly disrupted (but measured) domain: the rank-1 site.
    pub fn disrupted_domain(corpus: &Corpus) -> String {
        corpus.domain(1).to_string()
    }

    /// The ten-country demographic mix (Zipf 0.6 — flat enough that the
    /// tail countries keep statistical power).
    pub fn demographics() -> CountryMix {
        CountryMix::zipf(
            &["US", "CN", "IN", "BR", "RU", "TR", "PK", "IR", "DE", "ID"],
            0.6,
        )
        .expect("non-empty country list")
    }

    /// The audience built from [`demographics`].
    pub fn audience() -> Audience {
        let mix = demographics();
        Audience {
            countries: Empirical::new(
                mix.weights
                    .iter()
                    .map(|(cc, w)| (country(cc), *w))
                    .collect(),
            ),
            isps: Empirical::new(vec![
                (IspClass::Residential, 0.62),
                (IspClass::Mobile, 0.28),
                (IspClass::Academic, 0.07),
                (IspClass::Datacenter, 0.03),
            ]),
            engines: Engine::market_distribution(),
            bounce_fraction: 0.50,
            long_stay_fraction: 0.30,
            crawler_fraction: 0.04,
        }
    }

    /// The substrate scenario: built-in world, ideal paths, favicon-
    /// serving social targets (the corpus sites are installed per shard
    /// in [`build`], since stateful [`websim::SiteHandler`]s cannot ride
    /// a const-response [`NetworkScenario`]).
    pub fn scenario() -> NetworkScenario {
        let mut spec = NetworkScenario::new(WorldSpec::Builtin).with_ideal_paths();
        for d in SAFE_TARGETS {
            spec = spec.with_server(d, country("US"), HttpResponse::ok(ContentType::Image, 500));
        }
        spec
    }

    /// The standing Russian adaptive censor (a middlebox factory, so it
    /// is rebuilt identically on every shard thread).
    pub fn ru_adaptive_spec(corpus: &Corpus) -> AdaptiveSpec {
        AdaptiveSpec::new(RU_CENSOR, country("RU"), vec![adaptive_target(corpus)])
            .with_poison_ttl(SimDuration::from_secs(3_600))
    }

    /// Russia's escalation schedule as broadcast control events.
    pub fn ru_reactions() -> ReactionPolicy {
        ReactionPolicy::new(RU_CENSOR)
            .at(day(RU_RST_DAY), Reaction::SetStage(Stage::RstInjection))
            .at(day(RU_POISON_DAY), Reaction::SetStage(Stage::DnsPoison))
            .at(day(RU_IP_BLOCK_DAY), Reaction::SetStage(Stage::IpBlock))
            .at(day(RU_STAND_DOWN_DAY), Reaction::StandDown)
    }

    /// Turkey's scheduled twitter.com block.
    pub fn tr_timeline() -> PolicyTimeline {
        PolicyTimeline::new()
            .at(
                day(TR_BLOCK_ONSET),
                PolicyChange::Install(CensorSpec::new(
                    country("TR"),
                    CensorPolicy::named("tr-world-block")
                        .block_domain("twitter.com", Mechanism::DnsNxDomain),
                )),
            )
            .at(
                day(TR_BLOCK_LIFT),
                PolicyChange::Lift {
                    name: "tr-world-block".into(),
                },
            )
    }

    /// The three benign disruptions, all against the rank-1 site.
    pub fn disruptions() -> [Disruption; 3] {
        [
            Disruption {
                day: OUTAGE_START,
                duration_days: OUTAGE_END - OUTAGE_START,
                site: 1,
                kind: DisruptionKind::OriginOutage,
            },
            Disruption {
                day: CERT_ROTATION_DAY,
                duration_days: 1,
                site: 1,
                kind: DisruptionKind::CertRotation,
            },
            Disruption {
                day: REDESIGN_DAY,
                duration_days: 0,
                site: 1,
                kind: DisruptionKind::Redesign,
            },
        ]
    }

    /// Shard builder: substrate scenario, then the corpus installed from
    /// its own fixed seed (identical on every shard), then the standing
    /// RU adaptive censor — built *after* the corpus so its watched
    /// domain resolves to real addresses for the address-matched stages
    /// (RST injection, IP block) — then the 2014 registry regimes, then
    /// deployment.
    pub fn build(ctx: ShardContext) -> (Network, EncoreSystem) {
        let corpus = corpus();
        let mut net = WorldScenario::new(scenario()).build_shard(ctx.index, ctx.shards);
        corpus.install(&mut net, &mut SimRng::new(CORPUS_SEED ^ 1));
        let ru = ru_adaptive_spec(&corpus).build(&net.dns);
        net.add_middlebox(Box::new(ru));
        install_world_censors(&mut net);

        let tasks = crate::fixtures::favicon_tasks(&[
            "twitter.com",
            "youtube.com",
            &adaptive_target(&corpus),
            &disrupted_domain(&corpus),
        ]);
        let origins = vec![
            OriginSite::academic("world-origin-a.example").with_popularity(5.0),
            OriginSite::academic("world-origin-b.example").with_popularity(5.0),
        ];
        let sys =
            crate::fixtures::deploy_us(&mut net, tasks, SchedulingStrategy::RoundRobin, origins);
        (net, sys)
    }

    /// The full 90-day recipe: Poisson arrivals, the Turkish timeline,
    /// the Russian escalation schedule, and the benign disruptions as
    /// shared world mutations capturing the (`Send + Sync`, `Arc`-shared)
    /// corpus — the payoff of the `Rc`→`Arc` fix.
    pub fn recipe(days: u64, visits_per_day_per_weight: f64) -> WorldRecipe {
        let corpus = corpus();
        let mut recipe = WorldRecipe::deployment(DeploymentConfig {
            duration: SimDuration::from_days(days),
            visits_per_day_per_weight,
            repeat_visitor_rate: 0.05,
            ..DeploymentConfig::default()
        })
        .with_timeline(tr_timeline())
        .with_reaction(ru_reactions())
        .with_rollups(SimDuration::from_days(1))
        .with_maintenance(SimDuration::from_secs(3_600));
        for d in disruptions() {
            if d.day >= days {
                continue;
            }
            let c = corpus.clone();
            recipe = recipe.mutate_at(day(d.day), move |net, _| {
                d.apply(&c, net);
            });
            if let Some(end) = d.end_day().filter(|&end| end < days) {
                let c = corpus.clone();
                recipe = recipe.mutate_at(day(end), move |net, _| {
                    d.revert(&c, net);
                });
            }
        }
        recipe
    }

    /// Convert a day number to simulated time.
    pub fn day(d: u64) -> SimTime {
        SimTime::from_secs(d * 86_400)
    }

    /// One tracked `(country, domain)` verdict in the world report.
    #[derive(Debug, Clone, PartialEq, Eq, Serialize, serde::Deserialize)]
    pub struct PairVerdict {
        /// Censoring (or control) country code.
        pub country: String,
        /// Measured domain.
        pub domain: String,
        /// Localised block onset, if any.
        pub onset_day: Option<u64>,
        /// Localised block lift, if any.
        pub lift_day: Option<u64>,
        /// Every flagged detector window (day numbers).
        pub flagged_days: Vec<u64>,
    }

    /// The world-report verdict set over one run's records.
    #[derive(Debug, Clone, PartialEq, Eq, Serialize, serde::Deserialize)]
    pub struct WorldVerdicts {
        /// Tracked censor stories.
        pub pairs: Vec<PairVerdict>,
        /// The benignly disrupted domain.
        pub disrupted_domain: String,
        /// Days where the disrupted domain failed globally (>50% of its
        /// result-phase measurements) — the outage/rotation/redesign
        /// signature.
        pub disrupted_failure_days: Vec<u64>,
        /// Detections against the disrupted domain anywhere in the run.
        /// The cross-region control must keep this at **zero**.
        pub disrupted_detections: usize,
    }

    /// Judge a run: the four censor stories plus the disruption
    /// soundness counts, all through the shared windowed detector and
    /// localisation rule. Windows at or past `days` are dropped before
    /// localisation: a visit arriving just before the horizon can land
    /// its submission in a partial trailing window, and *whether* that
    /// window exists depends on the thinned per-shard arrival sample —
    /// an artifact of the run length, not a verdict, so it must not be
    /// allowed to turn a standing block into a phantom "lift".
    pub fn judge(records: &[StoredMeasurement], geo: &GeoDb, days: u64) -> WorldVerdicts {
        let corpus = corpus();
        let rank0 = adaptive_target(&corpus);
        let rank1 = disrupted_domain(&corpus);
        let tracked = [
            ("CN", "twitter.com"),
            ("IR", "twitter.com"),
            ("TR", "twitter.com"),
            ("CN", "youtube.com"),
            ("PK", "youtube.com"),
            ("RU", rank0.as_str()),
            ("RU", rank1.as_str()),
        ];
        let window = SimDuration::from_days(1);
        let reports = FilteringDetector::default().detect_windows(records, geo, window);
        let reports = &reports[..reports.partition_point(|r| r.window < days)];
        let pairs = tracked
            .iter()
            .map(|&(cc, domain)| {
                let j = crate::world_fixture::judge_reports(reports, country(cc), domain);
                PairVerdict {
                    country: cc.to_string(),
                    domain: domain.to_string(),
                    onset_day: j.onset_day,
                    lift_day: j.lift_day,
                    flagged_days: j.days.iter().filter(|d| d.2).map(|d| d.0).collect(),
                }
            })
            .collect();
        let disrupted_detections = reports
            .iter()
            .flat_map(|r| r.detections.iter())
            .filter(|d| d.domain == rank1)
            .count();

        // Per-day global failure rate on the disrupted domain.
        let host = format!("http://{rank1}/");
        let mut per_day: std::collections::BTreeMap<u64, (usize, usize)> =
            std::collections::BTreeMap::new();
        for rec in records {
            if rec.submission.phase != SubmissionPhase::Result
                || !rec.submission.target_url.starts_with(&host)
            {
                continue;
            }
            let d = rec.received_at.as_micros() / window.as_micros();
            let cell = per_day.entry(d).or_insert((0, 0));
            cell.0 += 1;
            if rec.submission.outcome != Some(TaskOutcome::Success) {
                cell.1 += 1;
            }
        }
        let disrupted_failure_days = per_day
            .iter()
            .filter(|&(&d, &(n, fails))| d < days && n > 0 && fails * 2 > n)
            .map(|(&d, _)| d)
            .collect();

        WorldVerdicts {
            pairs,
            disrupted_domain: rank1,
            disrupted_failure_days,
            disrupted_detections,
        }
    }

    /// The flagship golden artifact. One definition serves the
    /// `world_report` binary (CI byte-diffs `results/world_report.json`
    /// against `tests/golden/world_report.json`) and
    /// `tests/world_report.rs` (which blesses and byte-pins that
    /// golden), so the two gates can never disagree about the shape.
    #[derive(Debug, Clone, PartialEq, Eq, Serialize, serde::Deserialize)]
    pub struct WorldReport {
        /// Shard count of the run that produced this artifact.
        pub shards: usize,
        /// Root seed.
        pub seed: u64,
        /// Simulated days.
        pub days: u64,
        /// Total visits simulated.
        pub visits: u64,
        /// Timeline policy events applied (TR install + lift = 2).
        pub policy_changes_applied: usize,
        /// Adaptive-censor control signals applied (RU's four rungs).
        pub control_signals_applied: usize,
        /// The corpus' domains in rank (= insertion) order.
        pub corpus_domains: Vec<String>,
        /// Verdicts and soundness counts.
        pub verdicts: WorldVerdicts,
    }

    /// Assemble the golden artifact from a finished run.
    pub fn report(
        run: &population::ShardedWorldRun,
        shards: usize,
        days: u64,
        seed: u64,
    ) -> WorldReport {
        let corpus = corpus();
        WorldReport {
            shards,
            seed,
            days,
            visits: run.outcome.report.visits,
            policy_changes_applied: run.outcome.policy_changes_applied,
            control_signals_applied: run.outcome.control_signals_applied,
            corpus_domains: corpus.domains().iter().map(|d| d.to_string()).collect(),
            verdicts: judge(&run.collection.records, &run.geo, days),
        }
    }
}

/// Write an experiment's JSON artifact under `results/`. Binaries should
/// prefer [`fixtures::RunArgs::write_results`], which honours `--out`.
pub fn write_results<T: Serialize>(name: &str, value: &T) {
    write_results_to(std::path::Path::new("results"), name, value);
}

/// Write an experiment's JSON artifact as `<dir>/<name>.json`.
pub fn write_results_to<T: Serialize>(dir: &std::path::Path, name: &str, value: &T) {
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    if let Ok(json) = serde_json::to_string_pretty(value) {
        let _ = std::fs::write(&path, json);
        eprintln!("[written {path:?}]");
    }
}

/// Render a simple aligned table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:<width$}  ", c, width = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Format a CDF series as `(x, F)` rows.
pub fn cdf_rows(series: &[(f64, f64)]) -> Vec<Vec<String>> {
    series
        .iter()
        .map(|(x, f)| vec![format!("{x:.0}"), format!("{f:.3}")])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_world_builds_and_produces_hars() {
        let mut pw = PaperWorld::build(&WebConfig::small(), 7);
        assert_eq!(pw.web.sites.len(), WebConfig::small().num_domains);
        let hars = pw.fetch_corpus_hars();
        assert!(!hars.is_empty());
        let ok = hars.iter().filter(|h| h.page_ok).count();
        assert!(ok * 10 > hars.len() * 9, "most corpus pages load");
    }

    #[test]
    fn task_generation_from_corpus() {
        let mut pw = PaperWorld::build(&WebConfig::small(), 7);
        let hars = pw.fetch_corpus_hars();
        let tasks = pw.generate_tasks(
            &hars,
            GenerationConfig {
                max_image_bytes: 5_000,
                ..GenerationConfig::default()
            },
        );
        assert!(!tasks.is_empty());
    }
}
