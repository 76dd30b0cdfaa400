//! Property tests for the Encore system crate.

use browser::Engine;
use encore::coordination::{ClientProfile, CoordinationServer, SchedulingStrategy};
use encore::delivery::render_task_js;
use encore::targets::EthicsStage;
use encore::tasks::{MeasurementId, MeasurementTask, TaskSpec, IFRAME_CACHE_THRESHOLD};
use proptest::prelude::*;
use sim_core::{SimDuration, SimRng, SimTime};

fn arb_spec() -> impl Strategy<Value = TaskSpec> {
    let url = "http://[a-z]{1,10}\\.(com|org)/[a-z0-9/._-]{0,30}";
    prop_oneof![
        url.prop_map(|u| TaskSpec::Image { url: u }),
        url.prop_map(|u| TaskSpec::Stylesheet { url: u }),
        url.prop_map(|u| TaskSpec::Script { url: u }),
        (url, url).prop_map(|(p, i)| TaskSpec::Iframe {
            page_url: p,
            probe_image_url: i,
            threshold: IFRAME_CACHE_THRESHOLD,
        }),
    ]
}

proptest! {
    /// The Table 2 stages are strictly nested: anything the final stage
    /// permits, earlier stages permit too.
    #[test]
    fn ethics_stages_are_nested(spec in arb_spec()) {
        let task = MeasurementTask {
            id: MeasurementId(0),
            spec,
        };
        if EthicsStage::FaviconsFewSites.permits(&task) {
            prop_assert!(EthicsStage::FaviconsOnly.permits(&task));
        }
        if EthicsStage::FaviconsOnly.permits(&task) {
            prop_assert!(EthicsStage::Unrestricted.permits(&task));
        }
    }

    /// The scheduler never hands a client an incompatible task, under
    /// any strategy, engine, pool or timing.
    #[test]
    fn scheduler_respects_engine_constraints(
        specs in proptest::collection::vec(arb_spec(), 1..12),
        engine_idx in 0usize..4,
        strategy_idx in 0usize..3,
        times in proptest::collection::vec(0u64..100_000, 1..30),
        seed in any::<u64>(),
    ) {
        let tasks: Vec<MeasurementTask> = specs
            .into_iter()
            .enumerate()
            .map(|(i, spec)| MeasurementTask {
                id: MeasurementId(i as u64),
                spec,
            })
            .collect();
        let strategy = [
            SchedulingStrategy::Random,
            SchedulingStrategy::RoundRobin,
            SchedulingStrategy::CoordinatedBursts {
                window: SimDuration::from_secs(60),
            },
        ][strategy_idx];
        let engine = Engine::ALL[engine_idx];
        let mut server = CoordinationServer::new(tasks, strategy);
        let mut rng = SimRng::new(seed);
        let profile = ClientProfile { engine };
        for t in times {
            if let Some(task) = server.next_task(profile, SimTime::from_millis(t), &mut rng) {
                prop_assert!(task.spec.compatible_with(engine));
            }
        }
    }

    /// Assignment IDs are unique across any sequence of requests.
    #[test]
    fn scheduler_ids_unique(
        n in 1usize..100,
        seed in any::<u64>(),
    ) {
        let tasks = vec![MeasurementTask {
            id: MeasurementId(0),
            spec: TaskSpec::Image {
                url: "http://t.com/favicon.ico".into(),
            },
        }];
        let mut server = CoordinationServer::new(tasks, SchedulingStrategy::Random);
        let mut rng = SimRng::new(seed);
        let mut ids = std::collections::BTreeSet::new();
        for _ in 0..n {
            let t = server
                .next_task(ClientProfile { engine: Engine::Chrome }, SimTime::ZERO, &mut rng)
                .unwrap();
            prop_assert!(ids.insert(t.id), "duplicate id {:?}", t.id);
        }
    }

    /// The rendered JavaScript always embeds the measurement ID, the
    /// target URL, the init beacon, and both event handlers.
    #[test]
    fn task_js_always_complete(spec in arb_spec(), id in 0u64..u64::MAX) {
        let task = MeasurementTask {
            id: MeasurementId(id),
            spec,
        };
        let js = render_task_js(&task, "collector.example");
        prop_assert!(js.contains(&task.id.to_string()));
        prop_assert!(js.contains(task.spec.target_url()));
        prop_assert!(js.contains("init"));
        prop_assert!(js.contains("failure"));
        prop_assert!(js.contains("success"));
    }
}

/// Laws the streaming analytics structures must satisfy for the
/// bounded-memory pipeline to be sound: the sketch never under-counts
/// (serially or across shard merges) and stays inside the ε·N error
/// envelope, and the reservoir's bottom-k merge is a commutative
/// monoid that agrees with serial sampling under any stream split.
mod streaming_props {
    use super::*;
    use encore::collection::{StoredMeasurement, Submission, SubmissionPhase};
    use encore::streaming::{CountMinSketch, ReservoirSample};
    use encore::tasks::{TaskOutcome, TaskType};
    use std::collections::BTreeMap;
    use std::net::Ipv4Addr;

    /// An arbitrary workload of (namespace, key, count) additions drawn
    /// from a small key universe so streams genuinely revisit keys.
    fn arb_workload() -> impl Strategy<Value = Vec<(u8, u64, u64)>> {
        proptest::collection::vec((0u8..2, 0u64..24, 1u64..50), 1..40).prop_map(|v| {
            v.into_iter()
                .map(|(ns, key, count)| ([b'u', b'o'][ns as usize], key, count))
                .collect()
        })
    }

    fn exact_counts(workload: &[(u8, u64, u64)]) -> BTreeMap<(u8, u64), u64> {
        let mut exact = BTreeMap::new();
        for &(ns, key, count) in workload {
            *exact.entry((ns, key)).or_insert(0u64) += count;
        }
        exact
    }

    /// A structurally arbitrary record (the reservoir treats records as
    /// opaque payloads; only the canonical tie-break order ever looks
    /// inside).
    fn meas(id: u64) -> StoredMeasurement {
        StoredMeasurement {
            submission: Submission {
                measurement_id: MeasurementId(id),
                phase: SubmissionPhase::Result,
                outcome: Some(TaskOutcome::Success),
                elapsed_ms: id % 900,
                task_type: TaskType::Image,
                target_url: format!("http://d{}.example/favicon.ico", id % 7),
                user_agent: "Firefox".into(),
                congested: false,
            },
            client_ip: Ipv4Addr::new(10, (id >> 16) as u8, (id >> 8) as u8, id as u8),
            referer: None,
            received_at: SimTime::from_millis(id),
        }
    }

    /// Distinct priorities for `n` offers — unique by construction so
    /// the split/serial comparison cannot hinge on tie-break order.
    fn priorities(seed: u64, n: usize) -> Vec<u64> {
        let mut rng = SimRng::new(seed);
        (0..n as u64)
            .map(|i| (rng.range_u64(0, 1 << 40) << 12) | i)
            .collect()
    }

    proptest! {
        /// Count-min never under-counts, and over-counts by at most
        /// ε·N with ε = e/width (the classic bound; conservative
        /// update only tightens it).
        #[test]
        fn sketch_never_undercounts_and_respects_epsilon_n(
            workload in arb_workload(),
            seed in any::<u64>(),
        ) {
            let mut sketch = CountMinSketch::new(4, 1024, seed);
            for &(ns, key, count) in &workload {
                sketch.add_ns(ns, &key.to_le_bytes(), count);
            }
            let exact = exact_counts(&workload);
            let n: u64 = exact.values().sum();
            prop_assert_eq!(sketch.items(), n);
            let slack = (std::f64::consts::E / f64::from(sketch.width()) * n as f64).ceil() as u64;
            for (&(ns, key), &true_count) in &exact {
                let est = sketch.estimate_ns(ns, &key.to_le_bytes());
                prop_assert!(est >= true_count, "undercount: {est} < {true_count}");
                prop_assert!(
                    est <= true_count + slack,
                    "over ε·N: {est} > {true_count} + {slack}"
                );
            }
        }

        /// Splitting a stream across shards and merging the per-shard
        /// sketches keeps the no-undercount guarantee and the exact
        /// item total, and the element-wise merge is associative and
        /// commutative with the empty sketch as identity.
        #[test]
        fn sketch_merge_is_sound_and_monoidal(
            workload in arb_workload(),
            mask in any::<u64>(),
            seed in any::<u64>(),
        ) {
            let dims = |w: &[(u8, u64, u64)]| {
                let mut s = CountMinSketch::new(4, 1024, seed);
                for &(ns, key, count) in w {
                    s.add_ns(ns, &key.to_le_bytes(), count);
                }
                s
            };
            let (a, b): (Vec<_>, Vec<_>) = workload
                .iter()
                .enumerate()
                .partition(|(i, _)| mask >> (i % 64) & 1 == 0);
            let strip = |v: Vec<(usize, &(u8, u64, u64))>| {
                v.into_iter().map(|(_, e)| *e).collect::<Vec<_>>()
            };
            let (sa, sb) = (dims(&strip(a)), dims(&strip(b)));
            let mut merged = sa.clone();
            merged.merge(&sb);
            let exact = exact_counts(&workload);
            prop_assert_eq!(merged.items(), exact.values().sum::<u64>());
            for (&(ns, key), &true_count) in &exact {
                prop_assert!(merged.estimate_ns(ns, &key.to_le_bytes()) >= true_count);
            }
            // Monoid laws on the counter arrays themselves.
            let mut ab = sa.clone();
            ab.merge(&sb);
            let mut ba = sb.clone();
            ba.merge(&sa);
            prop_assert_eq!(&ab, &ba, "commutativity");
            let sc = dims(&workload);
            let mut left = ab.clone();
            left.merge(&sc);
            let mut bc = sb.clone();
            bc.merge(&sc);
            let mut right = sa.clone();
            right.merge(&bc);
            prop_assert_eq!(&left, &right, "associativity");
            let mut with_id = sa.clone();
            with_id.merge(&CountMinSketch::new(4, 1024, seed));
            prop_assert_eq!(&with_id, &sa, "identity");
        }

        /// Bottom-k reservoir merge is associative and commutative with
        /// the empty sample as identity, and merging per-shard samples
        /// of any stream split reproduces the serial sample exactly.
        #[test]
        fn reservoir_merge_is_monoidal_and_split_invariant(
            n in 1usize..60,
            capacity in 1u64..12,
            mask in any::<u64>(),
            seed in any::<u64>(),
        ) {
            let prio = priorities(seed, n);
            let mut serial = ReservoirSample::new(capacity);
            let mut parts = [ReservoirSample::new(capacity), ReservoirSample::new(capacity)];
            for i in 0..n {
                serial.offer(prio[i], meas(i as u64));
                parts[(mask >> (i % 64) & 1) as usize].offer(prio[i], meas(i as u64));
            }
            let [pa, pb] = parts;
            let mut split = pa.clone();
            split.merge(pb.clone());
            prop_assert_eq!(&split, &serial, "split == serial");
            prop_assert_eq!(serial.seen, n as u64);
            prop_assert!(serial.len() as u64 <= capacity);
            // Monoid laws.
            let mut ab = pa.clone();
            ab.merge(pb.clone());
            let mut ba = pb.clone();
            ba.merge(pa.clone());
            prop_assert_eq!(&ab, &ba, "commutativity");
            let mut left = ab.clone();
            left.merge(serial.clone());
            let mut bc = pb.clone();
            bc.merge(serial.clone());
            let mut right = pa.clone();
            right.merge(bc);
            prop_assert_eq!(&left, &right, "associativity");
            let mut with_id = pa.clone();
            with_id.merge(ReservoirSample::new(capacity));
            prop_assert_eq!(&with_id, &pa, "identity");
        }
    }
}

/// The one-pass windowed detector against the clone-per-window
/// computation it replaced: every window is cloned out of the record
/// log and judged on its own, with the record-level matrix built as it
/// was before the fold existed. The two must agree report for report.
mod window_fold_props {
    use super::*;
    use encore::collection::{StoredMeasurement, Submission, SubmissionPhase};
    use encore::geo::GeoDb;
    use encore::inference::{Cell, DetectorConfig, FilteringDetector, WindowReport};
    use encore::tasks::{TaskOutcome, TaskType};
    use netsim::geo::{country, CountryCode};
    use netsim::ip::IpAllocator;
    use std::collections::BTreeMap;
    use std::net::Ipv4Addr;

    const WINDOW_SECS: u64 = 100;
    /// Upper-case hosts exercise the owned-domain case of the fold.
    const URLS: [&str; 5] = [
        "http://a.com/favicon.ico",
        "http://A.COM/logo.png",
        "http://b.org/x.css",
        "http://B.org/y.js",
        "no-host-here",
    ];
    const AGENTS: [&str; 5] = [
        "Chrome",
        "Firefox",
        "GoogleBot/2.1",
        "Security-SCANNER",
        "mozilla (CRAWLER)",
    ];

    /// The matrix exactly as the detector built it from raw records
    /// before the window fold, allocating crawler check included.
    fn reference_matrix(
        config: &DetectorConfig,
        records: &[StoredMeasurement],
        geo: &GeoDb,
    ) -> BTreeMap<(String, CountryCode), Cell> {
        let mut matrix: BTreeMap<(String, CountryCode), Cell> = BTreeMap::new();
        let mut per_ip: BTreeMap<(String, Ipv4Addr), u64> = BTreeMap::new();
        for rec in records {
            if rec.submission.phase != SubmissionPhase::Result {
                continue;
            }
            let ua = rec.submission.user_agent.to_ascii_lowercase();
            let crawler = ua.contains("bot") || ua.contains("crawler") || ua.contains("scanner");
            if config.exclude_crawlers && crawler {
                continue;
            }
            let Some(outcome) = rec.submission.outcome else {
                continue;
            };
            if config.discount_congestion
                && outcome == TaskOutcome::Failure
                && rec.submission.congested
            {
                continue;
            }
            let Some(domain) = rec.target_domain() else {
                continue;
            };
            let Some(country) = geo.lookup(rec.client_ip) else {
                continue;
            };
            if let Some(cap) = config.max_per_ip {
                let seen = per_ip.entry((domain.clone(), rec.client_ip)).or_insert(0);
                if *seen >= cap {
                    continue;
                }
                *seen += 1;
            }
            let cell = matrix.entry((domain, country)).or_default();
            cell.n += 1;
            if outcome == TaskOutcome::Success {
                cell.x += 1;
            }
        }
        matrix
    }

    /// Clone each window's records out of the log and judge it alone.
    fn reference_windows(
        det: &FilteringDetector,
        records: &[StoredMeasurement],
        geo: &GeoDb,
        window: SimDuration,
    ) -> Vec<WindowReport> {
        let mut by_window: BTreeMap<u64, Vec<StoredMeasurement>> = BTreeMap::new();
        for rec in records {
            let w = rec.received_at.as_micros() / window.as_micros();
            by_window.entry(w).or_default().push(rec.clone());
        }
        by_window
            .into_iter()
            .map(|(w, recs)| WindowReport {
                window: w,
                start: SimTime::from_micros(w * window.as_micros()),
                measurements: recs
                    .iter()
                    .filter(|r| r.submission.phase == SubmissionPhase::Result)
                    .count(),
                detections: det.detect_from_matrix(&reference_matrix(&det.config, &recs, geo)),
            })
            .collect()
    }

    fn record(url: &str, ua: &str, ip: Ipv4Addr, code: u8, at_ms: u64) -> StoredMeasurement {
        // code: 0 init, 1 success, 2 failure, 3 congestion-flagged failure.
        let (phase, outcome) = match code {
            0 => (SubmissionPhase::Init, None),
            1 => (SubmissionPhase::Result, Some(TaskOutcome::Success)),
            _ => (SubmissionPhase::Result, Some(TaskOutcome::Failure)),
        };
        StoredMeasurement {
            submission: Submission {
                measurement_id: MeasurementId(at_ms),
                phase,
                outcome,
                elapsed_ms: 40,
                task_type: TaskType::Image,
                target_url: url.to_string(),
                user_agent: ua.to_string(),
                congested: code == 3,
            },
            client_ip: ip,
            referer: None,
            received_at: SimTime::from_millis(at_ms),
        }
    }

    /// A generated record log over four windows: a per-window base of
    /// healthy US and failing TR clients on `a.com` (so windows do
    /// flag), arbitrary
    /// noise records in arbitrary time order, and single-IP floods that
    /// straddle a window boundary.
    fn arb_log() -> impl Strategy<Value = (Vec<StoredMeasurement>, GeoDb)> {
        let noise = proptest::collection::vec(
            (0usize..URLS.len(), 0usize..AGENTS.len(), 0usize..8, 0u8..4),
            0..120,
        );
        let times = proptest::collection::vec(0u64..4 * WINDOW_SECS * 1_000, 120..121);
        let floods =
            proptest::collection::vec((0usize..8, 0usize..URLS.len(), 0u64..4, 4u64..12), 0..4);
        (noise, times, floods, any::<u64>()).prop_map(|(noise, times, floods, base_seed)| {
            let mut alloc = IpAllocator::new();
            // Clients 0–2 in the US, 3–5 in TR, 6 in CN; client 7 has no
            // GeoIP entry at all.
            let mut ips: Vec<Ipv4Addr> = ["US", "US", "US", "TR", "TR", "TR", "CN"]
                .iter()
                .map(|cc| alloc.allocate(country(cc)))
                .collect();
            ips.push(Ipv4Addr::new(203, 0, 113, 7));
            let mut records = Vec::new();
            for w in 0..4u64 {
                for (i, &ip) in ips.iter().take(6).enumerate() {
                    let url = URLS[(base_seed as usize + i) % 2];
                    let code = if i < 3 { 1 } else { 2 };
                    for k in 0..6 {
                        let at = w * WINDOW_SECS * 1_000 + 1_000 * (i as u64) + k;
                        records.push(record(url, "Chrome", ip, code, at));
                    }
                }
            }
            for (&(url, ua, client, code), &at) in noise.iter().zip(&times) {
                records.push(record(URLS[url], AGENTS[ua], ips[client], code, at));
            }
            for &(client, url, boundary, len) in &floods {
                let edge = (boundary + 1) * WINDOW_SECS * 1_000;
                for k in 0..len {
                    let code = if k % 3 == 0 { 1 } else { 2 };
                    records.push(record(
                        URLS[url],
                        "Chrome",
                        ips[client],
                        code,
                        edge - len / 2 + k,
                    ));
                }
            }
            // Seeded shuffle, so receive times arrive out of order.
            let mut shuffled = Vec::with_capacity(records.len());
            let mut rng = SimRng::new(base_seed);
            while !records.is_empty() {
                let i = rng.range_u64(0, records.len() as u64) as usize;
                shuffled.push(records.swap_remove(i));
            }
            (shuffled, GeoDb::from_allocator(&alloc))
        })
    }

    proptest! {
        /// One pass over borrowed records equals judging each cloned
        /// window alone, under the default detector and under a tight
        /// cap that the floods overrun.
        #[test]
        fn one_pass_detect_windows_equals_clone_per_window(log in arb_log()) {
            let (records, geo) = log;
            let window = SimDuration::from_secs(WINDOW_SECS);
            let tight = DetectorConfig {
                max_per_ip: Some(3),
                min_measurements: 2,
                ..DetectorConfig::default()
            };
            let lax = DetectorConfig {
                exclude_crawlers: false,
                discount_congestion: false,
                max_per_ip: None,
                ..tight
            };
            for config in [DetectorConfig::default(), tight, lax] {
                let det = FilteringDetector::new(config);
                let fold = det.detect_windows(&records, &geo, window);
                prop_assert_eq!(&fold, &reference_windows(&det, &records, &geo, window));
                prop_assert!(fold.iter().any(|r| !r.detections.is_empty()));
            }
        }
    }
}
