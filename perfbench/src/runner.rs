//! The measurement loop and the metrics it reports.
//!
//! A run is a closed loop: one operation at a time until the measuring
//! time is spent, and at least one. Every operation runs in a fresh
//! process of this executable, so each starts, like a user's run of the
//! simulator, with a fresh RSS high-water mark, a cold heap and no
//! children of its own; its report comes back as one JSON line. An
//! operation that errors, panics or fails its check is a failed
//! operation and never a timing.
//!
//! With tracing on, every untraced operation is followed by a traced
//! one. The traced operations give the per-layer metrics, and the gap
//! between the two kinds is the tracing overhead.

use crate::host;
use crate::trace::{write_spans, SpanRecord, Tracer};
use crate::workloads::{Done, Workload};
use encore::FilteringDetector;
use serde::{Deserialize, Serialize};
use sim_core::SimDuration;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Set-ups before each operation: at least this many, and more until
/// they have taken [`SETUP_SECONDS`]. A single set-up takes 10 µs to
/// 1 ms. On a shared 2-thread VM the speed of such short work changed
/// by up to 1.6 times in episodes of about a second, so each burst is
/// long enough to reach into more than one.
pub const MIN_SETUPS: usize = 4;
/// Seconds of set-ups before each operation.
pub const SETUP_SECONDS: f64 = 0.25;

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("visits_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("bench.setup_s", "s"),
    ("population.engine_s", "s"),
    ("population.engine_ns_per_visit", "ns"),
    ("encore.snapshot_s", "s"),
    ("encore.records", "count"),
    ("bench.judge_s", "s"),
    ("encore.detect_windows_s", "s"),
    ("bench.judge_passes", "ratio"),
    ("bench.serialize_s", "s"),
    ("population.transport_s", "s"),
    ("population.transport_gap_s", "s"),
    ("population.transport_busy_s", "s"),
    ("population.transport_wait_s", "s"),
    ("population.worker_cpu_s", "s"),
    ("population.worker_peak_rss_mib", "MiB"),
    ("population.transport_frames", "count"),
    ("population.transport_payload_bytes", "bytes"),
    ("population.transport_largest_payload_bytes", "bytes"),
    ("population.transport_peak_resident_outcomes", "count"),
    ("netsim.session_fetches", "count"),
    ("netsim.dns_cache_hit_ratio", "ratio"),
    ("netsim.connection_reuse_ratio", "ratio"),
    ("population.client_reuse_ratio", "ratio"),
    ("encore.tasks_per_visit", "ratio"),
    ("encore.delivery_ratio", "ratio"),
    ("encore.resident_analytics_bytes", "bytes"),
    ("encore.ingest_drops", "count"),
    ("censor.policy_changes_applied", "count"),
    ("censor.control_signals_applied", "count"),
    ("trace.overhead_s", "s"),
];

/// How a run is measured.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    /// Root seed of every input.
    pub seed: u64,
    /// Measuring time; the operation running when it ends completes.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Median over the run's operations.
    pub value: f64,
}

/// What a run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Operations started.
    pub attempted: u64,
    /// Operations that errored, panicked or failed a check.
    pub failed: u64,
    /// Why each failed operation failed.
    pub failures: Vec<String>,
    /// The metrics of this kind of run that could be measured.
    pub metrics: Vec<Metric>,
    /// Where a traced run wrote its spans.
    pub trace_file: Option<PathBuf>,
}

impl Outcome {
    /// Every operation ran and passed its check.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

/// What one successful operation measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpReport {
    /// Seconds from the first engine or transport call to the checked,
    /// serialized artifact.
    pub wall_s: f64,
    /// Simulated visits.
    pub visits: u64,
    /// Peak RSS of the operation, when the platform reports it.
    pub rss_mib: Option<f64>,
    /// The checked, serialized artifact.
    pub artifact: String,
    /// Per-layer values, for a traced operation.
    pub layers: Option<BTreeMap<String, f64>>,
    /// Spans, for a traced operation.
    pub spans: Vec<SpanRecord>,
}

/// The line an operation process prints: its report, or why it failed.
#[derive(Debug, Serialize, Deserialize)]
struct OpLine {
    report: Option<OpReport>,
    error: Option<String>,
}

/// A workload as the measurement loop uses it.
pub trait Bench {
    /// Seconds one set-up takes.
    fn setup_once(&self) -> f64;
    /// Set up and run one operation, traced or not.
    fn operation(&self, seed: u64, trace: bool) -> Result<OpReport, String>;
    /// Checks that need a reference computed outside the timed region.
    fn check_reference(&self, seed: u64, artifact: &str) -> Result<(), String>;
}

impl<W: Workload> Bench for W {
    fn setup_once(&self) -> f64 {
        let t = Instant::now();
        let prepared = self.setup();
        let secs = t.elapsed().as_secs_f64();
        drop(prepared);
        secs
    }

    fn operation(&self, seed: u64, trace: bool) -> Result<OpReport, String> {
        let mut tr = Tracer::new(trace);
        let prepared = tr.span("bench.setup", |_| self.setup());
        let fresh_peak = host::reset_peak_rss();
        let t0 = Instant::now();
        let done = tr.span("bench.op", |tr| self.run(prepared, seed, tr));
        let wall_s = t0.elapsed().as_secs_f64();
        let rss_mib = if fresh_peak {
            host::peak_rss_mib()
        } else {
            None
        };
        let done = done?;
        let layers = if trace {
            if let Some(artifact) = self.breakdown(seed, &mut tr) {
                ensure_same(&artifact?, &done.artifact)?;
            }
            tr.span("encore.detect_windows", |_| {
                std::hint::black_box(FilteringDetector::default().detect_windows(
                    &done.records,
                    &done.geo,
                    SimDuration::from_days(1),
                ))
            });
            Some(layer_values(&tr, &done))
        } else {
            None
        };
        Ok(OpReport {
            wall_s,
            visits: done.report.visits,
            rss_mib,
            artifact: done.artifact,
            layers,
            spans: tr.records(0),
        })
    }

    fn check_reference(&self, seed: u64, artifact: &str) -> Result<(), String> {
        Workload::check_reference(self, seed, artifact)
    }
}

/// The traced breakdown must reproduce the timed artifact byte for byte,
/// so its spans describe the computation that was timed.
fn ensure_same(breakdown: &str, timed: &str) -> Result<(), String> {
    if breakdown == timed {
        Ok(())
    } else {
        Err("the traced breakdown's artifact differs from the operation's".to_string())
    }
}

/// Body of an operation process: run one operation, print its line,
/// and return the exit code.
pub fn operation_main(bench: &dyn Bench, seed: u64, trace: bool) -> i32 {
    let (line, code) = match bench.operation(seed, trace) {
        Ok(report) => (
            OpLine {
                report: Some(report),
                error: None,
            },
            0,
        ),
        Err(why) => (
            OpLine {
                report: None,
                error: Some(why),
            },
            1,
        ),
    };
    println!(
        "{}",
        serde_json::to_string(&line).expect("an operation line serializes")
    );
    code
}

/// Run one operation in a fresh process of this executable.
fn spawn_operation(name: &str, seed: u64, trace: bool) -> Result<OpReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("no executable to run: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .env(crate::ROLE_ENV, crate::OPERATION_ROLE)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("operation process did not start: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line: Option<OpLine> = stdout
        .lines()
        .last()
        .and_then(|line| serde_json::from_str(line).ok());
    match line {
        Some(OpLine {
            report: Some(report),
            ..
        }) if out.status.success() => Ok(report),
        Some(OpLine {
            error: Some(why), ..
        }) => Err(why),
        _ => Err(format!("operation process {} without a report", out.status)),
    }
}

/// Median of a sample (mean of the middle two when even).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Per-layer values of one traced operation. A layer the workload does
/// not use reads 0 (no transport call moves no frames); a value the
/// platform cannot supply is left out.
fn layer_values(tr: &Tracer, done: &Done) -> BTreeMap<String, f64> {
    // The judge and serializer also run in a breakdown; their metrics
    // are the timed calls inside the operation.
    let timed = |name: &str| tr.seconds_under("bench.op", name);
    let transport_s = timed("population.transport");
    // Over the process transport the engine runs inside the workers, so
    // the coordinator sees it as the transport call.
    let engine_s = match done.transport {
        Some(_) => transport_s,
        None => tr.seconds("population.engine"),
    };
    let snapshot_s = tr.seconds("encore.snapshot");
    // The thread-transport time the breakdown's direct world build,
    // engine and snapshot calls do not account for.
    let transport_gap_s = if tr.seconds("bench.breakdown") > 0.0 {
        transport_s - tr.seconds("bench.world_build") - engine_s - snapshot_s
    } else {
        0.0
    };
    let judge_s = timed("bench.judge");
    let detect_s = tr.seconds("encore.detect_windows");
    // Detector passes the judge costs; 0 where it does not read records.
    let judge_passes = if done.records.is_empty() || detect_s == 0.0 {
        0.0
    } else {
        judge_s / detect_s
    };
    let r = &done.report;
    let mut values = vec![
        ("bench.setup_s", tr.seconds("bench.setup")),
        ("population.engine_s", engine_s),
        (
            "population.engine_ns_per_visit",
            engine_s * 1e9 / done.report.visits.max(1) as f64,
        ),
        ("encore.snapshot_s", snapshot_s),
        ("encore.records", done.records.len() as f64),
        ("bench.judge_s", judge_s),
        ("encore.detect_windows_s", detect_s),
        ("bench.judge_passes", judge_passes),
        ("bench.serialize_s", timed("bench.serialize")),
        ("population.transport_s", transport_s),
        ("population.transport_gap_s", transport_gap_s),
        ("netsim.session_fetches", r.session_fetches as f64),
        (
            "netsim.dns_cache_hit_ratio",
            ratio(r.dns_cache_hits, r.session_fetches),
        ),
        (
            "netsim.connection_reuse_ratio",
            ratio(r.connections_reused, r.session_fetches),
        ),
        (
            "population.client_reuse_ratio",
            ratio(r.clients_reused, r.visits),
        ),
        ("encore.tasks_per_visit", ratio(r.tasks_executed, r.visits)),
        (
            "encore.delivery_ratio",
            ratio(r.results_delivered, r.tasks_executed),
        ),
        (
            "encore.resident_analytics_bytes",
            done.resident_analytics_bytes as f64,
        ),
        ("encore.ingest_drops", done.ingest_drops as f64),
        (
            "censor.policy_changes_applied",
            done.policy_changes_applied as f64,
        ),
        (
            "censor.control_signals_applied",
            done.control_signals_applied as f64,
        ),
    ];
    match done.transport {
        None => values.extend(
            [
                "population.transport_busy_s",
                "population.transport_wait_s",
                "population.worker_cpu_s",
                "population.worker_peak_rss_mib",
                "population.transport_frames",
                "population.transport_payload_bytes",
                "population.transport_largest_payload_bytes",
                "population.transport_peak_resident_outcomes",
            ]
            .map(|name| (name, 0.0)),
        ),
        Some(t) => {
            if let Some(busy) = t.busy_s {
                values.push(("population.transport_busy_s", busy));
                values.push(("population.transport_wait_s", transport_s - busy));
            }
            if let Some(cpu) = t.worker_cpu_s {
                values.push(("population.worker_cpu_s", cpu));
            }
            if let Some(rss) = t.worker_peak_rss_mib {
                values.push(("population.worker_peak_rss_mib", rss));
            }
            let s = t.stats;
            values.extend([
                ("population.transport_frames", s.data_frames as f64),
                (
                    "population.transport_payload_bytes",
                    s.streamed_payload_bytes as f64,
                ),
                (
                    "population.transport_largest_payload_bytes",
                    s.largest_payload_bytes as f64,
                ),
                (
                    "population.transport_peak_resident_outcomes",
                    s.peak_resident_outcomes as f64,
                ),
            ]);
        }
    }
    values
        .into_iter()
        .map(|(name, value)| (name.to_string(), value))
        .collect()
}

/// Measure workload `bench`, named `name`.
pub fn measure(bench: &dyn Bench, name: &str, settings: &Settings) -> Outcome {
    let seed = settings.seed;
    let mut setup_samples = Vec::new();
    let mut attempted = 0u64;
    let mut ops: Vec<OpReport> = Vec::new();
    let mut failures = Vec::new();
    let mut spans = Vec::new();
    let start = Instant::now();
    loop {
        // Set-ups are sampled throughout the run, in a burst before each
        // operation, so their median spans the same stretch of time.
        let burst = Instant::now();
        for n in 0.. {
            if n >= MIN_SETUPS && burst.elapsed().as_secs_f64() >= SETUP_SECONDS {
                break;
            }
            setup_samples.push(bench.setup_once());
        }
        let kinds: &[bool] = if settings.trace {
            &[false, true]
        } else {
            &[false]
        };
        for &traced in kinds {
            attempted += 1;
            let label = if traced { " (traced)" } else { "" };
            match spawn_operation(name, seed, traced) {
                Ok(mut op) => {
                    eprintln!(
                        "perfbench: operation {attempted}{label}: wall {:.3} s, peak rss {:?} MiB",
                        op.wall_s, op.rss_mib
                    );
                    for span in &mut op.spans {
                        span.run = attempted;
                    }
                    spans.append(&mut op.spans);
                    ops.push(op);
                }
                Err(why) => {
                    eprintln!("perfbench: operation {attempted}{label} failed: {why}");
                    failures.push(why);
                }
            }
        }
        if start.elapsed().as_secs_f64() >= settings.seconds {
            break;
        }
    }

    // Every operation of one seed must produce the same bytes, traced or
    // not, so the spans describe the computation that was timed. The
    // reference check runs once, outside the timed region.
    if let Some(first) = ops.first() {
        let verdict = if ops.iter().any(|op| op.artifact != first.artifact) {
            Err("operations of one seed produced different artifacts".to_string())
        } else {
            bench.check_reference(seed, &first.artifact)
        };
        if let Err(why) = verdict {
            failures.push(why);
            ops.clear();
        }
    }
    let failed = attempted - ops.len() as u64;

    let (layered, plain): (Vec<&OpReport>, Vec<&OpReport>) =
        ops.iter().partition(|op| op.layers.is_some());
    let mut metrics = Vec::new();
    let mut push = |name: &'static str, unit: &'static str, values: &[f64]| {
        if let Some(value) = median(values) {
            metrics.push(Metric { name, unit, value });
        }
    };
    let walls = |ops: &[&OpReport]| ops.iter().map(|op| op.wall_s).collect::<Vec<_>>();
    if settings.trace {
        for (metric, unit) in PER_LAYER {
            let values: Option<Vec<f64>> = layered
                .iter()
                .map(|op| op.layers.as_ref()?.get(metric).copied())
                .collect();
            push(metric, unit, &values.unwrap_or_default());
        }
        if let (Some(with), Some(without)) = (median(&walls(&layered)), median(&walls(&plain))) {
            push("trace.overhead_s", "s", &[with - without]);
        }
    } else {
        let [wall, vps, setup, rss] = END_TO_END;
        push(wall.0, wall.1, &walls(&plain));
        let rates: Vec<f64> = plain
            .iter()
            .map(|op| op.visits as f64 / op.wall_s)
            .collect();
        push(vps.0, vps.1, &rates);
        push(setup.0, setup.1, &setup_samples);
        let peaks: Option<Vec<f64>> = plain.iter().map(|op| op.rss_mib).collect();
        push(rss.0, rss.1, &peaks.unwrap_or_default());
    }

    let trace_file = if settings.trace {
        write_spans(&format!("trace-{name}-seed{seed}.jsonl"), &spans)
            .map_err(|e| eprintln!("perfbench: spans not written: {e}"))
            .ok()
    } else {
        None
    };
    Outcome {
        attempted,
        failed,
        failures,
        metrics,
        trace_file,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        names.sort();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn operation_lines_round_trip() {
        let report = OpReport {
            wall_s: 1.0 / 3.0,
            visits: 7,
            rss_mib: None,
            artifact: "{\n  \"a\": [1, 2]\n}".to_string(),
            layers: Some(BTreeMap::from([("bench.judge_s".to_string(), 0.1)])),
            spans: Vec::new(),
        };
        let line = OpLine {
            report: Some(report.clone()),
            error: None,
        };
        let text = serde_json::to_string(&line).unwrap();
        assert!(!text.contains('\n'), "one line: {text}");
        let back: OpLine = serde_json::from_str(&text).unwrap();
        assert_eq!(back.report, Some(report));
    }
}
