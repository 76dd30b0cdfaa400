//! The benchmark's command line: the result line the contract asks for,
//! operations in their own processes, and the self-hosted shard worker.

use perfbench::runner::{END_TO_END, PER_LAYER};
use serde::Deserialize;
use std::collections::BTreeMap;
use std::process::Command;

fn perfbench(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("perfbench runs");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf-8"),
    )
}

/// The contract's result line.
#[derive(Debug, Deserialize)]
struct Line {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Metric>,
}

#[derive(Debug, Deserialize)]
struct Metric {
    value: f64,
    unit: String,
}

/// The last line of a passing run, checked against `want`.
fn result_line(stdout: &str, want: &[(&str, &str)]) -> Line {
    let last = stdout.lines().last().expect("a result line");
    let line: Line = serde_json::from_str(last).expect("the last line is the result");
    assert!(
        line.correct && line.attempted >= 1 && line.failed == 0,
        "{line:?}"
    );
    assert_eq!(line.metrics.len(), want.len(), "{line:?}");
    for (name, unit) in want {
        assert_eq!(line.metrics[*name].unit, *unit, "{name}");
    }
    line
}

#[test]
fn an_untraced_run_reports_every_end_to_end_metric() {
    let (ok, stdout) = perfbench(&["--workload", "batch_mixed", "--seed", "3", "--seconds", "0"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("check batch_mixed: pass"));
    assert!(stdout.contains("hw threads"), "host fingerprint printed");
    let line = result_line(&stdout, &END_TO_END);
    assert!(line.metrics.values().all(|m| m.value > 0.0), "{line:?}");
}

#[test]
fn the_process_workload_runs_this_executable_as_its_worker_and_reports_every_layer() {
    let seed = bench::DEFAULT_SEED.to_string();
    let args = [
        "--workload",
        "corpus_process2",
        "--seed",
        &seed,
        "--seconds",
        "0",
    ];
    let (ok, stdout) = perfbench(&[&args[..], &["--trace", "1"]].concat());
    assert!(ok, "{stdout}");
    let line = result_line(&stdout, &PER_LAYER);
    let value = |name: &str| line.metrics[name].value;
    assert!(value("population.transport_frames") > 0.0);
    assert!(value("population.worker_peak_rss_mib") > 0.0);
    assert!(value("population.worker_cpu_s") > 0.0);
}

#[test]
fn a_bad_command_line_fails_without_a_result() {
    let (ok, stdout) = perfbench(&["--workload", "no_such_workload"]);
    assert!(!ok);
    assert!(stdout.is_empty(), "{stdout}");
}
