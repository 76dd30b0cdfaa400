//! `perfbench` — run one benchmark workload and print its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload corpus_serial --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints the host fingerprint, the output check, every metric with its
//! unit, a `row` line for the baseline file, and, last, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Exits 0 only
//! when every operation passed its check.
//!
//! The same executable plays two more roles, chosen by
//! `PERFBENCH_ROLE`: `operation` runs one measured operation and prints
//! its report line (the coordinator starts one such process per
//! operation), and `shard-worker` is the process transport's worker,
//! speaking the worker protocol on stdin/stdout.

use bench::specs::BenchWorldSpec;
use perfbench::host::Fingerprint;
use perfbench::runner::{measure, operation_main, Outcome, Settings};
use perfbench::workloads::{by_name, NAMES};
use serde::Serialize;
use std::collections::BTreeMap;

const USAGE: &str = "usage: perfbench --workload <corpus_serial|corpus_process2|batch_mixed|\
                     congested_streaming> [--seed <n>] [--seconds <s>] [--trace <0|1>]";

#[derive(Debug)]
struct Args {
    workload: String,
    settings: Settings,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut settings = Settings {
        seed: bench::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" if NAMES.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad("a workload name")),
            "--seed" => settings.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                settings.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("a non-negative number"))?
            }
            "--trace" => {
                settings.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        settings,
    })
}

#[derive(Serialize)]
struct MetricValue {
    value: f64,
    unit: String,
}

#[derive(Serialize)]
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, MetricValue>,
}

#[derive(Serialize)]
struct Row {
    workload: String,
    seed: u64,
    trace: bool,
    host: Fingerprint,
    result: RunResult,
}

fn main() {
    let role = std::env::var(perfbench::ROLE_ENV).unwrap_or_default();
    if role == perfbench::WORKER_ROLE {
        std::process::exit(population::worker_main::<BenchWorldSpec>());
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let bench = by_name(&args.workload).expect("parse_args accepts only known workloads");
    let s = &args.settings;
    if role == perfbench::OPERATION_ROLE {
        // Coordinator and shard workers are always one build: the
        // process transport spawns this executable. Without it, the
        // transport finds no worker and the operation fails.
        perfbench::use_worker(&std::env::current_exe().unwrap_or_default());
        std::process::exit(operation_main(&*bench, s.seed, s.trace));
    }
    let outcome = measure(&*bench, &args.workload, s);
    report(&args, &outcome);
    std::process::exit(if outcome.correct() { 0 } else { 1 });
}

fn report(args: &Args, outcome: &Outcome) {
    let host = Fingerprint::current();
    let absent = |v: &Option<String>| v.clone().unwrap_or_else(|| "absent".to_string());
    println!(
        "perfbench {} seed {} trace {}: {} operations, {} failed",
        args.workload,
        args.settings.seed,
        u8::from(args.settings.trace),
        outcome.attempted,
        outcome.failed
    );
    println!(
        "host: {} hw threads, {}, commit {}",
        host.hw_threads,
        absent(&host.rustc),
        absent(&host.commit)
    );
    match outcome.failures.first() {
        None => println!("check {}: pass", args.workload),
        Some(why) => println!("check {}: FAIL ({why})", args.workload),
    }
    for m in &outcome.metrics {
        println!("  {:<46} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if let Some(path) = &outcome.trace_file {
        println!("spans: {}", path.display());
    }
    let result = || RunResult {
        correct: outcome.correct(),
        attempted: outcome.attempted,
        failed: outcome.failed,
        metrics: outcome
            .metrics
            .iter()
            .map(|m| {
                let value = MetricValue {
                    value: m.value,
                    unit: m.unit.to_string(),
                };
                (m.name.to_string(), value)
            })
            .collect(),
    };
    let row = Row {
        workload: args.workload.clone(),
        seed: args.settings.seed,
        trace: args.settings.trace,
        host,
        result: result(),
    };
    let row = serde_json::to_string(&row).expect("a row serializes");
    println!("row {row}");
    let last = serde_json::to_string(&result()).expect("a result serializes");
    println!("{last}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn the_benchmark_command_line_parses() {
        let args = parse("--workload batch_mixed --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(args.workload, "batch_mixed");
        assert_eq!(args.settings.seed, 7);
        assert_eq!(args.settings.seconds, 10.0);
        assert!(args.settings.trace);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for line in [
            "",
            "--seed 1",
            "--workload nope",
            "--workload batch_mixed --trace 2",
            "--workload batch_mixed --seconds -1",
            "--workload batch_mixed --seed x",
            "--workload batch_mixed --bogus 1",
            "--workload",
        ] {
            assert!(parse(line).is_err(), "accepted {line:?}");
        }
    }
}
