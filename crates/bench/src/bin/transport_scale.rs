//! Transport scale — process-transport overhead vs the thread backend
//! at equal shard counts, on the longitudinal Turkey-timeline workload.
//!
//! `world_scale` gates how the sharded world engine scales with cores;
//! this binary gates what the **distributed** path costs on top: the
//! frame-protocol process transport must stay within a bounded overhead
//! of the in-process thread transport at the same shard count, while
//! reproducing it byte for byte and holding the coordinator's streaming
//! merge to O(1) resident outcomes.
//!
//! Checks (all gate the exit code):
//!
//! * **Byte identity** — at {2, top} shards the process backend's
//!   outcome, per-shard reports, collection store, and serialized GeoIP
//!   database equal the thread backend's exactly.
//! * **Overhead** — min-of-reps process wall time ≤ the overhead
//!   budget × min-of-reps thread wall time at the top shard count. The
//!   budget is **parallelism-aware**: with ≥ 2 hardware threads the
//!   worker-side encode and coordinator-side decode overlap shard
//!   compute, so the strict budget (default 1.25×) applies; on a
//!   single hardware thread every transport byte — spawn, encode,
//!   decode, fold — serializes behind the same compute the thread
//!   backend runs for free in shared memory, which no transport can
//!   overlap away, so the budget relaxes to a documented 2.5×. (CPU
//!   accounting on a 1-thread box: process wall ≈ coordinator CPU +
//!   worker CPU with near-zero idle — the gap is real codec work, not
//!   scheduling waste. See DESIGN.md "Distributed world".) Override
//!   either budget with `--min-speedup`/`ENCORE_MIN_SPEEDUP`.
//! * **Streaming memory** — the coordinator's peak resident outcome
//!   count stays ≤ 2 (the running fold plus the one shard being
//!   read), independent of shard count: outcomes stream and merge
//!   incrementally, they are never all buffered. `VmHWM` from
//!   `/proc/self/status` is recorded informationally (it includes the
//!   thread-backend runs sharing this process).
//!
//! Output: a table plus `results/transport_scale.json`. Overrides via
//! `bench::fixtures::RunArgs`: `--days`/`ENCORE_DAYS` (default 12),
//! `--shards`/`ENCORE_SHARDS` (top shard count, default 8),
//! `--reps`/`ENCORE_REPS` (default 5), `--seed`/`ENCORE_SEED`,
//! `--min-speedup`/`ENCORE_MIN_SPEEDUP` (the overhead budget).

use bench::fixtures::RunArgs;
use bench::print_table;
use bench::specs::{BenchWorldSpec, SHARD_WORKER};
use population::transport::{run_on_threads, ProcessTransport, TransportStats};
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct IdentityPoint {
    shards: usize,
    byte_identical: bool,
    peak_resident_outcomes: usize,
    data_frames: u64,
    streamed_payload_bytes: u64,
    largest_payload_bytes: u64,
    window: usize,
}

#[derive(Serialize)]
struct TransportScaleResult {
    days: u64,
    shards: usize,
    reps: usize,
    hardware_threads: usize,
    threads_secs: f64,
    process_secs: f64,
    overhead_ratio: f64,
    allowed_overhead: f64,
    identity: Vec<IdentityPoint>,
    vm_hwm_kb: Option<u64>,
    byte_identical_ok: bool,
    overhead_ok: bool,
    streaming_memory_ok: bool,
}

/// Peak resident set size of this process in kB, from
/// `/proc/self/status` (Linux only; `None` elsewhere). Informational —
/// it covers the whole coordinator process, thread-backend runs
/// included.
fn vm_hwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn main() {
    let args = RunArgs::parse();
    let days = args.days(12);
    let top = args.shards(8).max(1);
    let reps = args.reps(5);
    let seed = args.seed;
    let hardware = std::thread::available_parallelism().map_or(1, |n| n.get());

    let spec = BenchWorldSpec::Timeline {
        days,
        rate: 150.0,
        streaming: false,
    };
    let process = match ProcessTransport::for_worker(SHARD_WORKER) {
        Ok(t) => t,
        Err(err) => {
            eprintln!("transport_scale: {err}");
            std::process::exit(1);
        }
    };

    // Byte identity + streaming-memory stats at a small and the top
    // shard count (deduplicated when --shards 2 or 1 collapses them).
    let mut identity_shards = vec![2.min(top), top];
    identity_shards.dedup();
    let mut identity = Vec::new();
    let mut byte_identical_ok = true;
    let mut streaming_memory_ok = true;
    for &shards in &identity_shards {
        let threads_run = run_on_threads(&spec, shards, seed);
        let (process_run, stats): (_, TransportStats) = match process
            .run_with_stats(&spec, shards, seed)
        {
            Ok(pair) => pair,
            Err(err) => {
                eprintln!("transport_scale: process transport failed at {shards} shard(s): {err}");
                std::process::exit(1);
            }
        };
        // GeoDb carries no PartialEq; its serialized image is the
        // equality the goldens use anyway.
        let geo_equal = serde_json::to_string(&process_run.geo).expect("geo serializes")
            == serde_json::to_string(&threads_run.geo).expect("geo serializes");
        let byte_identical = process_run.outcome == threads_run.outcome
            && process_run.per_shard == threads_run.per_shard
            && process_run.collection == threads_run.collection
            && geo_equal;
        if !byte_identical {
            eprintln!(
                "TRANSPORT DIVERGENCE: process backend differs from threads at {shards} shard(s)"
            );
            byte_identical_ok = false;
        }
        if stats.peak_resident_outcomes > 2 {
            eprintln!(
                "STREAMING MEMORY REGRESSION: coordinator held {} outcomes resident at {shards} \
                 shard(s) (streaming merge promises ≤ 2)",
                stats.peak_resident_outcomes
            );
            streaming_memory_ok = false;
        }
        identity.push(IdentityPoint {
            shards,
            byte_identical,
            peak_resident_outcomes: stats.peak_resident_outcomes,
            data_frames: stats.data_frames,
            streamed_payload_bytes: stats.streamed_payload_bytes,
            largest_payload_bytes: stats.largest_payload_bytes,
            window: stats.window,
        });
    }

    // Overhead: min-of-reps wall time per backend at the top shard
    // count. Min (not mean) is the standard noise filter on shared
    // runners — overhead can only add time, so the fastest rep is the
    // cleanest estimate of each backend's true cost.
    let mut threads_secs = f64::INFINITY;
    let mut process_secs = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        let _ = run_on_threads(&spec, top, seed);
        threads_secs = threads_secs.min(t.elapsed().as_secs_f64());

        let t = Instant::now();
        match process.run(&spec, top, seed) {
            Ok(_) => {}
            Err(err) => {
                eprintln!("transport_scale: process transport failed while timing: {err}");
                std::process::exit(1);
            }
        }
        process_secs = process_secs.min(t.elapsed().as_secs_f64());
    }
    let overhead_ratio = process_secs / threads_secs;
    // Parallelism-aware budget: strict when transport work can overlap
    // shard compute, relaxed when one hardware thread serializes all of
    // it (see the module docs).
    let allowed_overhead = args.min_speedup(if hardware >= 2 { 1.25 } else { 2.5 });
    let overhead_ok = overhead_ratio <= allowed_overhead;
    if !overhead_ok {
        eprintln!(
            "TRANSPORT OVERHEAD REGRESSION: process backend is {overhead_ratio:.2}x the thread \
             backend at {top} shard(s) (budget {allowed_overhead:.2}x)"
        );
    }

    let vm_hwm = vm_hwm_kb();
    println!(
        "Process vs thread transport — {days} simulated days, seed {seed:#x}, {top} shard(s), \
         best of {reps} rep(s), {hardware} hw thread(s)"
    );
    print_table(
        &["backend", "wall secs", "ratio"],
        &[
            vec![
                "threads".to_string(),
                format!("{threads_secs:.3}"),
                "1.00x".to_string(),
            ],
            vec![
                "process".to_string(),
                format!("{process_secs:.3}"),
                format!("{overhead_ratio:.2}x"),
            ],
        ],
    );
    println!();
    print_table(
        &[
            "shards",
            "byte-identical",
            "peak outcomes",
            "data frames",
            "streamed bytes",
        ],
        &identity
            .iter()
            .map(|p| {
                vec![
                    p.shards.to_string(),
                    if p.byte_identical { "yes" } else { "NO" }.to_string(),
                    p.peak_resident_outcomes.to_string(),
                    p.data_frames.to_string(),
                    p.streamed_payload_bytes.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    if let Some(kb) = vm_hwm {
        println!("\ncoordinator VmHWM: {kb} kB (informational)");
    }

    args.write_results(
        "transport_scale",
        &TransportScaleResult {
            days,
            shards: top,
            reps,
            hardware_threads: hardware,
            threads_secs,
            process_secs,
            overhead_ratio,
            allowed_overhead,
            identity,
            vm_hwm_kb: vm_hwm,
            byte_identical_ok,
            overhead_ok,
            streaming_memory_ok,
        },
    );

    if !(byte_identical_ok && overhead_ok && streaming_memory_ok) {
        std::process::exit(1);
    }
}
