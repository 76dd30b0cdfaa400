//! The Encore simulator's benchmark: four workloads, each measured end
//! to end with tracing off, and layer by layer in a separate traced run.
//! See this directory's README for the workloads and metrics.

pub mod host;
pub mod runner;
pub mod trace;
pub mod workloads;

use std::path::Path;

/// Environment variable that puts this executable in shard-worker mode.
pub const ROLE_ENV: &str = "PERFBENCH_ROLE";
/// The value of [`ROLE_ENV`] in a shard worker.
pub const WORKER_ROLE: &str = "shard-worker";
/// The value of [`ROLE_ENV`] in a process running one measured operation.
pub const OPERATION_ROLE: &str = "operation";

/// Make every process-transport worker this process spawns from now on
/// run `worker` in shard-worker mode. Call before any thread is started.
pub fn use_worker(worker: &Path) {
    std::env::set_var(ROLE_ENV, WORKER_ROLE);
    std::env::set_var(population::transport::WORKER_BIN_ENV, worker);
}
