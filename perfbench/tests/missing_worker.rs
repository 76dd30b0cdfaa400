//! A missing shard worker is a failed operation, never a silent
//! fall-back to threads. (Its own test binary: it changes the process
//! environment.)

use perfbench::runner::Bench;
use perfbench::workloads::CorpusProcess;

#[test]
fn a_missing_worker_fails_the_operation() {
    let missing = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("no-such-worker");
    perfbench::use_worker(&missing);
    let why = CorpusProcess
        .operation(1, false)
        .expect_err("no worker, no run");
    assert!(why.contains("no shard worker"), "{why}");
}
