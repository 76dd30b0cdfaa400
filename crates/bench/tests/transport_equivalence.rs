//! The transport-equivalence harness: the distributed world is the
//! same experiment as the in-process one.
//!
//! `population::transport` runs a sharded world either on OS threads
//! (shared memory, zero-copy) or on worker *processes* speaking the
//! length-prefixed frame protocol over pipes. The process backend is
//! only admissible if it is provably invisible: same merged outcome,
//! same collection store, same GeoIP database, byte for byte. Three
//! levels are enforced here, on the `bench::world_fixture`
//! Turkey-timeline scenario (the same fixture `timeline` and
//! `transport_scale` gate on in CI):
//!
//! 1. **Lockstep with the serial engine** — a 1-shard process-backend
//!    run is byte-identical to `WorldEngine::from_recipe(..).run()` on
//!    the same recipe, down to serialized JSON.
//! 2. **Backend equivalence** — at 2 and 8 shards the process backend
//!    reproduces the thread backend exactly: merged outcome, per-shard
//!    reports, collection snapshot, serialized GeoIP database, and the
//!    serialized JSON of the whole outcome.
//! 3. **Typed failure paths** — a missing worker binary, a worker that
//!    exits without streaming, and a worker that writes garbage all
//!    surface as typed `TransportError`s, never a panic or a hang.
//!
//! The worker binary is `bench`'s `shard_worker`. Cargo builds this
//! package's binaries before its integration tests, into the directory
//! above this test executable, where the production coordinator's
//! discovery finds it.

use bench::specs::{BenchWorldSpec, SHARD_WORKER};
use population::transport::{
    sibling_worker, ProcessTransport, ShardTransport, ThreadTransport, TransportError, WorldSpec,
};
use population::{ShardContext, WorldEngine};
use sim_core::SimRng;

const SEED: u64 = 0x7A_57;
const DAYS: u64 = 6;

fn spec() -> BenchWorldSpec {
    BenchWorldSpec::Timeline {
        days: DAYS,
        rate: 150.0,
        streaming: false,
    }
}

/// The production worker-discovery path, with a clear failure if the
/// worker binary has not been built (`cargo build -p bench --bins`, or
/// any workspace-wide build/test, produces it next to this test).
fn process_transport() -> ProcessTransport {
    let worker = sibling_worker(SHARD_WORKER).unwrap_or_else(|| {
        panic!(
            "shard_worker binary not found next to the test executable; \
             build it first: cargo build -p bench --bins"
        )
    });
    ProcessTransport::new(worker)
}

#[test]
fn one_shard_process_locksteps_the_serial_engine() {
    let spec = spec();

    // Serial: the engine replaying the recipe on the serial build.
    let audience = spec.audience();
    let recipe = spec.recipe();
    let (mut net, mut sys) = spec.build(ShardContext {
        index: 0,
        shards: 1,
    });
    let mut rng = SimRng::new(SEED);
    let serial = WorldEngine::from_recipe(&mut net, &mut sys, &audience, &recipe, &mut rng).run();
    let serial_snapshot = sys.collection.snapshot();

    // Distributed at N = 1: one worker process, full frame protocol.
    let run = process_transport()
        .run(&spec, 1, SEED)
        .expect("1-shard process transport runs");

    assert_eq!(
        run.outcome, serial,
        "1-shard process outcome must be bit-identical to the serial engine"
    );
    assert_eq!(
        run.collection, serial_snapshot,
        "1-shard process collection store must be identical to the serial engine"
    );
    // WorldOutcome itself has no Serialize (the transport streams its
    // fields separately); its report and rollups are the JSON surface.
    assert_eq!(
        serde_json::to_string(&run.outcome.report).unwrap(),
        serde_json::to_string(&serial.report).unwrap(),
        "serialized report JSON must agree byte for byte"
    );
    assert_eq!(
        serde_json::to_string(&run.outcome.rollups).unwrap(),
        serde_json::to_string(&serial.rollups).unwrap(),
        "serialized rollup JSON must agree byte for byte"
    );
}

#[test]
fn process_backend_matches_threads_at_2_and_8_shards() {
    let spec = spec();
    let process = process_transport();
    for shards in [2usize, 8] {
        let threads_run = ThreadTransport
            .run(&spec, shards, SEED)
            .expect("thread transport runs");
        let process_run = process
            .run(&spec, shards, SEED)
            .expect("process transport runs");

        assert_eq!(
            process_run.outcome, threads_run.outcome,
            "merged outcome diverged at {shards} shards"
        );
        assert_eq!(
            process_run.per_shard, threads_run.per_shard,
            "per-shard reports diverged at {shards} shards"
        );
        assert_eq!(
            process_run.collection, threads_run.collection,
            "collection store diverged at {shards} shards"
        );
        // GeoDb has no PartialEq; its serialized image is the equality
        // the goldens use.
        assert_eq!(
            serde_json::to_string(&process_run.geo).unwrap(),
            serde_json::to_string(&threads_run.geo).unwrap(),
            "GeoIP database diverged at {shards} shards"
        );
        assert_eq!(
            serde_json::to_string(&process_run.outcome.report).unwrap(),
            serde_json::to_string(&threads_run.outcome.report).unwrap(),
            "serialized report JSON diverged at {shards} shards"
        );
        assert_eq!(
            serde_json::to_string(&process_run.outcome.rollups).unwrap(),
            serde_json::to_string(&threads_run.outcome.rollups).unwrap(),
            "serialized rollup JSON diverged at {shards} shards"
        );
    }
}

#[test]
fn audience_is_transport_invariant() {
    // The spec rebuilds its audience inside each worker process; the
    // coordinator never ships it. Equal worlds require equal audiences.
    let spec = spec();
    let run = process_transport()
        .run(&spec, 2, SEED)
        .expect("process transport runs");
    let again = process_transport()
        .run(&spec, 2, SEED)
        .expect("process transport runs twice");
    assert_eq!(
        run.outcome, again.outcome,
        "same (seed, shards) must reproduce byte-identically across process runs"
    );
    assert_eq!(run.collection, again.collection);
}

#[test]
fn missing_worker_binary_is_a_typed_error() {
    let bogus = ProcessTransport::new("/nonexistent/encore-shard-worker".into());
    let err = bogus
        .run(&spec(), 2, SEED)
        .expect_err("spawning a nonexistent binary must fail");
    assert!(
        matches!(err, TransportError::Spawn { .. }),
        "expected Spawn error, got: {err}"
    );
}

#[test]
fn worker_that_exits_without_streaming_is_a_typed_error() {
    // `/bin/true` exits 0 without speaking the protocol: the coordinator
    // must report a worker exit (EOF before FINAL) or a broken pipe —
    // never panic or hang.
    let silent = ProcessTransport::new("/bin/true".into());
    let err = silent
        .run(&spec(), 1, SEED)
        .expect_err("a protocol-silent worker must fail the run");
    assert!(
        matches!(
            err,
            TransportError::WorkerExit { .. } | TransportError::Protocol(_)
        ),
        "expected WorkerExit or Protocol error, got: {err}"
    );
}

#[test]
fn worker_that_writes_garbage_is_a_typed_error() {
    // `/bin/echo` writes non-frame bytes and exits: the frame decoder
    // must reject the stream with a typed error.
    let garbage = ProcessTransport::new("/bin/echo".into());
    let err = garbage
        .run(&spec(), 1, SEED)
        .expect_err("a garbage-writing worker must fail the run");
    assert!(
        matches!(
            err,
            TransportError::Frame { .. }
                | TransportError::WorkerExit { .. }
                | TransportError::Protocol(_)
        ),
        "expected a frame/protocol error, got: {err}"
    );
}
