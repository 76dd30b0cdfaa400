//! Oracle 7 — transport equivalence: the process transport is
//! byte-identical to the thread transport.
//!
//! The in-process thread backend and the frame-protocol process backend
//! claim to execute *the same distributed computation*: identical shard
//! worlds, identical RNG streams, identical merge order. This oracle
//! proves it differentially over generated [`WorldCase`]s — including
//! adaptive-censor and congestion classes — by running both backends at
//! the same shard counts and demanding equality of the structural
//! outcome **and** the serialized byte-images (report, rollups,
//! collection JSON), exactly the "byte-identical" the other oracles
//! use.
//!
//! A [`WorldCase`] crosses the process boundary as a [`CaseSpec`]
//! `(class, seed)` pair — [`WorldCase::from_seed`] is pure, so the
//! worker rebuilds exactly the coordinator's world from two integers.
//! The worker binary is `bench`'s `case_worker`; the runner resolves it
//! as a sibling of the running executable and skips the oracle (rather
//! than failing spuriously) when it is not built.

use crate::generator::{CaseClass, WorldCase};
use crate::oracle::byte_image;
use encore::system::EncoreSystem;
use netsim::geo::World;
use netsim::network::Network;
use population::transport::{run_on_threads, ProcessTransport, WorldSpec};
use population::{Audience, ShardContext, WorldRecipe};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// The worker-binary name transport cases are dispatched to.
pub const CASE_WORKER: &str = "case_worker";

/// A generated world as it crosses the process boundary: the
/// `(class, seed)` pair that regenerates it.
///
/// [`WorldCase::from_seed`] is a pure function, so this tiny spec is a
/// complete description — the worker process rebuilds byte-for-byte the
/// world the coordinator generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CaseSpec {
    /// Which oracle family the world draws from.
    pub class: CaseClass,
    /// The generating seed.
    pub seed: u64,
}

impl CaseSpec {
    /// Regenerate the case this spec describes.
    pub fn case(&self) -> WorldCase {
        WorldCase::from_seed(self.class, self.seed)
    }
}

impl WorldSpec for CaseSpec {
    fn audience(&self) -> Audience {
        Audience::world(&World::builtin())
    }

    fn recipe(&self) -> WorldRecipe {
        self.case().recipe()
    }

    fn build(&self, ctx: ShardContext) -> (Network, EncoreSystem) {
        self.case().build(ctx)
    }
}

/// Shard counts the transport oracle compares at: the degenerate single
/// shard and an uneven multi-shard split.
const TRANSPORT_SHARDS: [usize; 2] = [1, 3];

/// Check one generated world across both transport backends: at 1 and
/// 3 shards (`TRANSPORT_SHARDS`), the process transport must
/// reproduce the thread transport byte-for-byte (structural outcome,
/// collection, per-shard reports, and all three serialized byte-images).
///
/// `worker` is the path to the built `case_worker` binary; resolve it
/// with [`population::transport::sibling_worker`] before calling.
pub fn check_transport(case: &WorldCase, worker: &Path) -> Vec<crate::oracle::Violation> {
    let spec = CaseSpec {
        class: case.class,
        seed: case.seed,
    };
    let mut violations = Vec::new();
    let mut fail = |oracle: &'static str, detail: String| {
        violations.push(crate::oracle::Violation {
            seed: case.seed,
            class: case.class,
            oracle,
            detail,
            case: case.clone(),
        });
    };
    for shards in TRANSPORT_SHARDS {
        let threads = run_on_threads(&spec, shards, case.seed);
        let process =
            match ProcessTransport::new(worker.to_path_buf()).run(&spec, shards, case.seed) {
                Ok(run) => run,
                Err(err) => {
                    fail(
                        "transport-run",
                        format!("process transport failed at {shards} shard(s): {err}"),
                    );
                    continue;
                }
            };
        if process.outcome != threads.outcome {
            fail(
                "transport-byte-identity",
                format!("process WorldOutcome differs from threads at {shards} shard(s)"),
            );
        }
        if process.collection != threads.collection {
            fail(
                "transport-byte-identity",
                format!("process collection store differs from threads at {shards} shard(s)"),
            );
        }
        if process.per_shard != threads.per_shard {
            fail(
                "transport-byte-identity",
                format!("process per-shard reports differ from threads at {shards} shard(s)"),
            );
        }
        let thread_image = byte_image(&threads.outcome, &threads.collection);
        let process_image = byte_image(&process.outcome, &process.collection);
        if process_image != thread_image {
            fail(
                "transport-byte-identity",
                format!("serialized byte-images diverge at {shards} shard(s)"),
            );
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_spec_round_trips_and_rebuilds_the_case() {
        for class in [
            CaseClass::Equivalence,
            CaseClass::Detector,
            CaseClass::Congestion,
        ] {
            let spec = CaseSpec {
                class,
                seed: 0xC0FFEE,
            };
            let json = serde_json::to_string(&spec).unwrap();
            let back: CaseSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(back, spec, "spec drifted through the wire: {json}");
            // The regenerated world must be the coordinator's world —
            // from_seed is pure, so the recipes agree structurally.
            assert_eq!(
                format!("{:?}", back.case()),
                format!("{:?}", WorldCase::from_seed(class, 0xC0FFEE)),
            );
        }
    }

    #[test]
    fn thread_transport_agrees_with_direct_sharding_on_a_case_spec() {
        // CaseSpec's WorldSpec impl must describe the same world the
        // oracle's direct run_sharded_world path executes.
        let case = WorldCase::from_seed(CaseClass::Equivalence, 11);
        let spec = CaseSpec {
            class: case.class,
            seed: case.seed,
        };
        let via_spec = run_on_threads(&spec, 2, case.seed);
        let direct = population::run_sharded_world(
            &|ctx| case.build(ctx),
            &Audience::world(&World::builtin()),
            &case.recipe(),
            2,
            case.seed,
        );
        assert_eq!(via_spec.outcome, direct.outcome);
        assert_eq!(via_spec.collection, direct.collection);
        assert_eq!(via_spec.per_shard, direct.per_shard);
    }
}
