//! Traced and untraced operations of every in-process workload produce
//! the same artifact, so the spans of a traced run describe the
//! computation that was timed.

use perfbench::runner::{Bench, OpReport};
use perfbench::workloads::{BatchMixed, CongestedStreaming, CorpusSerial};

const GOLDEN: &str = include_str!("../../tests/golden/world_report.json");

fn both(bench: &dyn Bench, seed: u64) -> (OpReport, OpReport) {
    let timed = bench
        .operation(seed, false)
        .expect("untraced operation passes");
    let traced = bench
        .operation(seed, true)
        .expect("traced operation passes");
    assert!(timed.layers.is_none() && timed.spans.is_empty());
    assert_eq!(traced.artifact, timed.artifact, "traced artifact drifted");
    (timed, traced)
}

fn layer(op: &OpReport, name: &str) -> f64 {
    op.layers.as_ref().expect("traced")[name]
}

#[test]
fn traced_corpus_serial_decomposition_reproduces_the_golden() {
    // A traced operation passes only if its breakdown reproduced the
    // operation's artifact byte for byte.
    let (timed, traced) = both(&CorpusSerial, bench::DEFAULT_SEED);
    assert_eq!(timed.artifact, GOLDEN, "artifact differs from the golden");
    let names: Vec<&str> = traced.spans.iter().map(|s| s.name.as_str()).collect();
    for layer in [
        "bench.setup",
        "bench.op",
        "population.transport",
        "bench.breakdown",
        "bench.world_build",
        "population.engine",
        "encore.snapshot",
        "bench.judge",
        "bench.serialize",
        "encore.detect_windows",
    ] {
        assert!(names.contains(&layer), "no {layer} span in {names:?}");
    }
    assert!(layer(&traced, "population.engine_s") > 0.0);
    assert!(layer(&traced, "population.transport_s") > 0.0);
    assert!(
        layer(&traced, "bench.judge_passes") > 1.0,
        "judge is detector passes"
    );
    assert_eq!(layer(&traced, "censor.control_signals_applied"), 4.0);
}

#[test]
fn traced_batch_operation_matches_the_untraced_one() {
    let (timed, traced) = both(&BatchMixed { visits: 20_000 }, 11);
    assert_eq!(timed.visits, 20_000);
    assert!(layer(&traced, "encore.records") > 0.0);
    assert!(layer(&traced, "netsim.dns_cache_hit_ratio") > 0.0);
    assert!(layer(&traced, "encore.delivery_ratio") <= 1.0);
    assert_eq!(layer(&traced, "bench.judge_s"), 0.0, "no verdict analysis");
    assert_eq!(layer(&traced, "population.transport_frames"), 0.0);
    assert_eq!(layer(&traced, "population.transport_gap_s"), 0.0);
}

#[test]
fn traced_congested_operation_matches_the_untraced_one() {
    let bench = CongestedStreaming {
        days: 30,
        rate: 300.0,
    };
    let (_, traced) = both(&bench, 5);
    assert_eq!(
        layer(&traced, "encore.records"),
        0.0,
        "streaming keeps no log"
    );
    assert!(layer(&traced, "encore.resident_analytics_bytes") > 0.0);
    assert_eq!(layer(&traced, "censor.policy_changes_applied"), 2.0);
}
