//! Tracing must never leak into the reproducibility contract.
//!
//! `RunManifest::deterministic_json()` embeds every counter that grew while
//! the manifest was open, so any timing-dependent accounting routed through
//! counters would make same-seed runs diverge. pc-trace therefore records exclusively into histograms,
//! events, and the flight recorder — these tests pin that the deterministic
//! portion of a manifest is byte-identical before and after heavy tracing
//! activity, and that only the "timing" (and "analysis") sections move.

use pc_telemetry::trace::{Stage, Tracer};
use pc_telemetry::RunManifest;

fn run_traced_workload(tracer: &Tracer) {
    for conn in 0..4u64 {
        for seq in 1..=16u64 {
            let mut tb = tracer
                .begin(conn, seq, "identify", 120, seq % 2 == 0)
                .expect("tracer enabled");
            tb.record_lap(Stage::QueueWait);
            tb.record_lap(Stage::Score);
            tb.record_lap(Stage::Encode);
            tb.record_lap(Stage::Write);
            tracer.observe(tb.finish());
        }
    }
}

#[test]
fn tracing_does_not_perturb_the_deterministic_manifest_sections() {
    pc_telemetry::install();
    let tracer = Tracer::new(&["identify"], 32, Some(0), true);

    let mut manifest = RunManifest::new("trace-determinism");
    manifest.set_seed(42).knob("chips", 10u64);
    manifest.begin_phase("load").end_phase();

    let before = manifest.deterministic_json().to_pretty();

    // Slow threshold 0 makes every request breach: slow_query events,
    // flight-recorder dumps, per-op histogram records — the works.
    run_traced_workload(&tracer);
    tracer.dump("test");

    let after = manifest.deterministic_json().to_pretty();
    assert_eq!(
        before, after,
        "tracing activity leaked into the deterministic manifest portion"
    );
}

#[test]
fn manifest_varies_only_in_timing_and_analysis_with_tracing_enabled() {
    pc_telemetry::install();
    let tracer = Tracer::new(&["identify"], 16, Some(1_000), true);

    let build = |analysis_status: &str| {
        let mut m = RunManifest::new("trace-determinism-sections");
        m.set_seed(7)
            .set_analysis("v1", analysis_status)
            .knob("threshold", 0.3f64);
        m.begin_phase("score").end_phase();
        m.to_json()
    };

    let mut first = build("clean");
    run_traced_workload(&tracer);
    let mut second = build("dirty");

    for section in ["timing", "analysis"] {
        first.remove(section);
        second.remove(section);
    }
    assert_eq!(
        first.to_pretty(),
        second.to_pretty(),
        "manifests differ outside the timing/analysis sections"
    );
}
