//! Shape checks on small in-process runs of every workload: the run is
//! correct, every metric of the catalogue is reported, every per-layer
//! metric named for the workload is populated, the server's traced stages
//! sum to its total, and the replayed layers sum to the request total
//! within 5%. Also keeps `BENCHMARK.json` in step with the catalogue.

use pc_e2ebench::cluster::Launcher;
use pc_e2ebench::metrics::{named_layers, END_TO_END, PER_LAYER};
use pc_e2ebench::workload::{self, Outcome, RunConfig, Workload};
use pc_telemetry::JsonValue;
use std::path::PathBuf;
use std::time::Duration;

fn small_run(workload: Workload, trace: bool) -> Outcome {
    let mut shape = workload.shape();
    shape.chips = 1_500;
    shape.devices = shape.devices.min(48);
    shape.pool = 96;
    shape.setups = 2;
    shape.warmup = Duration::from_millis(200);
    let work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "shape-{}-{trace}-{}",
        workload.name(),
        std::process::id()
    ));
    let cfg = RunConfig {
        workload,
        shape,
        seed: 11,
        seconds: 3.0,
        trace,
        work_dir: work_dir.clone(),
        launcher: Launcher::InProcess,
    };
    let (outcome, _) = workload::run(&cfg).expect("run completes");
    let _ = std::fs::remove_dir_all(work_dir);
    assert!(
        outcome.correct,
        "{}: {:?}",
        workload.name(),
        outcome.problems
    );
    assert_eq!(outcome.failed, 0, "{}", workload.name());
    assert!(outcome.attempted > 0, "{}", workload.name());
    outcome
}

fn check_untraced(workload: Workload) {
    let outcome = small_run(workload, false);
    let names: Vec<_> = outcome.metrics.iter().map(|m| (m.0, m.2)).collect();
    assert_eq!(names, END_TO_END, "{}", workload.name());
    for (name, value, _) in &outcome.metrics {
        assert!(*value > 0.0, "{}: {name} = {value}", workload.name());
    }
}

fn check_traced(workload: Workload) {
    let outcome = small_run(workload, true);
    let names: Vec<_> = outcome.metrics.iter().map(|m| (m.0, m.2)).collect();
    assert_eq!(names, PER_LAYER, "{}", workload.name());
    let value = |name: &str| {
        outcome
            .metrics
            .iter()
            .find(|m| m.0 == name)
            .map(|m| m.1)
            .expect("catalogued metric")
    };
    for name in named_layers(workload) {
        assert!(
            value(name) > 0.0,
            "{}: {name} not populated",
            workload.name()
        );
    }
    assert_eq!(outcome.stage_sum_violations, 0, "{}", workload.name());
    let share = value("trace.layer_sum_share");
    assert!(
        (0.95..=1.0).contains(&share),
        "{}: layers cover {share}",
        workload.name()
    );
    let spans = outcome.spans.expect("traced runs keep spans");
    assert!(spans.spans().iter().any(|s| s.name == "request"));
}

#[test]
fn identify_shape() {
    check_untraced(Workload::Identify100k);
    check_traced(Workload::Identify100k);
}

#[test]
fn ingest_shape() {
    check_untraced(Workload::Ingest10k);
    check_traced(Workload::Ingest10k);
}

#[test]
fn routed_shape() {
    check_untraced(Workload::RoutedMixed10k);
    check_traced(Workload::RoutedMixed10k);
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json = pc_telemetry::parse_json(&text).expect("valid JSON");
    let obj = json.as_object().expect("an object");
    let list = |key: &str| -> Vec<(String, String)> {
        obj.get(key)
            .and_then(JsonValue::as_array)
            .expect("a metric list")
            .iter()
            .map(|m| {
                let m = m.as_object().expect("metric object");
                let s = |k: &str| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
        c.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(list("end_to_end"), own(END_TO_END));
    assert_eq!(list("per_layer"), own(PER_LAYER));
    let workloads: Vec<&str> = obj
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.as_object()
                .and_then(|o| o.get("name"))
                .and_then(JsonValue::as_str)
                .expect("name")
        })
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}
