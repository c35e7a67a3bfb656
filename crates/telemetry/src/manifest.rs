//! Reproducible run manifests.
//!
//! A [`RunManifest`] is the machine-readable record of one experiment run:
//! what was run (experiment name, toolkit version, git revision), how it was
//! parameterized (seed, knobs), what happened (how much each counter grew
//! since the manifest was started, span summaries), and how long it took
//! (per-phase wall clock).
//!
//! Reproducibility contract: two runs of the same binary with the same seed
//! produce manifests that are **byte-identical outside the `"timing"`
//! section** — every nondeterministic field (timestamps, durations, span
//! summaries) lives under `"timing"`, everything else is a pure function of
//! the run's inputs. [`RunManifest::deterministic_json`] returns the
//! comparable portion directly.

use crate::json::{JsonObject, JsonValue};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::process::Command;
use std::sync::OnceLock;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Manifest schema identifier, bumped on breaking layout changes.
pub const SCHEMA: &str = "pc-telemetry/manifest/v1";

/// Builder/record for one run's manifest.
#[derive(Debug)]
pub struct RunManifest {
    experiment: String,
    seed: Option<u64>,
    analysis: Option<(String, String)>,
    kernels: Option<(u64, String)>,
    knobs: JsonObject,
    /// The global collector's counters when the manifest was started, so a
    /// process that runs several experiments reports each one's own counts.
    counters_at_start: BTreeMap<String, u64>,
    phases: Vec<(String, f64)>,
    open_phase: Option<(String, Instant)>,
    started_unix_ms: u64,
    t0: Instant,
}

impl RunManifest {
    /// Starts a manifest for `experiment`; the total wall clock runs from
    /// this call, and so do the counter growths it reports.
    pub fn new(experiment: &str) -> Self {
        Self {
            experiment: experiment.to_string(),
            seed: None,
            analysis: None,
            kernels: None,
            knobs: JsonObject::new(),
            counters_at_start: crate::global()
                .map(|collector| collector.counters_snapshot())
                .unwrap_or_default(),
            phases: Vec::new(),
            open_phase: None,
            started_unix_ms: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0),
            t0: Instant::now(),
        }
    }

    /// Records the run's master seed.
    pub fn set_seed(&mut self, seed: u64) -> &mut Self {
        self.seed = Some(seed);
        self
    }

    /// Records the static-analysis provenance of the producing tree:
    /// the `pc-analyze` version and its verdict (`"clean"`, `"dirty:N"`, or
    /// `"unavailable"`). Deterministic for a given tree, so it lives in the
    /// comparable portion of the manifest.
    pub fn set_analysis(&mut self, version: &str, status: &str) -> &mut Self {
        self.analysis = Some((version.to_string(), status.to_string()));
        self
    }

    /// Records the compute-kernel provenance of the run: the thread budget
    /// bulk kernel calls may use (`PC_KERNEL_THREADS`, else the machine's
    /// available parallelism) and which SIMD tier the popcount kernels
    /// dispatched to (`"avx2+popcnt"` or `"portable-u64x4"`). Fixed for a given machine
    /// and environment, so it lives in the comparable portion — results
    /// never depend on it (kernels are bit-for-bit across tiers and thread
    /// counts), but a perf regression in an archived manifest needs it.
    pub fn set_kernels(&mut self, threads: u64, simd: &str) -> &mut Self {
        self.kernels = Some((threads, simd.to_string()));
        self
    }

    /// Records one configuration knob. Call order fixes JSON field order, so
    /// call deterministically.
    pub fn knob(&mut self, key: &str, value: impl Into<JsonValue>) -> &mut Self {
        self.knobs.set(key, value);
        self
    }

    /// Closes any open phase and starts timing a new one.
    pub fn begin_phase(&mut self, name: &str) -> &mut Self {
        self.end_phase();
        self.open_phase = Some((name.to_string(), Instant::now()));
        self
    }

    /// Closes the open phase, if any, recording its wall clock.
    pub fn end_phase(&mut self) -> &mut Self {
        if let Some((name, start)) = self.open_phase.take() {
            self.phases
                .push((name, start.elapsed().as_secs_f64() * 1e3));
        }
        self
    }

    /// The deterministic portion of the manifest: everything except
    /// `"timing"`. Byte-identical across same-seed runs. `"counters"` holds
    /// how much each counter grew since [`RunManifest::new`]: a counter
    /// registered since then counts from zero, and one that existed then
    /// but did not move is left out.
    pub fn deterministic_json(&self) -> JsonObject {
        let mut obj = JsonObject::new();
        obj.set("schema", SCHEMA);
        obj.set("experiment", self.experiment.as_str());
        obj.set("toolkit_version", env!("CARGO_PKG_VERSION"));
        obj.set("git", git_describe());
        match self.seed {
            Some(seed) => obj.set("seed", seed),
            None => obj.set("seed", JsonValue::Null),
        };
        match &self.analysis {
            Some((version, status)) => {
                let mut analysis = JsonObject::new();
                analysis.set("analyzer_version", version.as_str());
                analysis.set("status", status.as_str());
                obj.set("analysis", analysis);
            }
            None => {
                obj.set("analysis", JsonValue::Null);
            }
        }
        match &self.kernels {
            Some((threads, simd)) => {
                let mut kernels = JsonObject::new();
                kernels.set("threads", *threads);
                kernels.set("simd", simd.as_str());
                obj.set("kernels", kernels);
            }
            None => {
                obj.set("kernels", JsonValue::Null);
            }
        }
        obj.set("knobs", self.knobs.clone());
        let mut counters = JsonObject::new();
        if let Some(collector) = crate::global() {
            for (name, value) in collector.counters_snapshot() {
                let start = self.counters_at_start.get(&name).copied();
                if start != Some(value) {
                    counters.set(&name, value - start.unwrap_or(0));
                }
            }
        }
        obj.set("counters", counters);
        obj
    }

    /// The full manifest, deterministic fields first, then `"timing"`
    /// (timestamps, per-phase wall clock, span summaries).
    pub fn to_json(&self) -> JsonObject {
        let mut obj = self.deterministic_json();
        let mut timing = JsonObject::new();
        timing.set("started_unix_ms", self.started_unix_ms);
        timing.set("total_ms", self.t0.elapsed().as_secs_f64() * 1e3);
        let mut phases = Vec::new();
        let open = self
            .open_phase
            .as_ref()
            .map(|(name, start)| (name.clone(), start.elapsed().as_secs_f64() * 1e3));
        for (name, wall_ms) in self.phases.iter().cloned().chain(open) {
            let mut p = JsonObject::new();
            p.set("name", name);
            p.set("wall_ms", wall_ms);
            phases.push(JsonValue::Object(p));
        }
        timing.set("phases", phases);
        let mut spans = JsonObject::new();
        if let Some(collector) = crate::global() {
            for (name, snapshot) in collector.spans_snapshot() {
                spans.set(&name, snapshot.summary_json());
            }
        }
        timing.set("spans_ns", spans);
        obj.set("timing", timing);
        obj
    }

    /// Closes any open phase and writes the manifest (pretty JSON) to
    /// `path`, creating parent directories as needed.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write(&mut self, path: &Path) -> io::Result<()> {
        self.end_phase();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_json().to_pretty())
    }
}

/// `git describe --always --dirty` for the working tree, cached per process;
/// `"unknown"` outside a repository or without git.
pub fn git_describe() -> &'static str {
    static DESCRIBE: OnceLock<String> = OnceLock::new();
    DESCRIBE.get_or_init(|| {
        Command::new("git")
            .args(["describe", "--always", "--dirty"])
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, PoisonError};

    /// Serializes the tests that read the process-wide counters against the
    /// one that bumps them.
    static COUNTERS: Mutex<()> = Mutex::new(());

    fn build(seed: u64) -> RunManifest {
        let mut m = RunManifest::new("unit");
        m.set_seed(seed);
        m.knob("chips", 5u64).knob("scale", "1/16");
        m.begin_phase("fingerprint");
        m.begin_phase("identify");
        m.end_phase();
        m
    }

    #[test]
    fn deterministic_portion_is_byte_identical_across_runs() {
        let _counters = COUNTERS.lock().unwrap_or_else(PoisonError::into_inner);
        let a = build(7).deterministic_json().to_pretty();
        let b = build(7).deterministic_json().to_pretty();
        assert_eq!(a, b);
    }

    #[test]
    fn timing_is_the_only_nondeterministic_section() {
        let _counters = COUNTERS.lock().unwrap_or_else(PoisonError::into_inner);
        let mut full = build(7).to_json();
        assert!(full.get("timing").is_some());
        full.remove("timing");
        assert_eq!(full.to_pretty(), build(7).deterministic_json().to_pretty());
    }

    #[test]
    fn counters_report_growth_since_the_manifest_started() {
        let _counters = COUNTERS.lock().unwrap_or_else(PoisonError::into_inner);
        crate::install();
        crate::counter!("manifest_test.before_and_during").add(5);
        let m = RunManifest::new("unit");
        crate::counter!("manifest_test.before_and_during").add(3);
        crate::counter!("manifest_test.during_only").add(2);
        let json = m.deterministic_json();
        let counters = match json.get("counters") {
            Some(JsonValue::Object(counters)) => counters.clone(),
            other => panic!("counters section missing: {other:?}"),
        };
        let mut want = JsonObject::new();
        want.set("manifest_test.before_and_during", 3u64);
        want.set("manifest_test.during_only", 2u64);
        assert_eq!(counters.to_pretty(), want.to_pretty());
    }

    #[test]
    fn phases_are_recorded_in_order() {
        let m = build(7);
        let json = m.to_json().to_pretty();
        let fp = json.find("fingerprint").expect("fingerprint phase present");
        let id = json.find("identify").expect("identify phase present");
        assert!(fp < id, "phases out of order in {json}");
    }
}
