//! `pc-e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Run from the repository root. Builds the shipped `pc` binary, runs one
//! workload, prints the run record and every metric with its unit, and ends
//! with one JSON line: `{"correct", "attempted", "failed", "metrics"}`.
//! Exit status: 0 when every answer matched its oracle, 1 on a mismatch,
//! 2 when the run could not be made.

use pc_e2ebench::cluster::Launcher;
use pc_e2ebench::load::OPS;
use pc_e2ebench::workload::{self, RunConfig, Workload};
use pc_telemetry::JsonObject;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// Scratch space inside the checkout: persisted files, run records, spans.
const WORK_ROOT: &str = ".e2ebench-work";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let name = value("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?}; one of {names:?}")
    })?;
    let seed = value("--seed")?.parse().map_err(|_| "bad --seed")?;
    let seconds: f64 = value("--seconds")?.parse().map_err(|_| "bad --seconds")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Builds `pc` from the checkout and returns its path.
fn build_pc() -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--quiet",
            "--bin",
            "pc",
            "--manifest-path",
            "Cargo.toml",
        ])
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building pc failed ({status})"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let bin = target.join("release").join("pc");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} missing after the build", bin.display()))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pc-e2ebench: {e}");
            eprintln!(
                "usage: pc-e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let bin = match build_pc() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("pc-e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    let work_dir = PathBuf::from(WORK_ROOT).join(format!("{name}-{}", std::process::id()));
    let cfg = RunConfig {
        workload: args.workload,
        shape: args.workload.shape(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work_dir: work_dir.clone(),
        launcher: Launcher::Binary(bin),
    };
    let result = workload::run(&cfg);
    let _ = std::fs::remove_dir_all(&work_dir);
    let (outcome, timed) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pc-e2ebench: {name}: {e}");
            return ExitCode::from(2);
        }
    };

    let record_path = PathBuf::from(WORK_ROOT).join(format!("{name}-record.json"));
    let _ = std::fs::write(&record_path, outcome.record.to_pretty());
    println!("run record: {}", outcome.record.to_compact());
    if let Some(t) = &timed {
        for (op, p50, p99, n) in workload::op_latencies(t) {
            println!("{op:<10} p50 {p50:.3} ms  p99 {p99:.3} ms  ({n} samples)");
        }
        println!("answers per window slice: {:?}", t.completed);
        for (op, c) in OPS.iter().zip(&t.counts) {
            if c.sent > 0 {
                println!(
                    "{op:<15} sent {} ok {} busy {} error {}",
                    c.sent, c.ok, c.busy, c.error
                );
            }
        }
    }
    if let Some(spans) = &outcome.spans {
        let path = PathBuf::from(WORK_ROOT).join(format!("{name}-spans.jsonl"));
        if let Err(e) = spans.write_jsonl(&path) {
            eprintln!("pc-e2ebench: writing spans: {e}");
        }
        println!(
            "server stage-sum violations: {}",
            outcome.stage_sum_violations
        );
    }
    for (metric, value, unit) in &outcome.metrics {
        println!("{metric:<36} {value:>14.4} {unit}");
    }
    for p in &outcome.problems {
        println!("CHECK FAILED: {p}");
    }

    let mut metrics = JsonObject::new();
    for &(metric, value, unit) in &outcome.metrics {
        let mut m = JsonObject::new();
        m.set("value", if value.is_finite() { value } else { 0.0 });
        m.set("unit", unit);
        metrics.set(metric, m);
    }
    let mut last = JsonObject::new();
    last.set(
        "correct",
        outcome.correct && outcome.stage_sum_violations == 0,
    );
    last.set("attempted", outcome.attempted.max(1));
    last.set("failed", outcome.failed);
    last.set("metrics", metrics);
    println!("{}", last.to_compact());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
