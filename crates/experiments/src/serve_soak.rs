//! Extension experiment: a soak of the `pc-service` identification server.
//!
//! Boots a real TCP server on an ephemeral port over a database of
//! synthetic chips, fires a mixed identify / cluster-ingest load from
//! concurrent client connections (with a deliberately small submission
//! queue so `busy` backpressure is exercised), then shuts down gracefully
//! and restarts from the persisted database + routing index. Reported: load
//! accounting (responses, retries, rejected-vs-observed agreement), per-op
//! latency quantiles from the server's tracer (also written as
//! `BENCH_serving.json`, path overridable via `PC_BENCH_SERVING_OUT`), the
//! LSH pruning factor actually paid on the serving path, and the two
//! durability checks (drain answered everything; restart is byte-identical).

use crate::report::{artifact_dir, Report};
use pc_service::protocol::{Request, Response};
use pc_service::server::{self, ServerConfig};
use pc_service::store::StoreConfig;
use pc_service::ServiceClient;
use probable_cause::{persistence, ErrorString};
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

const SIZE: u64 = 32_768;
const CHIPS: u64 = 64;
const CLIENTS: u64 = 6;
const REQUESTS_PER_CLIENT: u64 = 50;
const DEVICES: u64 = 4;
const THRESHOLD: f64 = 0.3;

/// Renders nanoseconds at a human scale for the report.
fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=9_999 => format!("{ns}ns"),
        10_000..=9_999_999 => format!("{}µs", ns / 1_000),
        10_000_000..=9_999_999_999 => format!("{}ms", ns / 1_000_000),
        _ => format!("{}s", ns / 1_000_000_000),
    }
}

fn es(bits: Vec<u64>) -> ErrorString {
    ErrorString::from_sorted(bits, SIZE).expect("sorted in-range bits")
}

fn chip_bits(c: u64) -> Vec<u64> {
    (0..60).map(|i| c * 60 + i).collect()
}

fn device_output(d: u64, noise: u64) -> ErrorString {
    let mut bits: Vec<u64> = (0..50).map(|i| 10_000 + d * 200 + i).collect();
    bits.push(20_000 + (d * 131 + noise * 17) % 5_000);
    bits.sort_unstable();
    es(bits)
}

/// Runs the soak; artifacts (persisted db + index) land under `out`.
///
/// # Errors
///
/// Propagates server and filesystem failures; load anomalies (a lost
/// response, accounting drift) are reported as `InvalidData`.
pub fn run(out: &Path) -> io::Result<String> {
    let dir = artifact_dir(out, "serve_soak")?;
    let db_path = dir.join("db.txt");
    let index_path = dir.join("index.txt");
    // A fresh soak every run: stale state would skew the accounting, and
    // the loader falls back to a backup when the primary is missing.
    for path in [&db_path, &index_path] {
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(persistence::bak_path(path));
    }

    let config = ServerConfig {
        store: StoreConfig {
            threshold: THRESHOLD,
            ..StoreConfig::default()
        },
        queue_capacity: 8,
        retry_after_ms: 1,
        db_path: Some(db_path.clone()),
        index_path: Some(index_path.clone()),
        ..ServerConfig::default()
    };
    let handle = server::start(config.clone())?;
    let addr = handle.local_addr();

    let mut setup = ServiceClient::connect(addr)?;
    for c in 0..CHIPS {
        setup
            .call(&Request::Characterize {
                label: format!("chip-{c:03}"),
                errors: es(chip_bits(c)),
            })
            .map_err(io::Error::other)?;
    }

    // pc-allow: D002 — soak throughput is a wall-clock measurement
    let started = Instant::now();
    let workers: Vec<_> = (0..CLIENTS)
        .map(|t| {
            std::thread::spawn(move || -> Result<(u64, u64, u64), String> {
                let mut client = ServiceClient::connect(addr).map_err(|e| e.to_string())?;
                let (mut matches, mut ingests, mut busy) = (0u64, 0u64, 0u64);
                for i in 0..REQUESTS_PER_CLIENT {
                    let request = if (t + i) % 2 == 0 {
                        Request::Identify {
                            errors: es(chip_bits((t * 11 + i) % CHIPS)),
                        }
                    } else {
                        Request::ClusterIngest {
                            // `t*2 + i` decouples device parity from the
                            // identify/ingest alternation, so all DEVICES appear.
                            errors: device_output((t * 2 + i) % DEVICES, t * 1_000 + i),
                        }
                    };
                    loop {
                        match client.call(&request).map_err(|e| e.to_string())? {
                            Response::Busy { retry_after_ms } => {
                                busy += 1;
                                std::thread::sleep(Duration::from_millis(retry_after_ms));
                            }
                            Response::Match { .. } => {
                                matches += 1;
                                break;
                            }
                            Response::Clustered { .. } => {
                                ingests += 1;
                                break;
                            }
                            other => return Err(format!("unexpected response {other:?}")),
                        }
                    }
                }
                Ok((matches, ingests, busy))
            })
        })
        .collect();

    let (mut matches, mut ingests, mut busy) = (0u64, 0u64, 0u64);
    for w in workers {
        let (m, c, b) = w
            .join()
            .map_err(|_| io::Error::other("soak client panicked"))?
            .map_err(io::Error::other)?;
        matches += m;
        ingests += c;
        busy += b;
    }
    let elapsed = started.elapsed();

    let stats = match setup.call(&Request::Stats).map_err(io::Error::other)? {
        Response::Stats(s) => s,
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected stats, got {other:?}"),
            ))
        }
    };
    let total = CLIENTS * REQUESTS_PER_CLIENT;
    if matches + ingests != total {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("lost responses: {matches} + {ingests} != {total}"),
        ));
    }
    if stats.rejected != busy {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "accounting drift: server rejected {} but clients saw {busy} busy",
                stats.rejected
            ),
        ));
    }

    // What a linear scan would have paid for the identifies alone, vs the
    // full evaluations actually performed (identify + cluster matching).
    let linear_would_pay = matches * CHIPS;
    let pruning = linear_would_pay as f64 / stats.distance_evals.max(1) as f64;

    // Per-op latency quantiles from the tracer, captured before shutdown so
    // they cover the whole soak. Written as `BENCH_serving.json` — the
    // machine-readable serving-latency record (path overridable via
    // `PC_BENCH_SERVING_OUT`).
    let metrics = match setup.call(&Request::Metrics).map_err(io::Error::other)? {
        Response::Metrics(m) => m,
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected metrics, got {other:?}"),
            ))
        }
    };
    for required in ["identify", "characterize", "cluster-ingest"] {
        if !metrics
            .ops
            .iter()
            .any(|o| o.op == required && o.count > 0 && o.p50_ns > 0)
        {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("metrics missing a populated `{required}` latency row"),
            ));
        }
    }
    let bench_path = std::env::var("PC_BENCH_SERVING_OUT")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| dir.join("BENCH_serving.json"));
    let rows: Vec<String> = metrics
        .ops
        .iter()
        .map(|o| {
            format!(
                "    {{ \"op\": \"{}\", \"count\": {}, \"p50_ns\": {}, \"p90_ns\": {}, \
                 \"p99_ns\": {}, \"max_ns\": {} }}",
                o.op, o.count, o.p50_ns, o.p90_ns, o.p99_ns, o.max_ns
            )
        })
        .collect();
    let bench_json = format!(
        "{{\n  \"bench\": \"serving\",\n  \"chips\": {CHIPS},\n  \"clients\": {CLIENTS},\n  \
         \"requests_per_client\": {REQUESTS_PER_CLIENT},\n  \"wall_ms\": {},\n  \"ops\": [\n{}\n  ],\n  \
         \"queue_depth\": {},\n  \"slow_requests\": {}\n}}\n",
        elapsed.as_millis(),
        rows.join(",\n"),
        metrics.queue_depth,
        metrics.slow_requests,
    );
    std::fs::write(&bench_path, &bench_json)?;

    setup.call(&Request::Shutdown).map_err(io::Error::other)?;
    handle.wait()?;
    let db_bytes = std::fs::read(&db_path)?;
    let index_bytes = std::fs::read(&index_path)?;

    // Restart from the persisted pair; a clean shutdown must re-persist
    // byte-identically.
    let reborn = server::start(config)?;
    let restored = reborn.store().len() as u64;
    let mut probe = ServiceClient::connect(reborn.local_addr())?;
    let reidentified = matches!(
        probe
            .call(&Request::Identify {
                errors: es(chip_bits(CHIPS / 2))
            })
            .map_err(io::Error::other)?,
        Response::Match { .. }
    );
    probe.call(&Request::Shutdown).map_err(io::Error::other)?;
    reborn.wait()?;
    let byte_identical =
        db_bytes == std::fs::read(&db_path)? && index_bytes == std::fs::read(&index_path)?;

    let mut r = Report::new("pc-service soak: concurrent serving over the fingerprint DB");
    r.section("load");
    r.kv("chips in database", CHIPS);
    r.kv("client threads", CLIENTS);
    r.kv("requests per client", REQUESTS_PER_CLIENT);
    r.kv("identify matches", matches);
    r.kv("cluster ingests", ingests);
    r.kv("busy retries (client-observed)", busy);
    r.kv("busy rejections (server-counted)", stats.rejected);
    r.kv("admitted jobs", stats.admitted);
    r.kv("clusters formed", stats.clusters);
    r.kv("wall clock", format!("{:.2?}", elapsed));
    r.section("serving latency");
    for o in &metrics.ops {
        r.kv(
            &format!("{} p50 / p99 / max", o.op),
            format!(
                "{} / {} / {} ({} requests)",
                fmt_ns(o.p50_ns),
                fmt_ns(o.p99_ns),
                fmt_ns(o.max_ns),
                o.count
            ),
        );
    }
    r.kv("slow requests over threshold", metrics.slow_requests);
    r.kv("serving bench record", bench_path.display());
    r.section("index routing");
    r.kv("full distance evaluations paid", stats.distance_evals);
    r.kv("linear scan would have paid (identify)", linear_would_pay);
    r.kv("effective pruning factor", format!("{pruning:.1}x"));
    r.section("durability");
    r.kv("drain answered every request", "yes");
    r.kv("fingerprints after restart", restored);
    r.kv(
        "re-identification after restart",
        if reidentified { "ok" } else { "FAILED" },
    );
    r.kv(
        "persisted files byte-identical",
        if byte_identical { "yes" } else { "NO" },
    );
    r.kv("artifacts", dir.display());
    Ok(r.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soak_runs_clean() {
        // Hold the registry lock so a concurrently-running chaos_soak test
        // cannot inject faults into this soak's strict accounting.
        let _serial = crate::soak_serial()
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        let dir = std::env::temp_dir().join(format!("pc-serve-soak-{}", std::process::id()));
        let report = run(&dir).expect("soak succeeds");
        assert!(report.contains("drain answered every request"));
        assert!(report.contains("byte-identical"));
        assert!(report.contains("identify p50 / p99 / max"));
        assert!(report.contains("serving bench record"));
        assert!(!report.contains("FAILED"));
        assert!(!report.contains(" NO\n"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
