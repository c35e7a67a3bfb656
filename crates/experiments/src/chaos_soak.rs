//! Extension experiment: chaos soak of the `pc-service` stack under
//! deterministic fault injection.
//!
//! Seeds a server with a fingerprint database, then arms a seeded
//! [`pc_faults`] plan that tears connections (`wire.read` / `wire.write`)
//! and panics identify scoring (`store.score`) at a combined rate above
//! 10%. Concurrent clients drive
//! identify + characterize load through the storm, retrying and reconnecting
//! as real clients would. The experiment then tears a checkpoint save in
//! half (`persist.write`) — the in-process stand-in for `kill -9` mid-save —
//! and restarts from disk.
//!
//! Invariants asserted (a violation fails the run):
//!
//! - **Zero acknowledged-write loss**: every characterize the clients saw
//!   acknowledged is present after recovery.
//! - **Torn saves are invisible**: the database file is byte-identical to
//!   the last completed checkpoint after a save dies mid-write.
//! - **Availability**: at least 99% of attempts that no fault touched
//!   succeed (here: all of them — organic failures are zero).
//! - **Scoring panics neither deadlock the pool nor kill the server**: the
//!   panic counter shows scoring panicked while requests kept being
//!   answered.

use crate::report::{artifact_dir, Report};
use pc_faults::{self as faults, FaultPlan};
use pc_service::protocol::{Request, Response};
use pc_service::server::{self, ServerConfig};
use pc_service::store::StoreConfig;
use pc_service::{ClientError, ServiceClient};
use probable_cause::ErrorString;
use std::collections::BTreeSet;
use std::io;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const SIZE: u64 = 32_768;
const CHIPS: u64 = 32;
const CLIENTS: u64 = 4;
const REQUESTS_PER_CLIENT: u64 = 60;
const MAX_ATTEMPTS: u32 = 40;
const THRESHOLD: f64 = 0.3;

/// The storm: combined per-request injection rate ≈ 12% (wire.read fires on
/// each request frame read, wire.write on each response, and
/// store.score on each identify, half the requests), above the 10% floor
/// the experiment promises.
const SOAK_PLAN: &str = "seed=42;wire.read=p0.06;wire.write=p0.04;store.score=p0.04";

/// Disarms the global fault plan even if the experiment panics mid-storm:
/// the registry is process-wide, and a leaked plan would poison every later
/// test in the same binary.
struct Armed;

impl Armed {
    fn install(spec: &str) -> io::Result<Self> {
        let plan = FaultPlan::parse(spec)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        faults::install(plan);
        Ok(Armed)
    }
}

impl Drop for Armed {
    fn drop(&mut self) {
        faults::uninstall();
    }
}

fn es(bits: Vec<u64>) -> ErrorString {
    ErrorString::from_sorted(bits, SIZE).expect("sorted in-range bits")
}

fn chip_bits(c: u64) -> Vec<u64> {
    (0..60).map(|i| c * 60 + i).collect()
}

fn device_bits(t: u64, i: u64) -> Vec<u64> {
    (0..50).map(|k| 8_000 + (t * 100 + i) * 60 + k).collect()
}

/// Whether a failed attempt was caused by the armed plan.
///
/// Transport errors are injected by construction here — the only thing
/// tearing connections is `wire.read`/`wire.write` (and the collateral
/// failures on a torn connection's remaining in-flight calls). Server-side
/// errors are injected when they carry the `injected fault at` marker or
/// report a panic, which only `store.score` causes in this run.
fn is_injected_failure(outcome: &Result<Response, ClientError>) -> bool {
    match outcome {
        Err(ClientError::Codec(_)) => true,
        Err(ClientError::ConnectionError { message }) | Ok(Response::Error { message }) => {
            faults::is_injected_message(message) || message.contains("panicked")
        }
        _ => false,
    }
}

struct ClientTally {
    acknowledged: Vec<String>,
    attempts: u64,
    injected: u64,
    organic_failures: u64,
}

/// One client's slice of the storm: alternating identify / characterize,
/// each logical request retried (reconnecting after transport faults) until
/// it succeeds or `MAX_ATTEMPTS` is spent.
fn chaos_client(addr: SocketAddr, t: u64, retries: Arc<AtomicU64>) -> Result<ClientTally, String> {
    let mut client = ServiceClient::connect(addr).map_err(|e| e.to_string())?;
    let mut tally = ClientTally {
        acknowledged: Vec::new(),
        attempts: 0,
        injected: 0,
        organic_failures: 0,
    };
    for i in 0..REQUESTS_PER_CLIENT {
        let (request, want_label) = if i % 4 == 3 {
            let label = format!("dev-{t}-{i:03}");
            (
                Request::Characterize {
                    label: label.clone(),
                    errors: es(device_bits(t, i)),
                },
                Some(label),
            )
        } else {
            (
                Request::Identify {
                    errors: es(chip_bits((t * 13 + i) % CHIPS)),
                },
                None,
            )
        };
        let mut done = false;
        for attempt in 0..MAX_ATTEMPTS {
            if attempt > 0 {
                retries.fetch_add(1, Ordering::Relaxed);
            }
            tally.attempts += 1;
            let outcome = client.call_retrying(&request, 50);
            match &outcome {
                Ok(Response::Match { .. }) | Ok(Response::Characterized { .. }) => {
                    if let Some(label) = &want_label {
                        // Only responses the client actually saw count as
                        // acknowledged — that is the loss invariant.
                        tally.acknowledged.push(label.clone());
                    }
                    done = true;
                }
                _ if is_injected_failure(&outcome) => {
                    tally.injected += 1;
                    if outcome.is_err() {
                        // The server tore this connection down; a fresh one
                        // is the only way forward.
                        client = ServiceClient::connect(addr).map_err(|e| e.to_string())?;
                    }
                }
                _ => {
                    // A failure no fault explains — it counts against
                    // availability, and the request still gets its retries.
                    tally.organic_failures += 1;
                    if outcome.is_err() {
                        client = ServiceClient::connect(addr).map_err(|e| e.to_string())?;
                    }
                }
            }
            if done {
                break;
            }
        }
        if !done {
            return Err(format!("request starved after {MAX_ATTEMPTS} attempts"));
        }
    }
    Ok(tally)
}

fn fail(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

fn call(client: &mut ServiceClient, request: &Request) -> io::Result<Response> {
    client.call_retrying(request, 50).map_err(io::Error::other)
}

/// Runs the chaos soak; artifacts (db, index, checkpoint copies) land under
/// `out`.
///
/// # Errors
///
/// Any violated invariant, plus ordinary server/filesystem failures.
pub fn run(out: &Path) -> io::Result<String> {
    let dir = artifact_dir(out, "chaos_soak")?;
    let db_path = dir.join("db.txt");
    let index_path = dir.join("index.txt");
    let _ = std::fs::remove_file(&db_path);
    let _ = std::fs::remove_file(&index_path);

    let config = ServerConfig {
        store: StoreConfig {
            threshold: THRESHOLD,
            ..StoreConfig::default()
        },
        queue_capacity: 64,
        retry_after_ms: 1,
        db_path: Some(db_path.clone()),
        index_path: Some(index_path.clone()),
        ..ServerConfig::default()
    };
    let handle = server::start(config.clone())?;
    let addr = handle.local_addr();

    // Seed in calm weather; the storm starts only once the baseline exists.
    let mut setup = ServiceClient::connect(addr)?;
    for c in 0..CHIPS {
        call(
            &mut setup,
            &Request::Characterize {
                label: format!("chip-{c:03}"),
                errors: es(chip_bits(c)),
            },
        )?;
    }

    // pc-allow: D002 — soak throughput is a wall-clock measurement
    let started = Instant::now();
    let retries = Arc::new(AtomicU64::new(0));
    let storm = Armed::install(SOAK_PLAN)?;
    let workers: Vec<_> = (0..CLIENTS)
        .map(|t| {
            let retries = Arc::clone(&retries);
            std::thread::spawn(move || chaos_client(addr, t, retries))
        })
        .collect();

    let mut acknowledged: BTreeSet<String> = BTreeSet::new();
    let (mut attempts, mut injected, mut organic) = (0u64, 0u64, 0u64);
    for w in workers {
        let tally = w
            .join()
            .map_err(|_| io::Error::other("chaos client panicked"))?
            .map_err(io::Error::other)?;
        acknowledged.extend(tally.acknowledged);
        attempts += tally.attempts;
        injected += tally.injected;
        organic += tally.organic_failures;
    }
    drop(storm);
    let elapsed = started.elapsed();

    let clean_attempts = attempts - injected;
    let availability = (clean_attempts - organic) as f64 / clean_attempts.max(1) as f64;
    if availability < 0.99 {
        return Err(fail(format!(
            "availability {availability:.4} below 0.99 over {clean_attempts} clean attempts"
        )));
    }
    let injected_rate = injected as f64 / attempts as f64;

    // The setup connection may have been torn by the storm too.
    let mut probe = ServiceClient::connect(addr)?;
    let stats = match call(&mut probe, &Request::Stats)? {
        Response::Stats(s) => s,
        other => return Err(fail(format!("expected stats, got {other:?}"))),
    };
    if stats.worker_panics == 0 {
        return Err(fail(
            "no worker panics: store.score faults never exercised the containment".into(),
        ));
    }

    // Checkpoint cleanly, then tear the next save in half: the primary file
    // must stay byte-identical to this checkpoint.
    let checkpointed = match call(&mut probe, &Request::Save)? {
        Response::Saved { fingerprints } => fingerprints,
        other => return Err(fail(format!("expected saved, got {other:?}"))),
    };
    let acked_image = std::fs::read(&db_path)?;
    std::fs::write(dir.join("db.acked.txt"), &acked_image)?;

    call(
        &mut probe,
        &Request::Characterize {
            label: "late-arrival".into(),
            errors: es((0..60).map(|i| 30_000 + i).collect()),
        },
    )?;
    let torn = Armed::install("seed=7;persist.write=n1")?;
    match call(&mut probe, &Request::Save)? {
        Response::Error { message } if faults::is_injected_message(&message) => {}
        other => {
            return Err(fail(format!(
                "torn save should fail injected, got {other:?}"
            )))
        }
    }
    drop(torn);
    if std::fs::read(&db_path)? != acked_image {
        return Err(fail("torn save mutated the primary database file".into()));
    }

    // A clean save now lands the late arrival; shutdown persists atomically.
    match call(&mut probe, &Request::Save)? {
        Response::Saved { .. } => {}
        other => return Err(fail(format!("clean save failed: {other:?}"))),
    }
    call(&mut probe, &Request::Shutdown)?;
    handle.wait()?;

    // Restart from disk: every acknowledged write must have survived.
    let reborn = server::start(config)?;
    let mut verify = ServiceClient::connect(reborn.local_addr())?;
    let restored = reborn.store().len() as u64;
    let mut lost = 0u64;
    for label in acknowledged
        .iter()
        .chain(std::iter::once(&"late-arrival".to_string()))
    {
        // Re-characterizing an existing label refines it (created=false);
        // created=true would mean the write was lost.
        let errors = if label == "late-arrival" {
            es((0..60).map(|i| 30_000 + i).collect())
        } else {
            let (t, i) =
                parse_dev_label(label).ok_or_else(|| fail(format!("bad label {label}")))?;
            es(device_bits(t, i))
        };
        match call(
            &mut verify,
            &Request::Characterize {
                label: label.clone(),
                errors,
            },
        )? {
            Response::Characterized { created: false, .. } => {}
            Response::Characterized { created: true, .. } => lost += 1,
            other => return Err(fail(format!("expected characterized, got {other:?}"))),
        }
    }
    if lost > 0 {
        return Err(fail(format!(
            "{lost} acknowledged write(s) missing after recovery"
        )));
    }
    let reidentified = matches!(
        call(
            &mut verify,
            &Request::Identify {
                errors: es(chip_bits(CHIPS / 2))
            }
        )?,
        Response::Match { .. }
    );
    if !reidentified {
        return Err(fail("re-identification failed after recovery".into()));
    }
    call(&mut verify, &Request::Shutdown)?;
    reborn.wait()?;

    let mut r = Report::new("pc-service chaos soak: fault injection across the serving stack");
    r.section("storm");
    r.kv("fault plan", SOAK_PLAN);
    r.kv("client threads", CLIENTS);
    r.kv("logical requests", CLIENTS * REQUESTS_PER_CLIENT);
    r.kv("attempts", attempts);
    r.kv("injected failures", injected);
    r.kv("injected rate", format!("{:.1}%", injected_rate * 100.0));
    r.kv("retries", retries.load(Ordering::Relaxed));
    r.kv("wall clock", format!("{elapsed:.2?}"));
    r.section("containment");
    r.kv("worker panics", stats.worker_panics);
    r.kv("organic failures", organic);
    r.kv(
        "availability (non-injected)",
        format!("{:.4}", availability),
    );
    r.section("durability");
    r.kv("checkpointed fingerprints", checkpointed);
    r.kv("torn save left primary byte-identical", "yes");
    r.kv("acknowledged writes", acknowledged.len() as u64 + 1);
    r.kv("acknowledged writes lost", lost);
    r.kv("fingerprints after restart", restored);
    r.kv("re-identification after restart", "ok");
    r.kv("artifacts", dir.display());
    Ok(r.finish())
}

/// Recovers `(t, i)` from a `dev-{t}-{i:03}` label.
fn parse_dev_label(label: &str) -> Option<(u64, u64)> {
    let rest = label.strip_prefix("dev-")?;
    let (t, i) = rest.split_once('-')?;
    Some((t.parse().ok()?, i.parse().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_soak_holds_its_invariants() {
        // The fault registry is process-wide: serialize against the other
        // soak so injected faults never leak into its strict accounting.
        let _serial = crate::soak_serial()
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        let dir = std::env::temp_dir().join(format!("pc-chaos-soak-{}", std::process::id()));
        let report = run(&dir).expect("chaos soak succeeds");
        assert!(report.contains("torn save left primary byte-identical"));
        assert!(report.contains("acknowledged writes lost"));
        assert!(!report.contains("FAILED"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
