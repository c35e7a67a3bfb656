//! Extension experiment: ring soak — kill and restart a replica behind the
//! `pc route` tier mid-load, asserting zero acknowledged-write loss and
//! ≥ 99% identify availability.
//!
//! Three replica servers run behind one router. Client threads drive a
//! mixed identify / characterize load through the router; a third of the
//! way in, one replica is stopped **and its persistence files deleted**, so
//! the eventual restart comes back with an empty store — strictly worse
//! than a `kill -9`, which at least keeps the disk. Two thirds of the way
//! in the replica restarts on its old port; the router's prober notices,
//! replays the replica's pending-write journal, checkpoints it, and
//! reinstates it.
//!
//! The router runs in full-journal mode (`checkpoint_every: 0`): surviving
//! a disk wipe requires the journal to cover a replica's whole history,
//! whereas the bounded-memory default (auto-checkpoints) deliberately
//! hands custody of checkpointed writes to the replica's own disk.
//!
//! Invariants asserted (a violation fails the run):
//!
//! - **Zero acknowledged-write loss**: every characterize a client saw
//!   acknowledged is present on the *restarted* replica alone — even the
//!   ones written while it was dead or wiped with its disk.
//! - **Availability**: ≥ 99% of identify requests are served (failover
//!   hides the dead replica; here organic failures are zero).
//! - **Rejoin replayed the journal**: the replayed counter moved, and a
//!   post-rejoin checkpoint drains every replica's pending journal. (The
//!   failover counter is recorded, not asserted — the router usually marks
//!   the victim down so fast that reads rarely catch it mid-death.)
//!
//! The run writes `BENCH_ring.json` (path overridable via
//! `PC_BENCH_RING_OUT`) with `availability`, `failovers`, `replay_depth`,
//! and `sheds` — the machine-readable record CI archives.

use crate::report::{artifact_dir, Report};
use pc_service::protocol::{Request, Response, RingStatusBody};
use pc_service::ring::HealthPolicy;
use pc_service::router::{self, RouterConfig};
use pc_service::server::{self, ServerConfig};
use pc_service::store::StoreConfig;
use pc_service::{ConnectOptions, RetryPolicy, ServiceClient};
use probable_cause::ErrorString;
use std::collections::BTreeSet;
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SIZE: u64 = 32_768;
const CHIPS: u64 = 24;
const CLIENTS: u64 = 4;
const REPLICAS: usize = 3;
/// Which replica dies mid-load.
const VICTIM: usize = 1;
const THRESHOLD: f64 = 0.3;
/// The full load the catalogued run drives (the in-crate test scales down).
const REQUESTS: u64 = 10_000;

fn es(bits: Vec<u64>) -> ErrorString {
    ErrorString::from_sorted(bits, SIZE).expect("sorted in-range bits")
}

fn chip_bits(c: u64) -> Vec<u64> {
    (0..60).map(|i| c * 60 + i).collect()
}

/// Deterministic per-(client, request) device fingerprint, disjoint from the
/// seeded chips (which occupy bits below `CHIPS * 60`) and folded into the
/// `SIZE`-bit space — labels stay unique even when two of them share a slot.
fn device_bits(t: u64, i: u64) -> Vec<u64> {
    let slot = (t * 131 + i) % 400;
    (0..50).map(|k| 8_000 + slot * 60 + k).collect()
}

fn fail(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

fn deadline_after(secs: u64) -> Instant {
    // pc-allow: D002 — soak deadlines are wall-clock by nature
    Instant::now() + Duration::from_secs(secs)
}

fn expired(deadline: Instant) -> bool {
    // pc-allow: D002 — soak deadlines are wall-clock by nature
    Instant::now() > deadline
}

struct Tally {
    identify_attempts: u64,
    identify_served: u64,
    acknowledged: Vec<String>,
    busy: u64,
    errors: u64,
}

/// One client's slice of the load: four identifies then a characterize,
/// repeated. Transport blips redial (the client knows its peer), `busy`
/// sheds are waited out per the router's `retry_after_ms` hint.
fn soak_client(
    addr: SocketAddr,
    t: u64,
    requests: u64,
    progress: Arc<AtomicU64>,
) -> Result<Tally, String> {
    let opts = ConnectOptions::uniform(Duration::from_secs(10));
    let mut client =
        ServiceClient::connect_named(&addr.to_string(), opts).map_err(|e| e.to_string())?;
    let policy = RetryPolicy::default();
    let mut tally = Tally {
        identify_attempts: 0,
        identify_served: 0,
        acknowledged: Vec::new(),
        busy: 0,
        errors: 0,
    };
    for i in 0..requests {
        let (request, want_label) = if i % 5 == 4 {
            let label = format!("dev-{t}-{i:05}");
            (
                Request::Characterize {
                    label: label.clone(),
                    errors: es(device_bits(t, i)),
                },
                Some(label),
            )
        } else {
            tally.identify_attempts += 1;
            (
                Request::Identify {
                    errors: es(chip_bits((t * 7 + i) % CHIPS)),
                },
                None,
            )
        };
        match client.call_with_policy(&request, &policy) {
            Ok(Response::Match { .. }) | Ok(Response::NoMatch { .. }) => {
                tally.identify_served += 1;
            }
            Ok(Response::Characterized { .. }) => {
                if let Some(label) = want_label {
                    // Only an acknowledgement the client actually saw
                    // enters the loss invariant.
                    tally.acknowledged.push(label);
                }
            }
            Ok(Response::Busy { .. }) => tally.busy += 1,
            Ok(other) => return Err(format!("unexpected response {other:?}")),
            Err(e) => {
                tally.errors += 1;
                let _ = e;
            }
        }
        progress.fetch_add(1, Ordering::Relaxed);
    }
    Ok(tally)
}

fn replica_config(dir: &Path, addr: &str) -> ServerConfig {
    ServerConfig {
        addr: addr.to_string(),
        store: StoreConfig {
            threshold: THRESHOLD,
            ..StoreConfig::default()
        },
        retry_after_ms: 1,
        db_path: Some(dir.join("db.txt")),
        index_path: Some(dir.join("index.txt")),
        ..ServerConfig::default()
    }
}

/// Waits for the client threads to push `progress` past `goal`, failing fast
/// when every worker has already exited (a stalled load must diagnose, not
/// hang) or after a generous wall-clock deadline.
fn wait_progress(
    progress: &AtomicU64,
    goal: u64,
    workers: &[std::thread::JoinHandle<Result<Tally, String>>],
) -> io::Result<()> {
    let deadline = deadline_after(600);
    loop {
        let done = progress.load(Ordering::Relaxed);
        if done >= goal {
            return Ok(());
        }
        if workers.iter().all(std::thread::JoinHandle::is_finished) {
            return Err(fail(format!(
                "load stalled: every client exited at {done}/{goal} requests"
            )));
        }
        if expired(deadline) {
            return Err(fail(format!("load stalled at {done}/{goal} requests")));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn ring_status(client: &mut ServiceClient) -> io::Result<RingStatusBody> {
    match client
        .call(&Request::RingStatus)
        .map_err(io::Error::other)?
    {
        Response::RingStatus(s) => Ok(s),
        other => Err(fail(format!("expected ring-status, got {other:?}"))),
    }
}

/// Runs the ring soak at the catalogued 10k-request scale.
///
/// # Errors
///
/// Any violated invariant, plus ordinary server/filesystem failures.
pub fn run(out: &Path) -> io::Result<String> {
    run_with(out, REQUESTS)
}

/// Runs the ring soak with `total_requests` spread across the clients.
///
/// # Errors
///
/// As [`run`].
pub fn run_with(out: &Path, total_requests: u64) -> io::Result<String> {
    let dir = artifact_dir(out, "ring_soak")?;
    let replica_dirs: Vec<PathBuf> = (0..REPLICAS)
        .map(|i| {
            let d = dir.join(format!("replica{i}"));
            let _ = std::fs::remove_dir_all(&d);
            std::fs::create_dir_all(&d)?;
            Ok(d)
        })
        .collect::<io::Result<_>>()?;

    let mut replicas: Vec<Option<server::ServerHandle>> = replica_dirs
        .iter()
        .map(|d| server::start(replica_config(d, "127.0.0.1:0")).map(Some))
        .collect::<io::Result<_>>()?;
    let addrs: Vec<SocketAddr> = replicas
        .iter()
        .map(|h| h.as_ref().map(server::ServerHandle::local_addr))
        .collect::<Option<_>>()
        .ok_or_else(|| fail("replica startup".into()))?;

    let rt = router::start(RouterConfig {
        replicas: addrs.iter().map(ToString::to_string).collect(),
        probe_interval_ms: 10,
        retry_after_ms: 2,
        // Full-journal mode: the wipe invariant below needs the router to
        // hold every write since the victim's last checkpoint, and the wipe
        // destroys the checkpoints. Auto-checkpoints (the bounded-memory
        // default) hand custody of older writes to the replica's own disk,
        // which is exactly what this scenario deletes; bounded mode is
        // covered by the router integration tests instead.
        checkpoint_every: 0,
        health: HealthPolicy {
            probe_base_ms: 10,
            probe_max_ms: 200,
            ..HealthPolicy::default()
        },
        ..RouterConfig::default()
    })?;
    let router_addr = rt.local_addr();

    // Seed the fingerprint set in calm weather, through the router so every
    // replica holds it.
    let mut setup = ServiceClient::connect(router_addr)?;
    for c in 0..CHIPS {
        match setup
            .call(&Request::Characterize {
                label: format!("chip-{c:03}"),
                errors: es(chip_bits(c)),
            })
            .map_err(io::Error::other)?
        {
            Response::Characterized { .. } => {}
            other => return Err(fail(format!("seed refused: {other:?}"))),
        }
    }

    // pc-allow: D002 — soak pacing and throughput are wall-clock by nature
    let started = Instant::now();
    let progress = Arc::new(AtomicU64::new(0));
    let per_client = total_requests / CLIENTS;
    let workers: Vec<_> = (0..CLIENTS)
        .map(|t| {
            let progress = Arc::clone(&progress);
            std::thread::spawn(move || soak_client(router_addr, t, per_client, progress))
        })
        .collect();
    let total = per_client * CLIENTS;

    // A third of the way in: stop the victim and delete its disk. The
    // journal on the router is now the only copy of its un-checkpointed
    // writes — exactly the state a `kill -9` plus disk loss leaves behind.
    wait_progress(&progress, total / 3, &workers)?;
    let victim_addr = addrs
        .get(VICTIM)
        .copied()
        .ok_or_else(|| fail("victim index".into()))?;
    let victim = replicas
        .get_mut(VICTIM)
        .and_then(Option::take)
        .ok_or_else(|| fail("victim handle".into()))?;
    victim.shutdown_and_wait()?;
    let victim_dir = replica_dirs
        .get(VICTIM)
        .ok_or_else(|| fail("victim dir".into()))?;
    let _ = std::fs::remove_dir_all(victim_dir);
    std::fs::create_dir_all(victim_dir)?;
    let killed_at = progress.load(Ordering::Relaxed);

    // Two thirds in (or when the load drains first): restart it on the
    // same port with an empty store. The prober heals it from the journal.
    wait_progress(&progress, 2 * total / 3, &workers)?;
    let restarted = {
        let deadline = deadline_after(30);
        loop {
            match server::start(replica_config(victim_dir, &victim_addr.to_string())) {
                Ok(h) => break h,
                Err(e) => {
                    if expired(deadline) {
                        return Err(fail(format!("cannot rebind {victim_addr}: {e}")));
                    }
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        }
    };
    let restarted_at = progress.load(Ordering::Relaxed);

    let mut acknowledged: BTreeSet<String> = BTreeSet::new();
    let (mut identify_attempts, mut identify_served) = (0u64, 0u64);
    let (mut busy, mut errors) = (0u64, 0u64);
    for w in workers {
        let tally = w
            .join()
            .map_err(|_| io::Error::other("soak client panicked"))?
            .map_err(io::Error::other)?;
        acknowledged.extend(tally.acknowledged);
        identify_attempts += tally.identify_attempts;
        identify_served += tally.identify_served;
        busy += tally.busy;
        errors += tally.errors;
    }
    let elapsed = started.elapsed();

    let availability = identify_served as f64 / identify_attempts.max(1) as f64;
    if availability < 0.99 {
        return Err(fail(format!(
            "identify availability {availability:.4} below 0.99 \
             ({identify_served}/{identify_attempts} served, {busy} busy, {errors} errors)"
        )));
    }

    // Wait for the victim to rejoin. Its journal drained once at heal
    // time; whatever the load appended afterwards pends until the next
    // checkpoint, which we drive below.
    {
        let deadline = deadline_after(60);
        loop {
            let status = ring_status(&mut setup)?;
            let rejoined = status
                .nodes
                .iter()
                .find(|n| n.addr == victim_addr.to_string())
                .is_some_and(|n| n.state == "up");
            if rejoined {
                break;
            }
            if expired(deadline) {
                return Err(fail(format!("victim never rejoined: {status:?}")));
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    // A checkpoint through the router truncates every live journal — the
    // victim's tail and the survivors' full backlog alike.
    match setup.call(&Request::Save).map_err(io::Error::other)? {
        ref r if r.is_ok() => {}
        other => return Err(fail(format!("post-rejoin save refused: {other:?}"))),
    }
    let rejoined = ring_status(&mut setup)?;
    if rejoined.replayed == 0 {
        return Err(fail("rejoin did not replay the journal".into()));
    }
    if let Some(stuck) = rejoined.nodes.iter().find(|n| n.pending > 0) {
        return Err(fail(format!(
            "journal not drained after an acked save: {stuck:?}"
        )));
    }

    // Zero acknowledged-write loss, proven against the restarted replica
    // *alone*: re-characterizing an existing label refines it
    // (created=false); created=true would mean the write is missing.
    let mut verify = ServiceClient::connect(restarted.local_addr())?;
    let mut lost = 0u64;
    for label in &acknowledged {
        let (t, i) = parse_dev_label(label).ok_or_else(|| fail(format!("bad label {label}")))?;
        match verify
            .call(&Request::Characterize {
                label: label.clone(),
                errors: es(device_bits(t, i)),
            })
            .map_err(io::Error::other)?
        {
            Response::Characterized { created: false, .. } => {}
            Response::Characterized { created: true, .. } => lost += 1,
            other => return Err(fail(format!("expected characterized, got {other:?}"))),
        }
    }
    if lost > 0 {
        return Err(fail(format!(
            "{lost} acknowledged write(s) missing from the healed replica"
        )));
    }
    let reidentified = matches!(
        verify
            .call(&Request::Identify {
                errors: es(chip_bits(CHIPS / 2)),
            })
            .map_err(io::Error::other)?,
        Response::Match { .. }
    );
    if !reidentified {
        return Err(fail("healed replica cannot identify the seed set".into()));
    }

    // The machine-readable record CI archives.
    let bench_path = std::env::var("PC_BENCH_RING_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|_| dir.join("BENCH_ring.json"));
    let bench_json = format!(
        "{{\n  \"bench\": \"ring\",\n  \"requests\": {total},\n  \"replicas\": {REPLICAS},\n  \
         \"availability\": {availability:.6},\n  \"failovers\": {},\n  \
         \"replay_depth\": {},\n  \"sheds\": {},\n  \"wall_ms\": {}\n}}\n",
        rejoined.failovers,
        rejoined.replayed,
        rejoined.sheds,
        elapsed.as_millis(),
    );
    std::fs::write(&bench_path, &bench_json)?;

    rt.shutdown_and_wait()?;
    restarted.shutdown_and_wait()?;
    for replica in replicas.into_iter().flatten() {
        replica.shutdown_and_wait()?;
    }

    let mut r = Report::new("pc-ring soak: replica kill + wipe + rejoin under load");
    r.section("load");
    r.kv("requests", total);
    r.kv("client threads", CLIENTS);
    r.kv("replicas", REPLICAS as u64);
    r.kv("killed at request", killed_at);
    r.kv("restarted at request", restarted_at);
    r.kv("wall clock", format!("{elapsed:.2?}"));
    r.section("availability");
    r.kv("identify served", identify_served);
    r.kv("identify attempts", identify_attempts);
    r.kv("availability", format!("{availability:.4}"));
    r.kv("busy sheds seen by clients", busy);
    r.kv("client transport errors", errors);
    r.kv("router failovers", rejoined.failovers);
    r.section("healing");
    r.kv("journal entries replayed", rejoined.replayed);
    r.kv("acknowledged writes", acknowledged.len() as u64);
    r.kv("acknowledged writes lost", lost);
    r.kv("healed replica re-identification", "ok");
    r.kv("artifacts", dir.display());
    Ok(r.finish())
}

/// Recovers `(t, i)` from a `dev-{t}-{i:05}` label.
fn parse_dev_label(label: &str) -> Option<(u64, u64)> {
    let rest = label.strip_prefix("dev-")?;
    let (t, i) = rest.split_once('-')?;
    Some((t.parse().ok()?, i.parse().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_soak_holds_its_invariants() {
        // Real TCP servers and the process-wide fault registry (unused here
        // but shared) — serialize against the other soaks.
        let _serial = crate::soak_serial()
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        let dir = std::env::temp_dir().join(format!("pc-ring-soak-{}", std::process::id()));
        let report = run_with(&dir, 1_200).expect("ring soak succeeds");
        assert!(report.contains("acknowledged writes lost"));
        assert!(report.contains("journal entries replayed"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
