//! End-to-end tests of the `pc route` tier over real TCP: routed reads and
//! fanned writes, transparent failover around a dead replica, journal
//! replay healing a replica that restarted empty, replay dedup for a
//! replica that never lost state, retraction of zero-ack writes, router
//! auto-checkpoints, shedding when no replica answers, and deterministic
//! `ring.forward` fault injection.
//!
//! The fault registry is process-wide, so every test here serializes on one
//! mutex: a `ring.forward` plan armed by one test must never fire on
//! another test's forwards.

use pc_service::protocol::{Request, Response, RingStatusBody};
use pc_service::ring::HealthPolicy;
use pc_service::router::{self, RouterConfig};
use pc_service::server::{self, ServerConfig};
use pc_service::ServiceClient;
use probable_cause::ErrorString;
use std::sync::Mutex;
use std::time::{Duration, Instant};

static FAULT_LOCK: Mutex<()> = Mutex::new(());

const SIZE: u64 = 32_768;

fn es(bits: &[u64]) -> ErrorString {
    ErrorString::from_sorted(bits.to_vec(), SIZE).unwrap()
}

fn chip_bits(c: u64) -> Vec<u64> {
    (0..60).map(|i| c * 60 + i).collect()
}

fn start_replica() -> server::ServerHandle {
    server::start(ServerConfig::default()).unwrap()
}

fn router_over(replica_addrs: Vec<String>) -> router::RouterHandle {
    router::start(RouterConfig {
        replicas: replica_addrs,
        probe_interval_ms: 10,
        retry_after_ms: 7,
        health: HealthPolicy {
            probe_base_ms: 10,
            probe_max_ms: 100,
            ..HealthPolicy::default()
        },
        ..RouterConfig::default()
    })
    .unwrap()
}

fn ring_status(client: &mut ServiceClient) -> RingStatusBody {
    match client.call(&Request::RingStatus).unwrap() {
        Response::RingStatus(s) => s,
        other => panic!("expected ring-status, got {other:?}"),
    }
}

fn characterize(client: &mut ServiceClient, c: u64) {
    let resp = client
        .call(&Request::Characterize {
            label: format!("chip-{c:03}"),
            errors: es(&chip_bits(c)),
        })
        .unwrap();
    assert!(resp.is_ok(), "characterize refused: {resp:?}");
}

fn expect_match(client: &mut ServiceClient, c: u64) {
    match client
        .call(&Request::Identify {
            errors: es(&chip_bits(c)),
        })
        .unwrap()
    {
        Response::Match { label, .. } => assert_eq!(label, format!("chip-{c:03}")),
        other => panic!("chip-{c:03} should match, got {other:?}"),
    }
}

/// Polls `cond` until it holds or `secs` elapse.
fn wait_until(secs: u64, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    false
}

/// Disarms the global fault registry even if the test panics.
struct Armed;

impl Armed {
    fn install(spec: &str) -> Self {
        pc_faults::install(pc_faults::FaultPlan::parse(spec).unwrap());
        Armed
    }
}

impl Drop for Armed {
    fn drop(&mut self) {
        pc_faults::uninstall();
    }
}

#[test]
fn routed_reads_fanned_writes_and_ring_status() {
    let _serial = FAULT_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let replicas: Vec<_> = (0..3).map(|_| start_replica()).collect();
    let addrs: Vec<String> = replicas
        .iter()
        .map(|h| h.local_addr().to_string())
        .collect();
    let rt = router_over(addrs);
    let mut client = ServiceClient::connect(rt.local_addr()).unwrap();

    for c in 0..5 {
        characterize(&mut client, c);
    }
    for c in 0..5 {
        expect_match(&mut client, c);
    }

    let status = ring_status(&mut client);
    assert_eq!(status.role, "router");
    assert_eq!(status.nodes.len(), 3);
    assert!(status.nodes.iter().all(|n| n.state == "up"), "{status:?}");

    // Writes fanned to every replica: each one answers the identify alone.
    for replica in &replicas {
        let mut direct = ServiceClient::connect(replica.local_addr()).unwrap();
        for c in 0..5 {
            expect_match(&mut direct, c);
        }
        let status = ring_status(&mut direct);
        assert_eq!(status.role, "replica");
    }

    // Router shutdown via the wire stops only the routing tier.
    assert!(matches!(
        client.call(&Request::Shutdown).unwrap(),
        Response::ShuttingDown
    ));
    rt.wait().unwrap();
    for replica in replicas {
        let mut direct = ServiceClient::connect(replica.local_addr()).unwrap();
        assert!(matches!(
            direct.call(&Request::Ping).unwrap(),
            Response::Pong
        ));
        replica.shutdown_and_wait().unwrap();
    }
}

#[test]
fn failover_keeps_reads_available_and_replay_heals_an_empty_restart() {
    let _serial = FAULT_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let mut replicas: Vec<Option<server::ServerHandle>> =
        (0..3).map(|_| Some(start_replica())).collect();
    let addrs: Vec<String> = replicas
        .iter()
        .map(|h| h.as_ref().unwrap().local_addr().to_string())
        .collect();
    let rt = router_over(addrs.clone());
    let mut client = ServiceClient::connect(rt.local_addr()).unwrap();

    for c in 0..6 {
        characterize(&mut client, c);
    }

    // Kill replica 0. Its address stays reserved in the ring.
    let dead_addr = replicas[0].as_ref().unwrap().local_addr();
    replicas[0].take().unwrap().shutdown_and_wait().unwrap();

    // Every read keeps succeeding: dead-replica attempts fail over.
    for c in 0..6 {
        expect_match(&mut client, c);
    }

    // A write while the replica is down lands in its pending journal.
    characterize(&mut client, 6);
    expect_match(&mut client, 6);
    assert!(
        wait_until(10, || {
            let s = ring_status(&mut client);
            s.nodes.iter().any(|n| n.state == "down" && n.pending > 0)
        }),
        "the dead replica never showed up as down with a pending journal"
    );

    // Restart it on the same port, with an empty store: journal replay
    // must restore everything it ever acknowledged, not just the tail.
    let restarted = {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match server::start(ServerConfig {
                addr: dead_addr.to_string(),
                ..ServerConfig::default()
            }) {
                Ok(h) => break h,
                Err(e) => {
                    assert!(Instant::now() < deadline, "cannot rebind {dead_addr}: {e}");
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        }
    };

    assert!(
        wait_until(30, || {
            let s = ring_status(&mut client);
            s.nodes.iter().all(|n| n.state == "up")
        }),
        "the restarted replica never rejoined"
    );
    let status = ring_status(&mut client);
    assert!(status.replayed > 0, "rejoin must replay the journal");
    let rejoined = status
        .nodes
        .iter()
        .find(|n| n.addr == dead_addr.to_string())
        .unwrap();
    assert_eq!(
        rejoined.pending, 0,
        "rejoin must drain the replayed journal: {status:?}"
    );

    // A checkpoint through the router truncates the survivors' journals too.
    assert!(client.call(&Request::Save).unwrap().is_ok());
    let status = ring_status(&mut client);
    assert!(
        status.nodes.iter().all(|n| n.pending == 0),
        "an acked save must truncate every live journal: {status:?}"
    );

    // Zero acknowledged-write loss: the restarted replica answers alone
    // for chips written before, during, and after its death.
    let mut direct = ServiceClient::connect(restarted.local_addr()).unwrap();
    for c in 0..7 {
        expect_match(&mut direct, c);
    }

    rt.shutdown_and_wait().unwrap();
    restarted.shutdown_and_wait().unwrap();
    for replica in replicas.into_iter().flatten() {
        replica.shutdown_and_wait().unwrap();
    }
}

#[test]
fn reads_shed_busy_when_no_replica_answers() {
    let _serial = FAULT_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let a = start_replica();
    let rt = router_over(vec![a.local_addr().to_string()]);
    let mut client = ServiceClient::connect(rt.local_addr()).unwrap();

    characterize(&mut client, 0);
    expect_match(&mut client, 0);

    a.shutdown_and_wait().unwrap();
    // With no replica left to answer, the router sheds with busy + the
    // configured hint instead of erroring.
    let shed = wait_until(10, || {
        matches!(
            client
                .call(&Request::Identify {
                    errors: es(&chip_bits(0)),
                })
                .unwrap(),
            Response::Busy { retry_after_ms: 7 }
        )
    });
    assert!(
        shed,
        "losing every replica must shed with busy + retry_after_ms"
    );
    assert!(ring_status(&mut client).sheds > 0);

    rt.shutdown_and_wait().unwrap();
}

#[test]
fn heal_skips_entries_the_replica_already_applied() {
    let _serial = FAULT_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let a = start_replica();
    let b = start_replica();
    let rt = router_over(vec![a.local_addr().to_string(), b.local_addr().to_string()]);
    let mut client = ServiceClient::connect(rt.local_addr()).unwrap();

    let write = |client: &mut ServiceClient| match client
        .call(&Request::Characterize {
            label: "chip-000".into(),
            errors: es(&chip_bits(0)),
        })
        .unwrap()
    {
        Response::Characterized { observations, .. } => observations,
        other => panic!("characterize refused: {other:?}"),
    };

    // Three fanned writes of the same label: two `ring.forward` probes
    // each (both replicas live, declaration order), consuming probes 1-6.
    for n in 1..=3 {
        assert_eq!(write(&mut client), n);
    }

    // Installing a plan resets the site's probe counter, so the fourth
    // write's fan-out is probes 1 and 2: replica a acks (probe 1),
    // replica b is vetoed (probe 2) and force-downed with all four
    // writes still journaled. The fan-out is synchronous, so the
    // eviction is visible as soon as the write returns (heal needs two
    // probe rounds, well behind us).
    let _armed = Armed::install("seed=1;ring.forward=n2");
    assert_eq!(write(&mut client), 4);
    let status = ring_status(&mut client);
    assert!(
        status
            .nodes
            .iter()
            .any(|n| n.state == "down" && n.pending == 4),
        "the vetoed replica must be evicted with the full journal pending: {status:?}"
    );

    // Heal ships the whole journal (it only truncates at checkpoints),
    // but replica b's applied-write watermark covers the three writes it
    // acknowledged live: replay must apply only the fourth.
    assert!(
        wait_until(30, || {
            let s = ring_status(&mut client);
            s.nodes.iter().all(|n| n.state == "up")
        }),
        "the vetoed replica never rejoined"
    );
    assert_eq!(
        ring_status(&mut client).replayed,
        4,
        "heal must ship the full journal"
    );

    // Ask the healed replica directly: a fifth observation, not an
    // eighth. Double-applying the acked entries would leave it at 8 and
    // permanently diverged from its sibling.
    let mut direct = ServiceClient::connect(b.local_addr()).unwrap();
    match direct
        .call(&Request::Characterize {
            label: "chip-000".into(),
            errors: es(&chip_bits(0)),
        })
        .unwrap()
    {
        Response::Characterized {
            observations,
            created,
            ..
        } => {
            assert!(!created, "the healed replica must know the label");
            assert_eq!(
                observations, 5,
                "replay must skip the writes the replica already applied"
            );
        }
        other => panic!("direct characterize refused: {other:?}"),
    }

    rt.shutdown_and_wait().unwrap();
    a.shutdown_and_wait().unwrap();
    b.shutdown_and_wait().unwrap();
}

#[test]
fn shed_write_is_retracted_not_replayed() {
    let _serial = FAULT_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let a = start_replica();
    let rt = router_over(vec![a.local_addr().to_string()]);
    let mut client = ServiceClient::connect(rt.local_addr()).unwrap();

    // Veto the only replica's forward: zero acknowledgements, so the
    // router sheds — and must retract the journaled entry. The shed is
    // retryable, so replaying the journaled copy on heal would apply the
    // write twice once the client retries.
    let _armed = Armed::install("seed=1;ring.forward=n1");
    match client
        .call(&Request::Characterize {
            label: "chip-000".into(),
            errors: es(&chip_bits(0)),
        })
        .unwrap()
    {
        Response::Busy { .. } => {}
        other => panic!("a zero-ack write must shed busy, got {other:?}"),
    }
    let status = ring_status(&mut client);
    assert!(
        status.nodes.iter().all(|n| n.pending == 0),
        "the shed write must be retracted from every journal: {status:?}"
    );

    // The replica heals (nothing to replay) and rejoins; the client's
    // retry then creates the fingerprint fresh — the shed write was
    // never resurrected behind its back.
    assert!(
        wait_until(30, || {
            let s = ring_status(&mut client);
            s.nodes.iter().all(|n| n.state == "up")
        }),
        "the vetoed replica never rejoined"
    );
    match client
        .call(&Request::Characterize {
            label: "chip-000".into(),
            errors: es(&chip_bits(0)),
        })
        .unwrap()
    {
        Response::Characterized {
            observations,
            created,
            ..
        } => {
            assert!(created, "the shed write must not have applied anywhere");
            assert_eq!(observations, 1);
        }
        other => panic!("retried characterize refused: {other:?}"),
    }

    rt.shutdown_and_wait().unwrap();
    a.shutdown_and_wait().unwrap();
}

#[test]
fn auto_checkpoint_bounds_journals_without_client_saves() {
    let _serial = FAULT_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let a = start_replica();
    let b = start_replica();
    let rt = router::start(RouterConfig {
        replicas: vec![a.local_addr().to_string(), b.local_addr().to_string()],
        checkpoint_every: 3,
        probe_interval_ms: 10,
        health: HealthPolicy {
            probe_base_ms: 10,
            probe_max_ms: 100,
            ..HealthPolicy::default()
        },
        ..RouterConfig::default()
    })
    .unwrap();
    let mut client = ServiceClient::connect(rt.local_addr()).unwrap();

    // Seven writes with no client `save`: the third and sixth reach the
    // threshold and trigger router-side checkpoints, so the journals
    // never grow past the configured depth.
    for c in 0..7 {
        characterize(&mut client, c);
    }
    let status = ring_status(&mut client);
    assert!(
        status.nodes.iter().all(|n| n.pending == 1),
        "auto-checkpoints must keep journals bounded: {status:?}"
    );
    for c in 0..7 {
        expect_match(&mut client, c);
    }

    rt.shutdown_and_wait().unwrap();
    a.shutdown_and_wait().unwrap();
    b.shutdown_and_wait().unwrap();
}

#[test]
fn forward_faults_fail_over_deterministically() {
    let _serial = FAULT_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let replicas: Vec<_> = (0..3).map(|_| start_replica()).collect();
    let addrs: Vec<String> = replicas
        .iter()
        .map(|h| h.local_addr().to_string())
        .collect();
    let rt = router_over(addrs);
    let mut client = ServiceClient::connect(rt.local_addr()).unwrap();
    characterize(&mut client, 0);

    // Veto the next replica forward (`n1` fires on exactly the first
    // probe): the read must walk past the vetoed replica and answer from
    // the next one.
    let _armed = Armed::install("seed=1;ring.forward=n1");
    expect_match(&mut client, 0);
    let status = ring_status(&mut client);
    assert!(
        status.failovers >= 1,
        "a vetoed forward must count as a failover: {status:?}"
    );

    rt.shutdown_and_wait().unwrap();
    for replica in replicas {
        replica.shutdown_and_wait().unwrap();
    }
}
