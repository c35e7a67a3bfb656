//! Resilience tests over real TCP: injected wire faults tear a connection
//! without taking the server down, and a damaged persistence file set is
//! survived — degraded start plus self-healing rebuild for the index,
//! backup fallback for the database. Scoring-panic containment is pinned
//! against the dispatcher directly in `store_pool.rs`.
//!
//! The fault registry is process-wide, so every test here serializes on one
//! mutex: a plan armed by one test must never leak probes into another.

use pc_service::protocol::{Request, Response, StatsBody};
use pc_service::server::{self, ServerConfig};
use pc_service::store::StoreConfig;
use pc_service::{ClientError, ServiceClient};
use probable_cause::persistence::{load_index_from_path, LoadSource};
use probable_cause::ErrorString;
use std::path::{Path, PathBuf};
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

fn test_config() -> ServerConfig {
    ServerConfig {
        store: StoreConfig {
            threshold: 0.3,
            ..StoreConfig::default()
        },
        ..ServerConfig::default()
    }
}

fn populate(client: &mut ServiceClient, chips: u64) {
    for c in 0..chips {
        let resp = client
            .call(&Request::Characterize {
                label: format!("chip-{c:03}"),
                errors: es(&chip_bits(c)),
            })
            .unwrap();
        assert!(matches!(
            resp,
            Response::Characterized { created: true, .. }
        ));
    }
}

fn stats(client: &mut ServiceClient) -> StatsBody {
    match client.call(&Request::Stats).unwrap() {
        Response::Stats(s) => s,
        other => panic!("expected stats, got {other:?}"),
    }
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

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pc-resilience-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Flips one byte in the middle of `path`, invalidating its checksum.
fn corrupt(path: &Path) {
    let mut bytes = std::fs::read(path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(path, bytes).unwrap();
}

#[test]
fn wire_fault_tears_one_connection_but_server_survives() {
    let _serial = FAULT_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let handle = server::start(test_config()).unwrap();
    let mut setup = ServiceClient::connect(handle.local_addr()).unwrap();
    populate(&mut setup, 4);
    drop(setup);

    let err = {
        let _armed = Armed::install("seed=2;wire.read=n1");
        let mut doomed = ServiceClient::connect(handle.local_addr()).unwrap();
        doomed
            .call(&Request::Ping)
            .expect_err("call over a faulted read must fail")
    };
    // Either the uncorrelated seq-0 error frame arrived first (the server
    // naming the injected fault) or the hang-up beat it to the socket.
    if let ClientError::ConnectionError { message } = &err {
        assert!(
            pc_faults::is_injected_message(message),
            "connection error does not name the fault: {message:?}"
        );
    }

    // The listener is untouched: a fresh connection gets real answers.
    let mut client = ServiceClient::connect(handle.local_addr()).unwrap();
    assert_eq!(client.call(&Request::Ping).unwrap(), Response::Pong);
    assert_eq!(
        client
            .call(&Request::Identify {
                errors: es(&chip_bits(2)),
            })
            .unwrap(),
        Response::Match {
            label: "chip-002".to_string(),
            distance: 0.0
        }
    );
    handle.shutdown_and_wait().unwrap();
}

#[test]
fn damaged_index_starts_degraded_and_self_heals() {
    let _serial = FAULT_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let dir = scratch_dir("index");
    let db_path = dir.join("db.txt");
    let index_path = dir.join("index.txt");
    let paths = |mut c: ServerConfig| {
        c.db_path = Some(db_path.clone());
        c.index_path = Some(index_path.clone());
        c
    };

    let handle = server::start(paths(test_config())).unwrap();
    let mut client = ServiceClient::connect(handle.local_addr()).unwrap();
    populate(&mut client, 8);
    handle.shutdown_and_wait().unwrap();

    corrupt(&index_path);

    // The database is intact, so the server must come up — in degraded
    // linear-scan mode — and still answer correctly while the background
    // rebuild runs.
    let handle = server::start(paths(test_config())).unwrap();
    let mut client = ServiceClient::connect(handle.local_addr()).unwrap();
    let s = stats(&mut client);
    assert_eq!(s.fingerprints, 8, "database lost entries: {s:?}");
    assert_eq!(
        client
            .call(&Request::Identify {
                errors: es(&chip_bits(5)),
            })
            .unwrap(),
        Response::Match {
            label: "chip-005".to_string(),
            distance: 0.0
        }
    );

    // Self-healing: the rebuild thread clears the degraded flag.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if !stats(&mut client).degraded {
            break;
        }
        assert!(Instant::now() < deadline, "index rebuild never finished");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(
        client.call(&Request::Save).unwrap(),
        Response::Saved { fingerprints: 8 }
    );
    handle.shutdown_and_wait().unwrap();

    // The healed index was persisted: it loads from the primary path again.
    let recovered = load_index_from_path(&index_path).unwrap();
    assert!(matches!(recovered.source, LoadSource::Primary));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_primary_db_recovers_from_backup() {
    let _serial = FAULT_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let dir = scratch_dir("db");
    let db_path = dir.join("db.txt");
    let paths = |mut c: ServerConfig| {
        c.db_path = Some(db_path.clone());
        c
    };

    let handle = server::start(paths(test_config())).unwrap();
    let mut client = ServiceClient::connect(handle.local_addr()).unwrap();
    populate(&mut client, 6);
    handle.shutdown_and_wait().unwrap();

    corrupt(&db_path);

    let handle = server::start(paths(test_config())).unwrap();
    let mut client = ServiceClient::connect(handle.local_addr()).unwrap();
    let s = stats(&mut client);
    assert_eq!(s.fingerprints, 6, "backup recovery lost entries: {s:?}");
    assert_eq!(
        client
            .call(&Request::Identify {
                errors: es(&chip_bits(1)),
            })
            .unwrap(),
        Response::Match {
            label: "chip-001".to_string(),
            distance: 0.0
        }
    );
    handle.shutdown_and_wait().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
