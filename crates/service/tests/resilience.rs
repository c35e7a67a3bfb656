//! Resilience tests over real TCP: injected wire faults tear a connection
//! without taking the server down, and a damaged persistence file set is
//! survived — a rebuild at open for a missing, torn or stale index, backup
//! fallback for the database. Scoring-panic containment is pinned against
//! the dispatcher directly in `store_pool.rs`.
//!
//! The fault registry is process-wide, so every test here serializes on one
//! mutex: a plan armed by one test must never leak probes into another.

use pc_service::protocol::{Request, Response, StatsBody};
use pc_service::server::{self, ServerConfig};
use pc_service::store::StoreConfig;
use pc_service::{ClientError, ServiceClient};
use probable_cause::persistence::{self, bak_path};
use probable_cause::ErrorString;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

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

fn populate(client: &mut ServiceClient, chips: Range<u64>) {
    for c in chips {
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
    populate(&mut setup, 0..4);
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

/// Reads an index file and its backup.
fn read_pair(path: &Path) -> [Vec<u8>; 2] {
    [path.to_path_buf(), bak_path(path)].map(|p| std::fs::read(p).unwrap())
}

/// Writes an index file and its backup back.
fn write_pair(path: &Path, pair: &[Vec<u8>; 2]) {
    std::fs::write(path, &pair[0]).unwrap();
    std::fs::write(bak_path(path), &pair[1]).unwrap();
}

/// What one restarted server did: the index rebuilds counted while it
/// opened, its first identify's answer and distance evaluations, a
/// stranger's answer, and the index it saved on shutdown.
#[derive(Debug)]
struct Restart {
    rebuilds: u64,
    first: Response,
    first_evals: u64,
    stranger: Response,
    saved_index: Vec<u8>,
}

#[test]
fn missing_torn_or_stale_index_is_rebuilt_at_open() {
    const CHIPS: u64 = 16;
    let _serial = FAULT_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let collector = pc_telemetry::install();
    let rebuilds = || {
        collector
            .counters_snapshot()
            .get("service.store.index_rebuilt")
            .copied()
            .unwrap_or(0)
    };
    let dir = scratch_dir("index");
    let db_path = dir.join("db.txt");
    let index_path = dir.join("index.txt");
    let config = || ServerConfig {
        db_path: Some(db_path.clone()),
        index_path: Some(index_path.clone()),
        ..test_config()
    };

    // A checkpoint of the first four chips, then shutdown with all of them.
    // The early index pair is what a later save leaves behind when its
    // database write lands and its index write fails.
    let handle = server::start(config()).unwrap();
    let mut client = ServiceClient::connect(handle.local_addr()).unwrap();
    populate(&mut client, 0..4);
    assert_eq!(
        client.call(&Request::Save).unwrap(),
        Response::Saved { fingerprints: 4 }
    );
    let stale = read_pair(&index_path);
    populate(&mut client, 4..CHIPS);
    handle.shutdown_and_wait().unwrap();
    let intact = read_pair(&index_path);

    let db = persistence::load_db_from_path(&db_path).unwrap().value;
    let defaults = StoreConfig::default();
    let mut rebuilt_index = Vec::new();
    persistence::save_index(
        &db.build_index(defaults.bands, defaults.rows_per_band, defaults.index_seed),
        &mut rebuilt_index,
    )
    .unwrap();
    // A noisy re-observation of chip 5, and an output sharing 40 of chip
    // 3's 60 bits: distance 1/3, over the threshold, so no match.
    let mut probe: Vec<u64> = chip_bits(5)[..55].to_vec();
    probe.extend([30_000, 30_001]);
    let probe = es(&probe);
    let mut outsider: Vec<u64> = chip_bits(3)[..40].to_vec();
    outsider.extend(30_100..30_120);
    let outsider = es(&outsider);
    let (label, distance) = db.identify_with_distance(&probe).unwrap();
    let scan_match = Response::Match {
        label: label.clone(),
        distance,
    };

    let restart = |damage: &dyn Fn()| {
        write_pair(&index_path, &intact);
        damage();
        let before = rebuilds();
        let handle = server::start(config()).unwrap();
        let rebuilds = rebuilds() - before;
        let mut client = ServiceClient::connect(handle.local_addr()).unwrap();
        let evals = stats(&mut client).distance_evals;
        let first = client
            .call(&Request::Identify {
                errors: probe.clone(),
            })
            .unwrap();
        let first_evals = stats(&mut client).distance_evals - evals;
        let stranger = client
            .call(&Request::Identify {
                errors: outsider.clone(),
            })
            .unwrap();
        handle.shutdown_and_wait().unwrap();
        Restart {
            rebuilds,
            first,
            first_evals,
            stranger,
            saved_index: std::fs::read(&index_path).unwrap(),
        }
    };

    let adopted = restart(&|| {});
    assert_eq!(adopted.rebuilds, 0, "an intact index is adopted");
    assert_eq!(adopted.first, scan_match);
    assert!(
        matches!(&adopted.stranger, Response::NoMatch { closest: Some(_) }),
        "the stranger must reach a candidate: {:?}",
        adopted.stranger
    );

    let missing = || {
        for path in [index_path.clone(), bak_path(&index_path)] {
            std::fs::remove_file(path).unwrap();
        }
    };
    let torn = || {
        corrupt(&index_path);
        corrupt(&bak_path(&index_path));
    };
    let earlier = || write_pair(&index_path, &stale);
    // An index written before the version-3 format: its header is refused.
    let older = || {
        let v2 = intact.clone().map(|image| {
            String::from_utf8(image)
                .unwrap()
                .replacen("probable-cause-index 3", "probable-cause-index 2", 1)
                .into_bytes()
        });
        write_pair(&index_path, &v2);
    };
    let cases: [(&str, &dyn Fn()); 4] = [
        ("missing", &missing),
        ("torn", &torn),
        ("stale", &earlier),
        ("version 2", &older),
    ];
    for (case, damage) in cases {
        let restarted = restart(damage);
        assert_eq!(restarted.rebuilds, 1, "{case}: one rebuild at open");
        assert_eq!(restarted.first, scan_match, "{case}: first identify");
        assert!(
            restarted.first_evals < CHIPS,
            "{case}: the first identify scored {} of {CHIPS} entries",
            restarted.first_evals
        );
        assert_eq!(restarted.stranger, adopted.stranger, "{case}: stranger");
        assert!(
            restarted.saved_index == rebuilt_index,
            "{case}: saved index differs from build_index over the database"
        );
    }
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
    populate(&mut client, 0..6);
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
