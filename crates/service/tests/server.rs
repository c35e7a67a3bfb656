//! End-to-end server tests over real TCP: request/response semantics,
//! graceful drain on shutdown, malformed-input handling, and
//! byte-identical persistence across a restart.

use pc_service::protocol::{Request, Response};
use pc_service::server::{self, ServerConfig};
use pc_service::store::StoreConfig;
use pc_service::ServiceClient;
use probable_cause::ErrorString;
use std::sync::Arc;

const SIZE: u64 = 32_768;

fn es(bits: &[u64]) -> ErrorString {
    ErrorString::from_sorted(bits.to_vec(), SIZE).unwrap()
}

/// Chip `c`'s fingerprint bits: 60 positions in a chip-private stride.
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

#[test]
fn identify_and_cluster_over_the_wire() {
    let handle = server::start(test_config()).unwrap();
    let mut client = ServiceClient::connect(handle.local_addr()).unwrap();

    assert_eq!(client.call(&Request::Ping).unwrap(), Response::Pong);
    populate(&mut client, 12);

    // A noisy output of chip 7 matches it.
    let mut noisy = chip_bits(7);
    noisy.truncate(55);
    noisy.push(30_000);
    match client
        .call(&Request::Identify { errors: es(&noisy) })
        .unwrap()
    {
        Response::Match { label, distance } => {
            assert_eq!(label, "chip-007");
            assert!(distance < 0.3);
        }
        other => panic!("expected a match, got {other:?}"),
    }

    // A stranger does not.
    let stranger = es(&(0..60).map(|i| 20_000 + i * 3).collect::<Vec<_>>());
    match client
        .call(&Request::Identify {
            errors: stranger.clone(),
        })
        .unwrap()
    {
        Response::NoMatch { .. } => {}
        other => panic!("expected no match, got {other:?}"),
    }

    // Clustering: two ingests of one device, one of another.
    assert_eq!(
        client
            .call(&Request::ClusterIngest {
                errors: stranger.clone()
            })
            .unwrap(),
        Response::Clustered {
            cluster: 0,
            seeded: true,
            clusters: 1
        }
    );
    assert_eq!(
        client
            .call(&Request::ClusterIngest { errors: stranger })
            .unwrap(),
        Response::Clustered {
            cluster: 0,
            seeded: false,
            clusters: 1
        }
    );
    assert_eq!(
        client
            .call(&Request::ClusterIngest {
                errors: es(&chip_bits(2))
            })
            .unwrap(),
        Response::Clustered {
            cluster: 1,
            seeded: true,
            clusters: 2
        }
    );

    match client.call(&Request::Stats).unwrap() {
        Response::Stats(s) => {
            assert_eq!(s.fingerprints, 12);
            assert_eq!(s.clusters, 2);
            assert!(s.admitted >= 12 + 5);
        }
        other => panic!("expected stats, got {other:?}"),
    }

    assert_eq!(
        client.call(&Request::Shutdown).unwrap(),
        Response::ShuttingDown
    );
    handle.wait().unwrap();
}

#[test]
fn pipelined_requests_before_shutdown_all_get_answers() {
    let handle = server::start(test_config()).unwrap();
    let mut setup = ServiceClient::connect(handle.local_addr()).unwrap();
    populate(&mut setup, 6);

    // Pipeline a burst of identifies, then shutdown, without reading
    // anything: graceful drain must answer every one of them.
    let mut client = ServiceClient::connect(handle.local_addr()).unwrap();
    let mut expected = Vec::new();
    for c in 0..6u64 {
        let seq = client
            .send(&Request::Identify {
                errors: es(&chip_bits(c)),
            })
            .unwrap();
        expected.push((seq, format!("chip-{c:03}")));
    }
    let shutdown_seq = client.send(&Request::Shutdown).unwrap();

    let mut got = std::collections::BTreeMap::new();
    for _ in 0..expected.len() + 1 {
        let (seq, resp) = client.recv().unwrap();
        got.insert(seq, resp);
    }
    for (seq, label) in expected {
        match got.get(&seq) {
            Some(Response::Match { label: l, .. }) => assert_eq!(l, &label),
            other => panic!("seq {seq}: expected match on {label}, got {other:?}"),
        }
    }
    assert_eq!(got.get(&shutdown_seq), Some(&Response::ShuttingDown));
    handle.wait().unwrap();
}

#[test]
fn malformed_requests_do_not_kill_the_connection() {
    let handle = server::start(test_config()).unwrap();
    let mut client = ServiceClient::connect(handle.local_addr()).unwrap();

    // A JSON frame that is not a valid request: answered with an
    // uncorrelated (seq 0) error, connection stays usable.
    use std::io::Write;
    use std::net::TcpStream;
    let mut raw = TcpStream::connect(handle.local_addr()).unwrap();
    let payload = br#"{"seq":9,"op":"teleport"}"#;
    raw.write_all(&(payload.len() as u32).to_be_bytes())
        .unwrap();
    raw.write_all(payload).unwrap();
    let mut reader = std::io::BufReader::new(raw.try_clone().unwrap());
    let frame = pc_service::read_frame(&mut reader, pc_service::MAX_FRAME_BYTES).unwrap();
    let (seq, resp) = pc_service::decode_response(&frame).unwrap();
    assert_eq!(seq, 0);
    assert!(matches!(resp, Response::Error { .. }));
    // Same raw connection still answers a well-formed ping.
    let ping = pc_service::encode_request(3, &Request::Ping);
    pc_service::write_frame(&mut raw, &ping).unwrap();
    let frame = pc_service::read_frame(&mut reader, pc_service::MAX_FRAME_BYTES).unwrap();
    assert_eq!(
        pc_service::decode_response(&frame).unwrap(),
        (3, Response::Pong)
    );

    // The managed client is unaffected throughout.
    assert_eq!(client.call(&Request::Ping).unwrap(), Response::Pong);
    handle.shutdown_and_wait().unwrap();
}

#[test]
fn oversized_frames_are_refused() {
    use std::io::Write;
    use std::net::TcpStream;
    let handle = server::start(test_config()).unwrap();
    // A length prefix one byte over the cap, with no payload behind it: the
    // server refuses on the prefix alone (the codec checks the cap before
    // buffering anything), answering an uncorrelated error.
    let mut raw = TcpStream::connect(handle.local_addr()).unwrap();
    raw.write_all(&(pc_service::MAX_FRAME_BYTES + 1).to_be_bytes())
        .unwrap();
    let mut reader = std::io::BufReader::new(raw.try_clone().unwrap());
    let frame = pc_service::read_frame(&mut reader, pc_service::MAX_FRAME_BYTES).unwrap();
    let (seq, resp) = pc_service::decode_response(&frame).unwrap();
    assert_eq!(seq, 0, "frame-level failures are uncorrelated");
    assert!(matches!(resp, Response::Error { .. }), "got {resp:?}");
    handle.shutdown_and_wait().unwrap();
}

#[test]
fn restart_restores_the_persisted_index_byte_identically() {
    let dir = std::env::temp_dir().join(format!("pc-service-restart-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let db_path = dir.join("db.txt");
    let index_path = dir.join("index.txt");
    let config = ServerConfig {
        db_path: Some(db_path.clone()),
        index_path: Some(index_path.clone()),
        ..test_config()
    };

    // First life: build state, drain, persist.
    let handle = server::start(config.clone()).unwrap();
    let mut client = ServiceClient::connect(handle.local_addr()).unwrap();
    populate(&mut client, 10);
    client.call(&Request::Shutdown).unwrap();
    handle.wait().unwrap();
    let db_bytes = std::fs::read(&db_path).unwrap();
    let index_bytes = std::fs::read(&index_path).unwrap();
    assert!(!db_bytes.is_empty() && !index_bytes.is_empty());

    // Second life: identification still works from the restored state...
    let handle = server::start(config).unwrap();
    assert_eq!(handle.store().len(), 10);
    let mut client = ServiceClient::connect(handle.local_addr()).unwrap();
    match client
        .call(&Request::Identify {
            errors: es(&chip_bits(4)),
        })
        .unwrap()
    {
        Response::Match { label, .. } => assert_eq!(label, "chip-004"),
        other => panic!("expected match after restart, got {other:?}"),
    }
    handle.shutdown_and_wait().unwrap();

    // ...and a read-only second life re-persists both files byte-identically.
    assert_eq!(db_bytes, std::fs::read(&db_path).unwrap());
    assert_eq!(index_bytes, std::fs::read(&index_path).unwrap());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unaddressable_positions_are_refused_and_never_saved() {
    let dir = std::env::temp_dir().join(format!("pc-service-unaddressable-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let db_path = dir.join("db.txt");
    let config = ServerConfig {
        db_path: Some(db_path.clone()),
        ..test_config()
    };
    let handle = server::start(config).unwrap();
    let mut client = ServiceClient::connect(handle.local_addr()).unwrap();
    populate(&mut client, 3);
    let save = |client: &mut ServiceClient| {
        let resp = client.call(&Request::Save).unwrap();
        assert_eq!(resp, Response::Saved { fingerprints: 3 });
    };
    save(&mut client);
    let saved = std::fs::read(&db_path).unwrap();

    // Position 2^47 + 1 of a 2^48-bit string, for a new label and for a
    // refine of an enrolled one: sorted and below the size, but beyond what
    // the stored packed form addresses.
    use std::io::Write;
    let mut raw = std::net::TcpStream::connect(handle.local_addr()).unwrap();
    let mut reader = std::io::BufReader::new(raw.try_clone().unwrap());
    for label in ["chip-far", "chip-000"] {
        let payload = format!(
            r#"{{"seq":9,"op":"characterize","label":"{label}","size":281474976710656,"positions":[5,140737488355329]}}"#
        );
        raw.write_all(&(payload.len() as u32).to_be_bytes())
            .unwrap();
        raw.write_all(payload.as_bytes()).unwrap();
        let frame = pc_service::read_frame(&mut reader, pc_service::MAX_FRAME_BYTES).unwrap();
        let (_, resp) = pc_service::decode_response(&frame).unwrap();
        assert!(
            matches!(resp, Response::Error { .. }),
            "{label}: got {resp:?}"
        );
    }
    assert_eq!(handle.store().len(), 3);

    // Two more checkpoints (the second rotates the first into the backup)
    // and the shutdown save all write the bytes saved before the refusals.
    save(&mut client);
    save(&mut client);
    handle.shutdown_and_wait().unwrap();
    assert_eq!(std::fs::read(&db_path).unwrap(), saved);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn traced_requests_report_consistent_stage_breakdowns() {
    let handle = server::start(test_config()).unwrap();
    let mut client = ServiceClient::connect(handle.local_addr()).unwrap();
    populate(&mut client, 8);

    client.set_trace(true);
    match client
        .call(&Request::Identify {
            errors: es(&chip_bits(5)),
        })
        .unwrap()
    {
        Response::Traced { inner, trace } => {
            assert!(
                matches!(*inner, Response::Match { .. }),
                "expected a match inside the trace wrapper, got {inner:?}"
            );
            // The wire breakdown carries an explicit remainder, so the
            // stages must sum to the total exactly.
            assert_eq!(
                trace.decode_ns + trace.queue_wait_ns + trace.score_ns + trace.other_ns,
                trace.total_ns
            );
            assert!(trace.total_ns > 0);
            assert_ne!(trace.trace_id, 0);
        }
        other => panic!("expected a traced response, got {other:?}"),
    }
    client.set_trace(false);

    // After traffic, `metrics` reports non-zero quantiles for the ops seen.
    match client.call(&Request::Metrics).unwrap() {
        Response::Metrics(m) => {
            let identify = m
                .ops
                .iter()
                .find(|o| o.op == "identify")
                .expect("identify row after identify traffic");
            assert!(identify.count >= 1);
            assert!(identify.p50_ns > 0);
            assert!(identify.p90_ns >= identify.p50_ns);
            assert!(identify.p99_ns >= identify.p90_ns);
            let characterize = m
                .ops
                .iter()
                .find(|o| o.op == "characterize")
                .expect("characterize row after populate");
            assert_eq!(characterize.count, 8);
        }
        other => panic!("expected metrics, got {other:?}"),
    }

    // The flight recorder has the recent requests, stages summing under the
    // total (laps never over-attribute).
    match client.call(&Request::TraceDump).unwrap() {
        Response::TraceDump { traces } => {
            assert!(!traces.is_empty(), "flight recorder must have traces");
            for t in &traces {
                let attributed =
                    t.decode_ns + t.queue_wait_ns + t.score_ns + t.encode_ns + t.write_ns;
                assert!(
                    attributed <= t.total_ns,
                    "stage sum {attributed} exceeds total {}",
                    t.total_ns
                );
            }
            assert!(traces.iter().any(|t| t.op == "identify"));
        }
        other => panic!("expected a trace dump, got {other:?}"),
    }
    handle.shutdown_and_wait().unwrap();
}

#[test]
fn tracing_disabled_serves_untraced_and_empty_metrics() {
    let config = ServerConfig {
        trace: false,
        ..test_config()
    };
    let handle = server::start(config).unwrap();
    let mut client = ServiceClient::connect(handle.local_addr()).unwrap();
    client.set_trace(true);
    // The client may ask, but a trace-disabled server answers plainly.
    assert_eq!(client.call(&Request::Ping).unwrap(), Response::Pong);
    match client.call(&Request::Metrics).unwrap() {
        Response::Metrics(m) => assert!(m.ops.is_empty(), "no rows without tracing"),
        other => panic!("expected metrics, got {other:?}"),
    }
    match client.call(&Request::TraceDump).unwrap() {
        Response::TraceDump { traces } => assert!(traces.is_empty()),
        other => panic!("expected a trace dump, got {other:?}"),
    }
    handle.shutdown_and_wait().unwrap();
}

#[test]
fn late_queue_submissions_during_shutdown_are_refused_cleanly() {
    let handle = server::start(test_config()).unwrap();
    let store = Arc::clone(handle.store());
    let addr = handle.local_addr();
    let mut client = ServiceClient::connect(addr).unwrap();
    populate(&mut client, 3);
    handle.shutdown_and_wait().unwrap();
    // The store is still usable in-process after the server is gone.
    assert_eq!(store.len(), 3);
    // And the listener port is closed once teardown finishes.
    assert!(ServiceClient::connect(addr).is_err());
}
