//! Concurrency hammer: many client threads fire mixed identify /
//! cluster-ingest traffic at a deliberately tiny submission queue. Checks:
//! no request loses its response, `busy` refusals are retryable and
//! eventually succeed, the server's rejected/admitted accounting matches
//! what the clients observed, and the final cluster count equals the
//! single-threaded reference.

use pc_service::protocol::{Request, Response};
use pc_service::server::{self, ServerConfig};
use pc_service::store::StoreConfig;
use pc_service::ServiceClient;
use probable_cause::{cluster, ErrorString, PcDistance};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const SIZE: u64 = 32_768;
const CLIENTS: u64 = 8;
const REQUESTS_PER_CLIENT: u64 = 30;
const DEVICES: u64 = 5;
const CHIPS: u64 = 10;
const THRESHOLD: f64 = 0.3;

fn es(bits: &[u64]) -> ErrorString {
    ErrorString::from_sorted(bits.to_vec(), SIZE).unwrap()
}

fn chip_bits(c: u64) -> Vec<u64> {
    (0..60).map(|i| c * 60 + i).collect()
}

/// Device `d`'s outputs live in a far, device-private stride, so clusters
/// are well separated: any arrival order yields exactly `DEVICES` clusters.
fn device_output(d: u64, noise: u64) -> ErrorString {
    let mut bits: Vec<u64> = (0..50).map(|i| 10_000 + d * 200 + i).collect();
    bits.push(20_000 + (d * 97 + noise * 13) % 5_000);
    bits.sort_unstable();
    es(&bits)
}

#[test]
fn hammer_loses_nothing_and_matches_the_sequential_reference() {
    let handle = server::start(ServerConfig {
        store: StoreConfig {
            threshold: THRESHOLD,
            ..StoreConfig::default()
        },
        // A 2-deep queue under 8 client threads forces `busy`.
        queue_capacity: 2,
        retry_after_ms: 1,
        ..ServerConfig::default()
    })
    .unwrap();

    let mut setup = ServiceClient::connect(handle.local_addr()).unwrap();
    for c in 0..CHIPS {
        setup
            .call(&Request::Characterize {
                label: format!("chip-{c:02}"),
                errors: es(&chip_bits(c)),
            })
            .unwrap();
    }

    let busy_seen = Arc::new(AtomicU64::new(0));
    let addr = handle.local_addr();
    let workers: Vec<_> = (0..CLIENTS)
        .map(|t| {
            let busy_seen = Arc::clone(&busy_seen);
            std::thread::spawn(move || {
                let mut client = ServiceClient::connect(addr).unwrap();
                let mut outcomes = Vec::new();
                for i in 0..REQUESTS_PER_CLIENT {
                    let request = if (t + i) % 2 == 0 {
                        Request::Identify {
                            errors: es(&chip_bits((t * 7 + i) % CHIPS)),
                        }
                    } else {
                        Request::ClusterIngest {
                            errors: device_output((t + i) % DEVICES, t * 100 + i),
                        }
                    };
                    // Manual retry loop so `busy` responses are observable.
                    let response = loop {
                        match client.call(&request).unwrap() {
                            Response::Busy { retry_after_ms } => {
                                assert!(retry_after_ms > 0, "busy must carry a back-off hint");
                                busy_seen.fetch_add(1, Ordering::Relaxed);
                                std::thread::sleep(Duration::from_millis(retry_after_ms));
                            }
                            other => break other,
                        }
                    };
                    outcomes.push((request, response));
                }
                outcomes
            })
        })
        .collect();

    let mut ingested = Vec::new();
    let mut total_responses = 0u64;
    for worker in workers {
        for (request, response) in worker.join().expect("client thread panicked") {
            total_responses += 1;
            match (request, response) {
                (Request::Identify { errors }, Response::Match { label, .. }) => {
                    // The probe IS a chip's fingerprint: it must match it.
                    let expected = errors.positions()[0] / 60;
                    assert_eq!(label, format!("chip-{expected:02}"));
                }
                (Request::Identify { .. }, other) => {
                    panic!("identify of a known chip answered {other:?}")
                }
                (Request::ClusterIngest { errors }, Response::Clustered { .. }) => {
                    ingested.push(errors);
                }
                (Request::ClusterIngest { .. }, other) => {
                    panic!("cluster-ingest answered {other:?}")
                }
                (req, _) => panic!("unexpected request shape {req:?}"),
            }
        }
    }
    assert_eq!(
        total_responses,
        CLIENTS * REQUESTS_PER_CLIENT,
        "every request must produce exactly one terminal response"
    );

    // The server's own accounting agrees with what clients observed: every
    // busy response was one rejected submission, everything else admitted.
    let stats = match setup.call(&Request::Stats).unwrap() {
        Response::Stats(s) => s,
        other => panic!("expected stats, got {other:?}"),
    };
    assert_eq!(stats.rejected, busy_seen.load(Ordering::Relaxed));
    assert_eq!(
        stats.admitted,
        CHIPS + CLIENTS * REQUESTS_PER_CLIENT,
        "admitted = setup characterizes + every eventually-accepted request"
    );

    // Cluster count matches the single-threaded Algorithm 4 on the same
    // (well-separated) outputs, regardless of arrival order.
    let reference = cluster(&ingested, &PcDistance::new(), THRESHOLD);
    assert_eq!(reference.len() as u64, DEVICES);
    assert_eq!(stats.clusters, DEVICES);

    handle.shutdown_and_wait().unwrap();
}
