//! The serving path against its oracles, driven through [`Pool`] directly:
//! mixed identify / characterize / cluster-ingest traffic, answered under
//! kernel thread overrides of 1, 2 and 4 (the dispatcher answers every job
//! on its own thread, so the override must not matter), must equal a
//! serial [`FingerprintDb`] replay in admission order; a scoring panic
//! fails only its own request; and a store opened from a saved database
//! and index adopts the index without re-signing a single entry.
//! Cluster-ingests are checked against Algorithm 4's scalar per-pair path
//! ([`ScalarPc`]), not the `ClusterBook` the store runs.
//!
//! The fault registry, the kernel thread override and the telemetry
//! counters are process-wide, so every test here serializes on one mutex.

use pc_kernels::set_auto_thread_override;
use pc_service::pool::{Job, Outbound, Pool, SubmissionQueue};
use pc_service::protocol::{Request, Response};
use pc_service::server::{self, ServerConfig};
use pc_service::store::{ShardedStore, StoreConfig};
use pc_service::ServiceClient;
use pc_telemetry::trace::Tracer;
use probable_cause::persistence::{save_db_to_path, save_index_to_path};
use probable_cause::{
    cluster, DistanceMetric, ErrorString, Fingerprint, FingerprintDb, PcDistance,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};

static LOCK: Mutex<()> = Mutex::new(());

const SIZE: u64 = 32_768;
const THRESHOLD: f64 = 0.3;
/// Chips characterized before the traffic starts.
const SEEDED: u64 = 24;
/// Labels the traffic may name: the seeded chips plus chips it creates.
const LABELS: u64 = 40;

fn es(mut bits: Vec<u64>) -> ErrorString {
    bits.sort_unstable();
    bits.dedup();
    ErrorString::from_sorted(bits, SIZE).unwrap()
}

fn chip_bits(c: u64) -> Vec<u64> {
    (0..60).map(|i| c * 60 + i).collect()
}

/// Chip `c` seen once more: about one in twenty of its bits missing, one
/// stray error.
fn noisy(c: u64, r: u64) -> ErrorString {
    let mut bits: Vec<u64> = chip_bits(c)
        .into_iter()
        .filter(|b| !(b ^ r).is_multiple_of(20))
        .collect();
    bits.push(20_000 + r % 10_000);
    es(bits)
}

/// An observation a characterize refines chip `c` with: one of its first
/// three bits missing, one stray error. Refines intersect, so a chip's
/// fingerprint loses at most three bits and every noisy probe of it stays
/// inside the index's recall: at the resulting Jaccard similarity of about
/// 0.9, a 16×4 banding misses a pair with probability ~4e-8, so the pruned
/// answer equals the linear scan's.
fn observation(c: u64, r: u64) -> ErrorString {
    let mut bits = chip_bits(c);
    bits.remove((r % 3) as usize);
    bits.push(20_000 + r % 10_000);
    es(bits)
}

/// Device `d`'s outputs, far from every chip and from each other.
fn device_output(d: u64, r: u64) -> ErrorString {
    let mut bits: Vec<u64> = (0..50).map(|i| 5_000 + d * 200 + i).collect();
    bits.push(30_000 + r % 2_000);
    es(bits)
}

/// [`PcDistance`] with its packed form hidden, counting its calls:
/// `cluster` then takes the scalar per-pair path, an Algorithm 4 oracle
/// independent of the `ClusterBook` the store runs.
#[derive(Default)]
struct ScalarPc(AtomicU64);

impl DistanceMetric for ScalarPc {
    fn distance(&self, fingerprint: &ErrorString, error_string: &ErrorString) -> f64 {
        self.0.fetch_add(1, Ordering::Relaxed);
        PcDistance::new().distance(fingerprint, error_string)
    }
    fn name(&self) -> &'static str {
        "pc-jaccard (scalar)"
    }
}

/// The `(cluster, seeded, clusters)` answers of a serial cluster-ingest
/// stream, read off the scalar oracle's assignments.
fn clustered(ingests: &[ErrorString]) -> (Vec<(u64, bool, u64)>, u64) {
    let metric = ScalarPc::default();
    let assignments = cluster(ingests, &metric, THRESHOLD).assignments().to_vec();
    let answers = (0..assignments.len())
        .map(|i| {
            let cluster = assignments[i];
            let seeded = !assignments[..i].contains(&cluster);
            let clusters = assignments[..=i].iter().max().map_or(0, |m| m + 1);
            (cluster as u64, seeded, clusters as u64)
        })
        .collect();
    (answers, metric.0.load(Ordering::Relaxed))
}

fn store_config() -> StoreConfig {
    StoreConfig {
        threshold: THRESHOLD,
        ..StoreConfig::default()
    }
}

/// A store holding chips `0..SEEDED`, and the same database built directly.
fn seeded() -> (Arc<ShardedStore>, FingerprintDb<String, PcDistance>) {
    let store = ShardedStore::new(store_config());
    let mut db = FingerprintDb::new(PcDistance::new(), THRESHOLD);
    for c in 0..SEEDED {
        let label = format!("chip-{c:03}");
        store.characterize(&label, &es(chip_bits(c))).unwrap();
        db.insert(label, Fingerprint::from_observation(es(chip_bits(c))));
    }
    (Arc::new(store), db)
}

/// The generated traffic: 55% identifies (some of chips not yet created,
/// some of strangers), 30% characterizes (creating and refining), 15%
/// cluster-ingests.
fn traffic(seed: u64, n: usize) -> Vec<Request> {
    (0..n as u64)
        .map(|i| {
            let r = pc_stats::mix64(seed ^ pc_stats::mix64(i));
            let pick = r % 100;
            let chip = (r >> 8) % LABELS;
            if pick < 50 {
                Request::Identify {
                    errors: noisy(chip, r >> 20),
                }
            } else if pick < 55 {
                Request::Identify {
                    errors: es((0..40).map(|k| 25_000 + (r >> 20) % 500 + k * 3).collect()),
                }
            } else if pick < 85 {
                Request::Characterize {
                    label: format!("chip-{chip:03}"),
                    errors: observation(chip, r >> 20),
                }
            } else {
                Request::ClusterIngest {
                    errors: device_output(chip % 6, r >> 20),
                }
            }
        })
        .collect()
}

fn job(seq: u64, request: &Request, reply: &mpsc::Sender<Outbound>) -> Job {
    let reply = reply.clone();
    match request.clone() {
        Request::Identify { errors } => Job::Identify {
            seq,
            errors: Arc::new(errors),
            reply,
            trace: None,
        },
        Request::Characterize { label, errors } => Job::Characterize {
            seq,
            label,
            errors,
            reply,
            trace: None,
            wseq: None,
        },
        Request::ClusterIngest { errors } => Job::ClusterIngest {
            seq,
            errors,
            reply,
            trace: None,
            wseq: None,
        },
        other => panic!("traffic never holds {other:?}"),
    }
}

/// What the serial oracle says each request answers, in admission order.
fn oracle(mut db: FingerprintDb<String, PcDistance>, requests: &[Request]) -> Vec<Response> {
    let mut ids: BTreeMap<String, usize> = db
        .iter()
        .enumerate()
        .map(|(id, (label, _))| (label.clone(), id))
        .collect();
    let ingests: Vec<ErrorString> = requests
        .iter()
        .filter_map(|r| match r {
            Request::ClusterIngest { errors } => Some(errors.clone()),
            _ => None,
        })
        .collect();
    let mut clustered = clustered(&ingests).0.into_iter();
    requests
        .iter()
        .map(|request| match request {
            Request::Identify { errors } => match db.identify_with_distance(errors) {
                Some((label, distance)) => Response::Match {
                    label: label.clone(),
                    distance,
                },
                None => Response::NoMatch { closest: None },
            },
            Request::Characterize { label, errors } => {
                let (fp, created) = match ids.get(label) {
                    Some(&id) => {
                        let refined = db.entry(id).unwrap().1.refine(errors).unwrap();
                        db.replace(id, refined.clone());
                        (refined, false)
                    }
                    None => {
                        let fp = Fingerprint::from_observation(errors.clone());
                        ids.insert(label.clone(), db.len());
                        db.insert(label.clone(), fp.clone());
                        (fp, true)
                    }
                };
                Response::Characterized {
                    label: label.clone(),
                    weight: fp.weight(),
                    observations: fp.observations(),
                    created,
                }
            }
            Request::ClusterIngest { .. } => {
                let (cluster, seeded, clusters) = clustered.next().unwrap();
                Response::Clustered {
                    cluster,
                    seeded,
                    clusters,
                }
            }
            other => panic!("traffic never holds {other:?}"),
        })
        .collect()
}

/// The pool's answer with the part the oracle cannot know stripped: a
/// miss's closest candidate is whichever LSH candidate scored best.
fn comparable(response: Response) -> Response {
    match response {
        Response::NoMatch { .. } => Response::NoMatch { closest: None },
        other => other,
    }
}

#[test]
fn pool_answers_equal_the_serial_db_oracle_at_every_thread_count() {
    let _serial = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    for threads in [1, 2, 4] {
        set_auto_thread_override(Some(threads));
        let (store, db) = seeded();
        let requests = traffic(threads as u64, 400);
        let expected = oracle(db, &requests);
        let matches = expected
            .iter()
            .filter(|r| matches!(r, Response::Match { .. }))
            .count();
        assert!(
            matches > 100,
            "the traffic must exercise matches: {matches}"
        );

        let queue = Arc::new(SubmissionQueue::new(requests.len()));
        let (tx, rx) = mpsc::channel();
        let (queued, live) = requests.split_at(requests.len() / 2);
        // Half the traffic waits in the queue before the dispatcher starts,
        // so it drains in mixed batches of identifies and mutations; the
        // rest arrives while it serves.
        for (seq, request) in queued.iter().enumerate() {
            assert!(queue.try_submit(job(seq as u64, request, &tx)).is_ok());
        }
        let pool = Pool::spawn(
            Arc::clone(&store),
            Arc::clone(&queue),
            16,
            Arc::new(Tracer::disabled()),
        );
        for (seq, request) in live.iter().enumerate() {
            let seq = (queued.len() + seq) as u64;
            assert!(queue.try_submit(job(seq, request, &tx)).is_ok());
        }
        pool.drain_and_join();
        drop(tx);

        let mut got: BTreeMap<u64, Response> =
            rx.iter().map(|out| (out.seq, out.response)).collect();
        assert_eq!(got.len(), requests.len(), "every job answered once");
        for (seq, want) in expected.into_iter().enumerate() {
            let response = got.remove(&(seq as u64)).unwrap();
            assert_eq!(
                comparable(response),
                want,
                "{threads} threads, request {seq}: {:?}",
                requests[seq]
            );
        }
    }
    set_auto_thread_override(None);
}

/// Outputs of `devices` devices, each holding `per_block[b]` stable bits
/// in block `b` of a `size`-bit string, seen `rounds` times at noise levels
/// on both sides of [`THRESHOLD`].
fn ingest_stream(
    seed: u64,
    size: u64,
    per_block: &[u64],
    devices: u64,
    rounds: u64,
) -> Vec<ErrorString> {
    let stable: Vec<Vec<u64>> = (0..devices)
        .map(|d| {
            per_block
                .iter()
                .enumerate()
                .flat_map(|(b, &n)| {
                    let lo = b as u64 * 32_768;
                    let len = 32_768.min(size - lo);
                    (0..n).map(move |i| {
                        lo + pc_stats::mix64(seed ^ d << 40 ^ (b as u64) << 32 ^ i) % len
                    })
                })
                .collect()
        })
        .collect();
    (0..rounds * devices)
        .map(|k| {
            let r = pc_stats::mix64(seed ^ k);
            // Drop about 1/20, 1/6 or 1/3 of the device's bits (distance
            // ≈ 0.05, 0.17, 0.33 against the 0.3 threshold), add strays.
            let drop_every = [20, 6, 3][(r % 3) as usize];
            let kept = stable[(k % devices) as usize]
                .iter()
                .copied()
                .filter(|&b| !pc_stats::mix64(b ^ r).is_multiple_of(drop_every));
            let strays = (0..(r >> 8) % 40).map(|i| pc_stats::mix64(r ^ i) % size);
            ErrorString::from_unsorted(kept.chain(strays).collect(), size).unwrap()
        })
        .collect()
}

#[test]
fn cluster_ingest_equals_the_scalar_algorithm_4_oracle() {
    let _serial = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let empty = |size| ErrorString::from_sorted(Vec::new(), size).unwrap();
    let sparse = ingest_stream(1, SIZE, &[312], 16, 6);
    let dense = ingest_stream(2, SIZE, &[3_000], 6, 4);
    let ragged = 3 * SIZE + 1_000;
    let mut multi = ingest_stream(3, ragged, &[300, 2_200, 0, 400], 8, 4);
    multi.insert(5, empty(ragged));
    multi.push(empty(ragged));
    let mut empty_first = vec![empty(SIZE)];
    empty_first.extend(sparse.iter().take(10).cloned());
    for (name, stream) in [
        ("sparse", sparse),
        ("dense", dense),
        ("multi-block", multi),
        ("empty first", empty_first),
    ] {
        let store = ShardedStore::new(store_config());
        let answers: Vec<(u64, bool, u64)> = stream
            .iter()
            .map(|errors| store.cluster_ingest(errors).unwrap())
            .collect();
        let (expected, distance_calls) = clustered(&stream);
        assert_eq!(answers, expected, "{name} stream");
        assert_eq!(store.distance_evals(), distance_calls, "{name} stream");
        let clusters = store.cluster_count();
        assert_eq!(
            Some(clusters as u64),
            expected.last().map(|a| a.2),
            "{name} stream"
        );
        if name == "sparse" {
            // Noise on both sides of the threshold: some outputs refine a
            // cluster, some re-observations seed another.
            assert!(
                16 < clusters && clusters < stream.len(),
                "{clusters} clusters"
            );
        }
    }
}

#[test]
fn a_scoring_panic_fails_only_its_own_identify() {
    let _serial = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let (store, _) = seeded();
    let queue = Arc::new(SubmissionQueue::new(16));
    let (tx, rx) = mpsc::channel();
    let identify = |c: u64| Request::Identify {
        errors: es(chip_bits(c)),
    };
    // Four identifies queued before the dispatcher starts: one batch,
    // answered one at a time in admission order, so the second fault-site
    // call is exactly seq 1's.
    for seq in 0..4 {
        assert!(queue.try_submit(job(seq, &identify(seq), &tx)).is_ok());
    }
    pc_faults::install(pc_faults::FaultPlan::parse("seed=1;store.score=n2").unwrap());
    let pool = Pool::spawn(
        Arc::clone(&store),
        Arc::clone(&queue),
        8,
        Arc::new(Tracer::disabled()),
    );
    let run: Vec<Outbound> = rx.iter().take(4).collect();
    pc_faults::uninstall();

    let failed: Vec<u64> = run
        .iter()
        .filter_map(|out| match &out.response {
            Response::Error { message } => {
                assert!(message.contains("panicked"), "{message:?}");
                Some(out.seq)
            }
            Response::Match { label, distance } => {
                assert_eq!((label, *distance), (&format!("chip-{:03}", out.seq), 0.0));
                None
            }
            other => panic!("identify {} answered {other:?}", out.seq),
        })
        .collect();
    assert_eq!(failed, [1], "exactly the second probe fails");
    assert_eq!(pool.metrics().worker_panics(), 1);

    // The dispatcher keeps serving.
    assert!(queue.try_submit(job(4, &identify(7), &tx)).is_ok());
    let next = rx.recv().unwrap();
    assert_eq!(
        (next.seq, next.response),
        (
            4,
            Response::Match {
                label: "chip-007".to_string(),
                distance: 0.0
            }
        )
    );
    pool.drain_and_join();
}

#[test]
fn opening_a_saved_store_adopts_its_index_without_signing() {
    let _serial = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let dir = std::env::temp_dir().join(format!("pc-store-open-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (db_path, index_path) = (dir.join("db.txt"), dir.join("index.txt"));
    let (_, db) = seeded();
    let config = store_config();
    let index = db.build_index(config.bands, config.rows_per_band, config.index_seed);
    save_db_to_path(&db, &db_path).unwrap();
    save_index_to_path(&index, &index_path).unwrap();

    let collector = pc_telemetry::install();
    let inserts = || {
        collector
            .counters_snapshot()
            .get("core.index.inserts")
            .copied()
            .unwrap_or(0)
    };
    let before = inserts();
    let handle = server::start(ServerConfig {
        store: config,
        db_path: Some(db_path),
        index_path: Some(index_path),
        ..ServerConfig::default()
    })
    .unwrap();
    assert_eq!(inserts(), before, "opening re-signed entries");

    let mut client = ServiceClient::connect(handle.local_addr()).unwrap();
    match client.call(&Request::Stats).unwrap() {
        Response::Stats(s) => assert_eq!(s.fingerprints, SEEDED),
        other => panic!("expected stats, got {other:?}"),
    }
    assert_eq!(
        client
            .call(&Request::Identify {
                errors: noisy(5, 3)
            })
            .unwrap(),
        Response::Match {
            label: "chip-005".to_string(),
            distance: db.identify_with_distance(&noisy(5, 3)).unwrap().1
        }
    );
    handle.shutdown_and_wait().unwrap();
    assert_eq!(inserts(), before, "serving identifies signs nothing");
    std::fs::remove_dir_all(&dir).ok();
}
