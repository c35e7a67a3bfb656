//! The in-process traced replay: the workload's generated requests driven
//! through the public functions of each layer, with a span around every
//! call. Nothing inside the program is instrumented; the spans are the
//! benchmark's own.
//!
//! A replayed request is one root span (`request`) whose children are the
//! layers a served request crosses, in order: request encode, frame write,
//! frame read, request decode, the store work (`store.plan`, one
//! `store.score_shard` per shard holding candidates, `store.merge`; or
//! `store.characterize` / `store.cluster_ingest`), then the same four codec
//! steps for the response. The index and kernel calls hidden inside the
//! store are replayed as their own root spans on the same inputs.

use crate::gen::{self, Planned};
use crate::load::Answer;
use crate::spans::Recorder;
use crate::stats::{mean, quantile, us};
use pc_kernels::{distance_packed, score_subset, MetricKind, PackedErrors, Parallelism};
use pc_service::codec::{read_frame, write_frame, MAX_FRAME_BYTES};
use pc_service::pool::{Job, Pool, SubmissionQueue};
use pc_service::protocol::{self, Request, Response, OPS};
use pc_service::store::{ShardedStore, StoreConfig};
use pc_telemetry::trace::Tracer;
use probable_cause::persistence;
use probable_cause::{FingerprintDb, LshIndex, PcDistance};
use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::sync::{mpsc, Arc};
use std::time::Instant;

/// What the replay needs from the run.
pub struct Inputs<'a> {
    /// The workload's request pool.
    pub pool: &'a [Planned],
    /// The database the servers loaded (the oracle's copy).
    pub db: &'a FingerprintDb<String, PcDistance>,
    /// The persisted database and index files.
    pub db_path: &'a Path,
    /// The persisted index file.
    pub index_path: &'a Path,
    /// The workload seed.
    pub seed: u64,
    /// Cluster devices (0 when the mix has no ingests).
    pub devices: usize,
    /// The linear-scan oracle's verdict per pool index.
    pub oracle: &'a HashMap<usize, Answer>,
    /// Requests the servers keep in flight, reused for the pool replay.
    pub in_flight: usize,
}

/// Requests replayed per run: at most `REPLAY`, at least `MIN_REPLAY`, and
/// no more once `REPLAY_BUDGET` has passed (ingests cost milliseconds).
const REPLAY: usize = 1_500;
const MIN_REPLAY: usize = 200;
const REPLAY_BUDGET: std::time::Duration = std::time::Duration::from_secs(2);

fn p50_us(values: &[u64]) -> f64 {
    us(quantile(values, 0.5))
}

fn secs(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

fn chip_of(label: &str) -> usize {
    label
        .strip_prefix("chip-")
        .and_then(|n| n.parse().ok())
        .expect("generated labels are chip-<n>")
}

/// `(metric, value)` pairs.
pub type Values = Vec<(&'static str, f64)>;

/// Replays the pool through each layer and returns the layer metrics plus
/// the recorded spans.
///
/// # Errors
///
/// Unreadable persisted files, or a store that refuses a request.
pub fn measure(inp: &Inputs<'_>) -> Result<(Values, Recorder), String> {
    let mut m = Values::new();
    let mut index: Option<LshIndex> = None;
    m.push((
        "persistence.load_index_s",
        secs(|| {
            index = persistence::load_index_from_path(inp.index_path)
                .ok()
                .map(|r| r.value)
        }),
    ));
    let mut index = index.ok_or("persisted index does not load")?;
    let mut store = None;
    m.push((
        "store.from_db_with_index_s",
        secs(|| {
            store =
                ShardedStore::from_db_with_index(StoreConfig::default(), inp.db, index.clone()).ok()
        }),
    ));
    let store = Arc::new(store.ok_or("persisted index does not match the database")?);
    m.push(("store.rebuild_index_s", secs(|| store.rebuild_index())));
    m.push((
        "persistence.db_mb",
        std::fs::metadata(inp.db_path)
            .map_err(|e| e.to_string())?
            .len() as f64
            / 1e6,
    ));

    let kind = MetricKind::PcJaccard;
    // The cluster book as the servers hold it after seeding: device d owns
    // cluster d.
    let seeds = gen::seed_outputs(inp.seed, inp.devices);
    for errors in &seeds {
        store.cluster_ingest(errors).map_err(|e| e.to_string())?;
    }
    let clusters: Vec<PackedErrors> = seeds.iter().map(|e| e.to_packed()).collect();

    let mut rec = Recorder::new();
    let mut request_bytes = Vec::new();
    let (mut recalled, mut identifies, mut matches, mut scored) = (0u64, 0u64, 0u64, 0u64);
    let (mut ingest_bytes, mut ingest_ns, mut ingests) = (0u64, 0u64, 0u64);
    let mut distance_ns = Vec::new();
    let mut subset_ns = Vec::new();
    let deadline = Instant::now() + REPLAY_BUDGET;
    for (i, planned) in inp.pool.iter().take(REPLAY).enumerate() {
        if i >= MIN_REPLAY && Instant::now() > deadline {
            break;
        }
        let req = i as u64;
        let root = rec.open("request", None, req);
        let p = Some(root);
        let obj = rec.time("protocol.encode_request", p, req, || {
            protocol::encode_request(req, &planned.request)
        });
        let mut frame = Vec::new();
        rec.time("codec.write_frame", p, req, || {
            write_frame(&mut frame, &obj)
        })
        .map_err(|e| e.to_string())?;
        request_bytes.push(frame.len() as u64);
        let value = rec
            .time("codec.read_frame", p, req, || {
                read_frame(&mut frame.as_slice(), MAX_FRAME_BYTES)
            })
            .map_err(|e| e.to_string())?;
        let (_, request) = rec
            .time("protocol.decode_request", p, req, || {
                protocol::decode_request(&value)
            })
            .map_err(|e| e.to_string())?;
        let response = match &request {
            Request::Identify { errors } => {
                let (plan, total) = rec.time("store.plan", p, req, || store.plan_identify(errors));
                let mut partials = Vec::new();
                for (shard, ids) in plan.iter().enumerate().filter(|(_, ids)| !ids.is_empty()) {
                    let best = rec
                        .time("store.score_shard", p, req, || {
                            store.score_shard(shard, ids, errors)
                        })
                        .map_err(|e| e.to_string())?;
                    partials.extend(best);
                }
                let verdict = rec.time("store.merge", p, req, || store.merge_verdict(partials));
                identifies += 1;
                scored += total as u64;
                let response = match verdict {
                    Ok((label, distance)) => {
                        matches += 1;
                        Response::Match { label, distance }
                    }
                    Err(closest) => Response::NoMatch { closest },
                };
                if Answer::of(&response).as_ref() == inp.oracle.get(&i) {
                    recalled += 1;
                }
                response
            }
            Request::Characterize { label, errors } => {
                let (weight, observations, created) = rec
                    .time("store.characterize", p, req, || {
                        store.characterize(label, errors)
                    })
                    .map_err(|e| e.to_string())?;
                Response::Characterized {
                    label: label.clone(),
                    weight,
                    observations,
                    created,
                }
            }
            Request::ClusterIngest { errors } => {
                let (cluster, seeded, total) = rec
                    .time("store.cluster_ingest", p, req, || {
                        store.cluster_ingest(errors)
                    })
                    .map_err(|e| e.to_string())?;
                Response::Clustered {
                    cluster,
                    seeded,
                    clusters: total,
                }
            }
            other => return Err(format!("unexpected request in the pool: {other:?}")),
        };
        let obj = rec.time("protocol.encode_response", p, req, || {
            protocol::encode_response(req, &response)
        });
        let mut frame = Vec::new();
        rec.time("codec.write_frame", p, req, || {
            write_frame(&mut frame, &obj)
        })
        .map_err(|e| e.to_string())?;
        let value = rec
            .time("codec.read_frame", p, req, || {
                read_frame(&mut frame.as_slice(), MAX_FRAME_BYTES)
            })
            .map_err(|e| e.to_string())?;
        rec.time("protocol.decode_response", p, req, || {
            protocol::decode_response(&value)
        })
        .map_err(|e| e.to_string())?;
        rec.close(root);

        // The index and kernel work hidden inside the store, on the same
        // inputs, each as its own root span.
        match &request {
            Request::Identify { errors } => {
                let ids = rec.time("index.candidates", None, req, || index.candidates(errors));
                let probe = errors.to_packed();
                let entries: Vec<PackedErrors> = ids
                    .iter()
                    .filter_map(|&id| inp.db.entry(id as usize))
                    .map(|(_, fp)| fp.errors().to_packed())
                    .collect();
                let slots: Vec<usize> = (0..entries.len()).collect();
                let t = Instant::now();
                std::hint::black_box(score_subset(
                    &entries,
                    &slots,
                    &probe,
                    kind,
                    Parallelism::single(),
                ));
                subset_ns.push(t.elapsed().as_nanos() as u64);
            }
            Request::Characterize { label, .. } => {
                let chip = chip_of(label);
                let errors = inp
                    .db
                    .entry(chip)
                    .map(|(_, fp)| fp.errors().clone())
                    .ok_or("characterize of an unknown chip")?;
                rec.time("index.insert", None, req, || {
                    index.insert(chip as u32, &errors)
                });
            }
            Request::ClusterIngest { errors } => {
                // Algorithm 4's first-match scan, as the store runs it.
                let probe = errors.to_packed();
                let t = Instant::now();
                let mut compared = 0u64;
                for c in &clusters {
                    compared += 1;
                    ingest_bytes += c.container_bytes();
                    if distance_packed(c, &probe, kind) < gen::THRESHOLD {
                        break;
                    }
                }
                let ns = t.elapsed().as_nanos() as u64;
                ingest_ns += ns;
                ingests += 1;
                distance_ns.push(ns / compared.max(1));
            }
            _ => {}
        }
    }

    let roots: Vec<(u64, u64)> = {
        let self_times = rec.self_times_ns();
        rec.spans()
            .iter()
            .zip(&self_times)
            .filter(|(s, _)| s.name == "request")
            .map(|(s, &own)| (s.duration_ns(), own))
            .collect()
    };
    let total: u64 = roots.iter().map(|r| r.0).sum();
    let unattributed: u64 = roots.iter().map(|r| r.1).sum();
    m.push((
        "trace.layer_sum_share",
        if total == 0 {
            0.0
        } else {
            1.0 - unattributed as f64 / total as f64
        },
    ));
    m.push(("protocol.request_bytes", mean(&request_bytes)));
    for (metric, span) in [
        ("protocol.encode_request_us", "protocol.encode_request"),
        ("protocol.decode_request_us", "protocol.decode_request"),
        ("protocol.encode_response_us", "protocol.encode_response"),
        ("protocol.decode_response_us", "protocol.decode_response"),
        ("codec.write_frame_us", "codec.write_frame"),
        ("codec.read_frame_us", "codec.read_frame"),
        ("store.plan_us", "store.plan"),
        ("store.merge_us", "store.merge"),
        ("store.characterize_us", "store.characterize"),
        ("store.cluster_ingest_us", "store.cluster_ingest"),
        ("index.candidates_us", "index.candidates"),
        ("index.insert_us", "index.insert"),
    ] {
        m.push((metric, p50_us(&rec.durations(span))));
    }
    let shard_sums = per_request_sum(&rec, "store.score_shard");
    m.push(("store.score_shard_us", p50_us(&shard_sums)));
    m.push(("index.recall", ratio(recalled, identifies)));
    m.push(("index.precision", ratio(matches, scored)));
    m.push((
        "kernels.distance_packed_ns",
        quantile(&distance_ns, 0.5) as f64,
    ));
    m.push(("kernels.score_subset_us", p50_us(&subset_ns)));
    m.push(("kernels.bytes_per_ingest", ratio(ingest_bytes, ingests)));
    m.push((
        "kernels.scan_gbps",
        if ingest_ns == 0 {
            0.0
        } else {
            ingest_bytes as f64 / ingest_ns as f64
        },
    ));

    // Scatter/gather: the pool's mean score stage minus the mean store work
    // it wraps (plan, shard scoring, merge), both per identify.
    let scatter = if identifies > 0 {
        let score = pool_score_ns(&store, inp.pool, inp.in_flight)?;
        let store_ns: u64 = ["store.plan", "store.score_shard", "store.merge"]
            .iter()
            .flat_map(|name| rec.durations(name))
            .sum();
        (score - store_ns as f64 / identifies as f64) / 1e3
    } else {
        0.0
    };
    m.push(("pool.scatter_gather_us", scatter));
    Ok((m, rec))
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Per request, the summed duration of its spans called `name`.
fn per_request_sum(rec: &Recorder, name: &str) -> Vec<u64> {
    let mut sums: Vec<(u64, u64)> = Vec::new();
    for s in rec.spans().iter().filter(|s| s.name == name) {
        match sums.last_mut() {
            Some((req, total)) if *req == s.request => *total += s.duration_ns(),
            _ => sums.push((s.request, s.duration_ns())),
        }
    }
    sums.into_iter().map(|(_, t)| t).collect()
}

/// Mean score-stage time of the pool's dispatcher + shard workers over the
/// pool's identifies, submitted `in_flight` at a time.
fn pool_score_ns(
    store: &Arc<ShardedStore>,
    pool: &[Planned],
    in_flight: usize,
) -> Result<f64, String> {
    let queue = Arc::new(SubmissionQueue::new(1024));
    let tracer = Arc::new(Tracer::new(OPS, 1, None, true));
    let workers = Pool::spawn(
        Arc::clone(store),
        Arc::clone(&queue),
        32,
        Arc::clone(&tracer),
    );
    let (tx, rx) = mpsc::channel();
    let probes: Vec<_> = pool
        .iter()
        .take(REPLAY)
        .filter_map(|p| match &p.request {
            Request::Identify { errors } => Some(Arc::new(errors.clone())),
            _ => None,
        })
        .collect();
    let mut pending: VecDeque<usize> = (0..probes.len()).collect();
    let mut outstanding = 0usize;
    let mut score_ns = Vec::with_capacity(probes.len());
    let result = loop {
        while outstanding < in_flight.max(1) {
            let Some(i) = pending.pop_front() else { break };
            let job = Job::Identify {
                seq: i as u64,
                errors: Arc::clone(&probes[i]),
                reply: tx.clone(),
                trace: tracer.begin(0, i as u64, "identify", 0, true),
            };
            if queue.try_submit(job).is_err() {
                break;
            }
            outstanding += 1;
        }
        if outstanding == 0 {
            break Ok(());
        }
        match rx.recv() {
            Ok(out) => {
                outstanding -= 1;
                match out.response {
                    Response::Traced { trace, .. } => score_ns.push(trace.score_ns),
                    other => break Err(format!("pool answered {other:?}")),
                }
            }
            Err(e) => break Err(e.to_string()),
        }
    };
    workers.drain_and_join();
    result?;
    Ok(mean(&score_ns))
}
