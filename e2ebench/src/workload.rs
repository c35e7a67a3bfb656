//! The three workloads and one run of each: generate, set up, time, check.
//!
//! - `identify-100k` — one `pc serve` over a persisted 100 000-chip
//!   database and index; pure identify, 2 connections × 16 in flight, 90%
//!   noisy re-observations of enrolled chips and 10% strangers. The fixed
//!   per-request read path (JSON codec, connection threads, queue wait,
//!   scatter/gather, LSH planning) does nearly all the work; the kernel
//!   scores a few candidates. Depth 32 gives `pop_batch` several jobs to
//!   drain at once, and at 100k chips set-up shows the cost of re-signing
//!   at open.
//! - `ingest-10k` — one `pc serve` over a persisted 10 000-chip database;
//!   writes only, 2 connections × 1 in flight: 80% `cluster-ingest` outputs
//!   of 1 024 devices seeded into the cluster book during set-up, 20%
//!   `characterize` refines of enrolled labels. Each ingest's first-match
//!   scan over about half the book (`distance_packed`, serialized on the
//!   dispatcher) and each refine's index re-sign dominate; LSH lookup does
//!   nothing.
//! - `routed-mixed-10k` — `pc route` (default ring) over 3 `pc serve`
//!   replicas, each with its own copy of the 10k database; 90% identify,
//!   10% `characterize`, 2 connections × 1 in flight. The only workload that
//!   crosses the router hop: pooled forwarding, write fan-out under the
//!   mutation lock with journaling, and router-driven checkpoints. Replica
//!   queues stay at depth ≤ 2, so batching has nothing to batch here.
//!
//! Every timed window is stationary: the database size and the cluster book
//! size are checked to be the same before and after it (refines sit at the
//! Algorithm 1 fixed point, and every device is seeded before timing).

use crate::cluster::{self, control_client, Launcher, Node};
use crate::gen::{self, Expect, Mix, Planned};
use crate::layers;
use crate::load::{self, Answer, LoadResult, LoadSpec, Sampled, OPS};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::spans::Recorder;
use crate::stats::{mean, median_f64, ms, quantile, us};
use pc_service::protocol::{Request, Response, StatsBody, TraceRecord};
use pc_service::store::StoreConfig;
use pc_telemetry::{JsonObject, JsonValue};
use probable_cause::persistence;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Pure identify against one replica over 100 000 chips.
    Identify100k,
    /// Algorithm-4 ingest plus characterize refines, one replica, 10 000 chips.
    Ingest10k,
    /// 90/10 identify/characterize through `pc route` over 3 replicas.
    RoutedMixed10k,
}

/// Client connections of every workload, one generator thread each: the
/// core count of the machine the benchmark was defined on.
pub const CONNECTIONS: usize = 2;

/// The seed kept out of tuning, for confirming a claim.
pub const HELD_OUT_SEED: u64 = 20_151_013;

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::Identify100k,
        Workload::Ingest10k,
        Workload::RoutedMixed10k,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Identify100k => "identify-100k",
            Workload::Ingest10k => "ingest-10k",
            Workload::RoutedMixed10k => "routed-mixed-10k",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's full-size shape.
    pub fn shape(self) -> Shape {
        match self {
            Workload::Identify100k => Shape {
                chips: 100_000,
                devices: 0,
                pool: 256,
                mix: Mix {
                    identify: 1.0,
                    characterize: 0.0,
                    ingest: 0.0,
                    strangers: 0.1,
                },
                replicas: 1,
                depth: 16,
                setups: 2,
                timed_setups: 2,
                warmup: Duration::from_secs(1),
            },
            Workload::Ingest10k => Shape {
                chips: 10_000,
                devices: 1_024,
                pool: 4_096,
                mix: Mix {
                    identify: 0.0,
                    characterize: 0.2,
                    ingest: 0.8,
                    strangers: 0.0,
                },
                replicas: 1,
                depth: 1,
                setups: 3,
                timed_setups: 1,
                warmup: Duration::from_secs(1),
            },
            Workload::RoutedMixed10k => Shape {
                chips: 10_000,
                devices: 0,
                pool: 1_024,
                mix: Mix {
                    identify: 0.9,
                    characterize: 0.1,
                    ingest: 0.0,
                    strangers: 0.1,
                },
                replicas: 3,
                depth: 1,
                setups: 3,
                timed_setups: 1,
                warmup: Duration::from_secs(1),
            },
        }
    }
}

/// Sizes, mix and load of a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Shape {
    /// Enrolled chips in the persisted database.
    pub chips: usize,
    /// Devices in the cluster book (0: no ingests).
    pub devices: usize,
    /// Distinct requests the load cycles through.
    pub pool: usize,
    /// Request mix.
    pub mix: Mix,
    /// `pc serve` replicas; more than one run behind a `pc route`.
    pub replicas: usize,
    /// Requests in flight per connection.
    pub depth: usize,
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setups: usize,
    /// How many of the set-ups (the last ones) each serve an equal share of
    /// the timed window. A CPU-bound server settles at a throughput level
    /// that differs between processes, and pooling processes averages it
    /// out; a server paced by delayed-ACK timers is steady in one process
    /// but fast on fresh connections, so it wants one long window.
    pub timed_setups: usize,
    /// Untimed warm-up before each window.
    pub warmup: Duration,
}

impl Shape {
    /// Whether a `pc route` fronts the replicas.
    pub fn routed(&self) -> bool {
        self.replicas > 1
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Its shape (the tests shrink it).
    pub shape: Shape,
    /// Input seed.
    pub seed: u64,
    /// Timed seconds per run.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Scratch directory for the persisted files.
    pub work_dir: PathBuf,
    /// How servers start.
    pub launcher: Launcher,
}

/// What a run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Whether every answer matched its oracle and the run stayed stationary.
    pub correct: bool,
    /// Requests sent in the timed window(s).
    pub attempted: u64,
    /// Of those, refused or failed.
    pub failed: u64,
    /// `(name, value, unit)` for the run's catalogue.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The run record: environment, parameters, per-op counts.
    pub record: JsonObject,
    /// Human-readable check failures.
    pub problems: Vec<String>,
    /// Traced answers whose server stages do not sum to the server total.
    pub stage_sum_violations: u64,
    /// Spans of the in-process replay (traced runs).
    pub spans: Option<Recorder>,
}

/// The servers of one set-up. Dropping it stops them, router first (field
/// order).
struct Running {
    router: Option<Node>,
    replicas: Vec<Node>,
}

impl Running {
    fn entry(&self) -> &str {
        match &self.router {
            Some(r) => &r.addr,
            None => &self.replicas[0].addr,
        }
    }

    fn replica_addrs(&self) -> Vec<String> {
        self.replicas.iter().map(|n| n.addr.clone()).collect()
    }

    fn rss_mb(&self) -> f64 {
        self.replicas
            .iter()
            .chain(self.router.as_ref())
            .map(Node::peak_rss_kb)
            .sum::<u64>() as f64
            / 1024.0
    }
}

fn io_err(context: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{context}: {e}")
}

/// Starts the workload's servers and waits until they are ready; on an
/// error, whatever already started stops as `running` drops.
fn start(cfg: &RunConfig, files: &[(PathBuf, PathBuf)]) -> Result<Running, String> {
    let mut running = Running {
        router: None,
        replicas: Vec::new(),
    };
    for (db, index) in files {
        let node =
            cluster::start_serve(&cfg.launcher, db, index).map_err(io_err("start replica"))?;
        running.replicas.push(node);
    }
    for n in &running.replicas {
        cluster::wait_ping(&n.addr).map_err(io_err("replica ready"))?;
    }
    if cfg.shape.routed() {
        let router = cluster::start_route(&cfg.launcher, &running.replica_addrs())
            .map_err(io_err("start router"))?;
        let addr = router.addr.clone();
        running.router = Some(router);
        cluster::wait_ring_up(&addr, cfg.shape.replicas).map_err(io_err("ring ready"))?;
    }
    if cfg.shape.devices > 0 {
        seed_clusters(running.entry(), cfg.seed, cfg.shape.devices)?;
    }
    Ok(running)
}

/// Seeds the cluster book with one output per device, pipelined in order
/// on one connection, so device `d` owns cluster `d`.
fn seed_clusters(addr: &str, seed: u64, devices: usize) -> Result<(), String> {
    let mut client = control_client(addr).map_err(io_err("seed connect"))?;
    let outputs = gen::seed_outputs(seed, devices);
    for (chunk_no, chunk) in outputs.chunks(256).enumerate() {
        for errors in chunk {
            client
                .send(&Request::ClusterIngest {
                    errors: errors.clone(),
                })
                .map_err(|e| e.to_string())?;
        }
        for k in 0..chunk.len() {
            let device = (chunk_no * 256 + k) as u64;
            match client.recv().map_err(|e| e.to_string())? {
                (
                    _,
                    Response::Clustered {
                        cluster,
                        seeded: true,
                        ..
                    },
                ) if cluster == device => {}
                (_, other) => return Err(format!("seeding device {device}: {other:?}")),
            }
        }
    }
    Ok(())
}

fn stats_of(addr: &str) -> Result<StatsBody, String> {
    match control_client(addr)
        .map_err(io_err("stats"))?
        .call(&Request::Stats)
    {
        Ok(Response::Stats(s)) => Ok(s),
        other => Err(format!("stats from {addr}: {other:?}")),
    }
}

/// Checkpoints a replica has taken, from its live metrics.
fn saves_of(addr: &str) -> Result<u64, String> {
    match control_client(addr)
        .map_err(io_err("metrics"))?
        .call(&Request::Metrics)
    {
        Ok(Response::Metrics(m)) => {
            Ok(m.ops.iter().find(|o| o.op == "save").map_or(0, |o| o.count))
        }
        other => Err(format!("metrics from {addr}: {other:?}")),
    }
}

fn failovers_of(addr: &str) -> Result<u64, String> {
    match control_client(addr)
        .map_err(io_err("ring-status"))?
        .call(&Request::RingStatus)
    {
        Ok(Response::RingStatus(body)) => Ok(body.failovers),
        other => Err(format!("ring-status from {addr}: {other:?}")),
    }
}

/// Sequential latency of `requests` against `addr`, in ns.
fn timed_calls(addr: &str, requests: &[&Request]) -> Result<Vec<u64>, String> {
    let mut client = control_client(addr).map_err(io_err("connect"))?;
    requests
        .iter()
        .map(|r| {
            let t = Instant::now();
            match client.call(r) {
                Ok(resp) if resp.is_ok() => Ok(t.elapsed().as_nanos() as u64),
                other => Err(format!("{} via {addr}: {other:?}", r.op())),
            }
        })
        .collect()
}

/// The router's own cost on the traced window's requests: the router's
/// traced total minus the replica-side totals of the same request (the
/// router stamps its trace id on every forward, and the replicas' flight
/// recorders keep it). Identify reaches one replica; a write reaches each,
/// in turn. Returns `(forward_us, fanout_us)` as medians.
fn router_costs(traced: &LoadResult, replica_records: &[TraceRecord]) -> (f64, f64) {
    let mut replica_ns: HashMap<u64, u64> = HashMap::new();
    for r in data_records(replica_records) {
        *replica_ns.entry(r.trace_id).or_default() += r.total_ns;
    }
    let mut costs = [Vec::new(), Vec::new()];
    for (op, trace) in &traced.traces {
        if let Some(&inner) = replica_ns.get(&trace.trace_id) {
            costs[(*op).min(1)].push(trace.total_ns.saturating_sub(inner));
        }
    }
    let p50 = |v: &[u64]| us(quantile(v, 0.5));
    (p50(&costs[0]), p50(&costs[1]))
}

/// After the routed run every replica must hold the same fingerprints and
/// give the same verdicts on a probe sample.
fn replicas_agree(running: &Running, pool: &[Planned], chips: usize) -> Vec<String> {
    let mut problems = Vec::new();
    let probes: Vec<&Request> = pool
        .iter()
        .map(|p| &p.request)
        .filter(|r| load::op_index(r) == 0)
        .take(32)
        .collect();
    let mut verdicts: Vec<Vec<Option<Answer>>> = Vec::new();
    for n in &running.replicas {
        match stats_of(&n.addr) {
            Ok(s) if s.fingerprints == chips as u64 => {}
            other => problems.push(format!("replica {} fingerprints: {other:?}", n.addr)),
        }
        // Pipelined, so the sample costs one round trip per replica.
        let answers = control_client(&n.addr)
            .map_err(|e| e.to_string())
            .and_then(|mut c| {
                let mut seqs = Vec::new();
                for r in &probes {
                    seqs.push(c.send(r).map_err(|e| e.to_string())?);
                }
                let mut by_seq = HashMap::new();
                for _ in &probes {
                    let (seq, resp) = c.recv().map_err(|e| e.to_string())?;
                    by_seq.insert(seq, Answer::of(&resp));
                }
                Ok(seqs
                    .iter()
                    .map(|s| by_seq.remove(s).flatten())
                    .collect::<Vec<_>>())
            });
        match answers {
            Ok(a) => verdicts.push(a),
            Err(e) => problems.push(format!("replica {}: {e}", n.addr)),
        }
    }
    if verdicts.windows(2).any(|w| w[0] != w[1]) {
        problems.push("replicas disagree on the probe sample".into());
    }
    problems
}

fn op_counts_json(result: &[&LoadResult]) -> JsonObject {
    let mut ops = JsonObject::new();
    for (i, op) in OPS.iter().enumerate() {
        let mut row = JsonObject::new();
        let sum =
            |f: fn(&load::OpCounts) -> u64| result.iter().map(|r| f(&r.counts[i])).sum::<u64>();
        row.set("sent", sum(|c| c.sent));
        row.set("ok", sum(|c| c.ok));
        row.set("busy", sum(|c| c.busy));
        row.set("error", sum(|c| c.error));
        ops.set(op, row);
    }
    ops
}

fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    match head.trim().strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.trim().is_empty() => head.trim().to_string(),
        None => "unknown".into(),
    }
}

fn record(cfg: &RunConfig, gen_s: f64, setup_s: &[f64], windows: &[&LoadResult]) -> JsonObject {
    let s = &cfg.shape;
    let mut rec = JsonObject::new();
    rec.set("workload", cfg.workload.name());
    rec.set("seed", cfg.seed);
    rec.set("held_out_seed", cfg.seed == HELD_OUT_SEED);
    rec.set("seconds", cfg.seconds);
    rec.set("trace", cfg.trace);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    let online = std::fs::read_to_string("/proc/cpuinfo")
        .map(|c| c.lines().filter(|l| l.starts_with("processor")).count() as u64)
        .unwrap_or(0);
    rec.set("nproc", online);
    rec.set("effective_cores", cores);
    rec.set("git_rev", git_rev());
    rec.set("simd", pc_kernels::simd::backend());
    let mut params = JsonObject::new();
    params.set("chips", s.chips as u64);
    params.set("devices", s.devices as u64);
    params.set("pool", s.pool as u64);
    params.set("identify_share", s.mix.identify);
    params.set("characterize_share", s.mix.characterize);
    params.set("ingest_share", s.mix.ingest);
    params.set("stranger_share", s.mix.strangers);
    params.set("replicas", s.replicas as u64);
    params.set("routed", s.routed());
    params.set("connections", CONNECTIONS as u64);
    params.set("in_flight_per_connection", s.depth as u64);
    params.set("setups", s.setups as u64);
    params.set("timed_setups", s.timed_setups as u64);
    params.set("warmup_s", s.warmup.as_secs_f64());
    params.set("page_bits", gen::PAGE_BITS);
    params.set("error_bits", gen::WEIGHT as u64);
    rec.set("params", params);
    rec.set("gen_s", gen_s);
    rec.set(
        "setup_s",
        setup_s
            .iter()
            .map(|&v| JsonValue::from(v))
            .collect::<Vec<_>>(),
    );
    rec.set("ops", op_counts_json(windows));
    rec
}

/// Per-op latency lines for the human-readable report: `(label, p50 ms,
/// p99 ms, samples)`.
pub fn op_latencies(result: &LoadResult) -> Vec<(String, f64, f64, usize)> {
    let reads = &result.latencies[0];
    let writes: Vec<u64> = result.latencies[1..].iter().flatten().copied().collect();
    let mut rows = Vec::new();
    for (name, v) in [("identify", reads.as_slice()), ("write", writes.as_slice())] {
        if !v.is_empty() {
            rows.push((
                name.to_string(),
                ms(quantile(v, 0.5)),
                ms(quantile(v, 0.99)),
                v.len(),
            ));
        }
    }
    rows
}

/// Runs one workload end to end.
///
/// # Errors
///
/// Set-up or transport failures (the run cannot be judged), as text.
pub fn run(cfg: &RunConfig) -> Result<(Outcome, Option<LoadResult>), String> {
    let shape = &cfg.shape;
    std::fs::create_dir_all(&cfg.work_dir).map_err(io_err("work dir"))?;
    let db_path = cfg.work_dir.join("db.txt");
    let index_path = cfg.work_dir.join("index.txt");

    // Inputs: the database and index through the public savers. Replicas
    // behind a router checkpoint into their own copy; a lone replica never
    // checkpoints mid-run, so it serves the files themselves.
    let t = Instant::now();
    {
        let db = gen::build_db(cfg.seed, shape.chips);
        let sc = StoreConfig::default();
        let (saved_db, saved_index) = std::thread::scope(|s| {
            let db_saver = s.spawn(|| persistence::save_db_to_path(&db, &db_path));
            let index = db.build_index(sc.bands, sc.rows_per_band, sc.index_seed);
            let saved_index = persistence::save_index_to_path(&index, &index_path);
            (db_saver.join().expect("db saver panicked"), saved_index)
        });
        saved_db.map_err(io_err("save db"))?;
        saved_index.map_err(io_err("save index"))?;
    }
    let mut files = vec![(db_path.clone(), index_path.clone())];
    if shape.routed() {
        files.clear();
        for r in 0..shape.replicas {
            let dir = cfg.work_dir.join(format!("replica-{r}"));
            std::fs::create_dir_all(&dir).map_err(io_err("replica dir"))?;
            let (db, index) = (dir.join("db.txt"), dir.join("index.txt"));
            std::fs::copy(&db_path, &db).map_err(io_err("copy db"))?;
            std::fs::copy(&index_path, &index).map_err(io_err("copy index"))?;
            files.push((db, index));
        }
    }
    let pool = gen::plan_pool(cfg.seed, &shape.mix, shape.chips, shape.devices, shape.pool);
    let gen_s = t.elapsed().as_secs_f64();

    // Set-up, timed from spawn to ready, several times; the last
    // `timed_setups` of them each serve an equal share of the timed window.
    let setups = if cfg.trace { 1 } else { shape.setups.max(1) };
    let timed_setups = if cfg.trace {
        1
    } else {
        shape.timed_setups.clamp(1, setups)
    };
    let mut setup_s = Vec::new();
    let mut rss_mb = 0.0f64;
    let mut windows: Vec<LoadResult> = Vec::new();
    let mut wire = Wire::default();
    for i in 0..setups {
        let t = Instant::now();
        let running = start(cfg, &files)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if i + timed_setups < setups {
            drop(running);
            continue;
        }
        let result = measure(cfg, &running, &pool, cfg.seconds / timed_setups as f64);
        rss_mb = rss_mb.max(running.rss_mb());
        drop(running);
        let (measured, w) = result?;
        windows.extend(measured);
        wire.values.extend(w.values);
        wire.problems.extend(w.problems);
    }

    // The oracle: a linear scan over the database as the servers loaded it.
    let t = Instant::now();
    let db = persistence::load_db_from_path(&db_path)
        .map_err(|e| format!("load db: {e}"))?
        .value;
    let load_db_s = t.elapsed().as_secs_f64();
    let idx: Vec<usize> = (0..pool.len())
        .filter(|&i| matches!(pool[i].expect, Expect::Oracle))
        .collect();
    let probes: Vec<_> = idx
        .iter()
        .map(|&i| match &pool[i].request {
            Request::Identify { errors } => errors.clone(),
            _ => unreachable!("oracle requests are identifies"),
        })
        .collect();
    let oracle: HashMap<usize, Answer> = idx
        .iter()
        .zip(db.identify_batch(&probes))
        .map(|(&i, v)| {
            let answer = match v {
                Some((label, d)) => Answer::Match(label.clone(), d.to_bits()),
                None => Answer::NoMatch,
            };
            (i, answer)
        })
        .collect();

    let mut problems = wire.problems;
    for w in &windows {
        problems.extend(w.mismatches.iter().cloned());
        for (i, answer) in &w.answers {
            if oracle.get(i) != Some(answer) {
                problems.push(format!(
                    "pool request {i}: server {answer:?}, linear scan {:?}",
                    oracle.get(i)
                ));
            }
        }
    }
    problems.truncate(32);
    let oracle_s = t.elapsed().as_secs_f64();

    let refs: Vec<&LoadResult> = windows.iter().collect();
    let mut outcome = Outcome {
        correct: problems.is_empty(),
        attempted: windows.iter().map(LoadResult::attempted).sum(),
        failed: windows.iter().map(LoadResult::failed).sum(),
        metrics: Vec::new(),
        record: record(cfg, gen_s, &setup_s, &refs),
        problems,
        stage_sum_violations: 0,
        spans: None,
    };
    outcome.record.set("oracle_s", oracle_s);
    if !cfg.trace {
        let mut timed = LoadResult::default();
        for w in windows {
            timed.merge(w);
        }
        let all = timed.all_latencies();
        let values = [
            timed.ops_per_s(),
            ms(quantile(&all, 0.5)),
            median_f64(&setup_s),
            rss_mb,
        ];
        outcome.metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect();
        return Ok((outcome, Some(timed)));
    }

    // Traced run: wire-derived layers, then the in-process replay.
    let untraced = &windows[0];
    let traced = &windows[1];
    let mut values: HashMap<&'static str, f64> = HashMap::new();
    let reads = &traced.latencies[0];
    let writes: Vec<u64> = traced.latencies[1..].iter().flatten().copied().collect();
    values.insert("client.identify_p50_ms", ms(quantile(reads, 0.5)));
    values.insert("client.identify_p99_ms", ms(quantile(reads, 0.99)));
    values.insert("client.write_p50_ms", ms(quantile(&writes, 0.5)));
    values.insert("client.write_p99_ms", ms(quantile(&writes, 0.99)));
    values.insert(
        "client.failed_share",
        traced.failed() as f64 / traced.attempted().max(1) as f64,
    );
    values.insert(
        "trace.overhead_us",
        us(quantile(&traced.all_latencies(), 0.5)) - us(quantile(&untraced.all_latencies(), 0.5)),
    );
    outcome.stage_sum_violations = traced
        .traces
        .iter()
        .filter(|(_, t)| t.decode_ns + t.queue_wait_ns + t.score_ns + t.other_ns != t.total_ns)
        .count() as u64;
    for (k, v) in wire.values {
        values.insert(k, v);
    }
    values.insert("persistence.load_db_s", load_db_s);
    let t = Instant::now();
    let (layer_values, spans) = layers::measure(&layers::Inputs {
        pool: &pool,
        db: &db,
        db_path: &db_path,
        index_path: &index_path,
        seed: cfg.seed,
        devices: shape.devices,
        oracle: &oracle,
        in_flight: CONNECTIONS * shape.depth,
    })?;
    outcome.record.set("layers_s", t.elapsed().as_secs_f64());
    for (k, v) in layer_values {
        values.insert(k, v);
    }
    outcome.metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    outcome.spans = Some(spans);
    Ok((outcome, windows.pop()))
}

/// Wire-side layer readings of a traced run.
#[derive(Default)]
struct Wire {
    values: Vec<(&'static str, f64)>,
    problems: Vec<String>,
}

fn data_records(records: &[TraceRecord]) -> Vec<&TraceRecord> {
    records
        .iter()
        .filter(|r| OPS.contains(&r.op.as_str()))
        .collect()
}

/// Timed windows on a running cluster. Untraced: one window of
/// `seconds`. Traced: an untraced and a traced half, plus the sampler and
/// (routed) the router-cost and checkpoint readings.
fn measure(
    cfg: &RunConfig,
    running: &Running,
    pool: &[Planned],
    seconds: f64,
) -> Result<(Vec<LoadResult>, Wire), String> {
    let shape = &cfg.shape;
    let replicas = running.replica_addrs();
    let devices = (shape.devices > 0).then_some(shape.devices as u64);
    let before: Vec<StatsBody> = replicas
        .iter()
        .map(|a| stats_of(a))
        .collect::<Result<_, _>>()?;
    let spec = |trace: bool, window: f64| LoadSpec {
        addr: running.entry(),
        pool,
        conns: CONNECTIONS,
        depth: shape.depth,
        warmup: shape.warmup,
        window: Duration::from_secs_f64(window),
        trace,
    };
    let mut wire = Wire::default();
    let mut windows = Vec::new();
    if !cfg.trace {
        windows.push(
            load::run(&spec(false, seconds), devices, None)
                .map_err(io_err("load"))?
                .0,
        );
    } else {
        let half = seconds / 2.0;
        windows.push(
            load::run(&spec(false, half), devices, None)
                .map_err(io_err("load"))?
                .0,
        );
        let saves_before = saves_of(&replicas[0])?;
        let failovers_before = match running.router {
            Some(ref r) => failovers_of(&r.addr)?,
            None => 0,
        };
        let mid: Vec<StatsBody> = replicas
            .iter()
            .map(|a| stats_of(a))
            .collect::<Result<_, _>>()?;
        let router_addr = running.router.as_ref().map(|r| r.addr.as_str());
        let (traced, sampled) =
            load::run(&spec(true, half), devices, Some((&replicas, router_addr)))
                .map_err(io_err("traced load"))?;
        let after: Vec<StatsBody> = replicas
            .iter()
            .map(|a| stats_of(a))
            .collect::<Result<_, _>>()?;
        wire.values = wire_values(&traced, &sampled, &mid, &after, shape);
        if let Some(r) = &running.router {
            let saves = saves_of(&replicas[0])?;
            let failovers = failovers_of(&r.addr)?;
            let (forward, fanout) = router_costs(&traced, &sampled.records);
            // A client checkpoint runs the same save fan-out as the router's
            // own, so time two of those.
            let checkpoint = timed_calls(&r.addr, &[&Request::Save, &Request::Save])?;
            wire.values.extend([
                ("router.checkpoints", (saves - saves_before) as f64),
                ("router.checkpoint_us", us(quantile(&checkpoint, 0.5))),
                ("router.failovers", (failovers - failovers_before) as f64),
                ("ring.journal_max", sampled.journal_max as f64),
                ("router.forward_us", forward),
                ("router.fanout_us", fanout),
            ]);
        }
        windows.push(traced);
    }
    // Stationarity: the database and the cluster book kept their sizes.
    for (addr, b) in replicas.iter().zip(&before) {
        let a = stats_of(addr)?;
        if a.fingerprints != shape.chips as u64 || b.fingerprints != a.fingerprints {
            wire.problems.push(format!(
                "{addr}: fingerprints {} → {} (expected {})",
                b.fingerprints, a.fingerprints, shape.chips
            ));
        }
        if a.clusters != shape.devices as u64 || b.clusters != a.clusters {
            wire.problems.push(format!(
                "{addr}: clusters {} → {} (expected {})",
                b.clusters, a.clusters, shape.devices
            ));
        }
    }
    if shape.routed() {
        wire.problems
            .extend(replicas_agree(running, pool, shape.chips));
    }
    Ok((windows, wire))
}

fn wire_values(
    traced: &LoadResult,
    sampled: &Sampled,
    before: &[StatsBody],
    after: &[StatsBody],
    shape: &Shape,
) -> Vec<(&'static str, f64)> {
    let records = data_records(&sampled.records);
    let stage = |f: fn(&TraceRecord) -> u64| -> Vec<u64> { records.iter().map(|r| f(r)).collect() };
    let p50 = |v: &[u64]| us(quantile(v, 0.5));
    let queue = stage(|r| r.queue_wait_ns);
    let score = stage(|r| r.score_ns);
    let evals: u64 = after
        .iter()
        .zip(before)
        .map(|(a, b)| a.distance_evals - b.distance_evals)
        .sum();
    let sent_all = |op: usize| traced.counts[op].sent as f64;
    // Pool occupancy by Little's law: arrival rate at the replicas (writes
    // reach every replica) times the mean score stage, per replica.
    let replicas = shape.replicas as f64;
    let arrivals = (sent_all(0) + replicas * (sent_all(1) + sent_all(2))) / traced.window_s;
    let busy = arrivals * mean(&score) / 1e9 / replicas;
    // distance_evals counts every request the window sent, warm-up and
    // drain included, so divide by all of them.
    let per = |op: usize| match traced.all_sent[op] {
        0 => 0.0,
        n => evals as f64 / n as f64,
    };
    vec![
        ("server.decode_us", p50(&stage(|r| r.decode_ns))),
        ("server.encode_us", p50(&stage(|r| r.encode_ns))),
        ("server.write_us", p50(&stage(|r| r.write_ns))),
        ("server.total_us", p50(&stage(|r| r.total_ns))),
        ("pool.queue_wait_p50_us", p50(&queue)),
        ("pool.queue_wait_p99_us", us(quantile(&queue, 0.99))),
        ("pool.queue_depth", mean(&sampled.queue_depths)),
        ("pool.score_us", p50(&score)),
        ("pool.busy_share", busy),
        ("store.candidates_per_identify", per(0)),
        ("store.clusters_compared_per_ingest", per(2)),
    ]
}
