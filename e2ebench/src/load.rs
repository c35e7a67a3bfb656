//! The closed-loop load generator and the traced-window sampler.
//!
//! Each connection runs on its own thread and keeps `depth` requests in
//! flight with [`ServiceClient::send`] / [`ServiceClient::recv`], sending the
//! next one only when an answer arrives. Requests sent before the warm-up
//! ends are answered but not timed; the timed window then runs for a fixed
//! duration, and requests still in flight when it closes are drained and
//! counted but earn no throughput.

use crate::cluster::control_client;
use crate::gen::{Expect, Planned};
use pc_service::client::{ConnectOptions, ServiceClient};
use pc_service::protocol::{Request, Response, TraceBody, TraceRecord};
use std::collections::{HashMap, HashSet};
use std::io;
use std::time::{Duration, Instant};

/// Equal slices the timed window is cut into, to show throughput over time.
pub const SLICES: usize = 10;

/// The data ops a workload sends, indexing per-op tables.
pub const OPS: [&str; 3] = ["identify", "characterize", "cluster-ingest"];

/// Index of `request` in [`OPS`].
pub fn op_index(request: &Request) -> usize {
    match request {
        Request::Identify { .. } => 0,
        Request::Characterize { .. } => 1,
        _ => 2,
    }
}

/// Per-op request outcomes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Requests sent.
    pub sent: u64,
    /// Answered successfully.
    pub ok: u64,
    /// Refused with `busy`.
    pub busy: u64,
    /// Answered with an error.
    pub error: u64,
}

/// An identify verdict reduced to what the oracle check compares: the
/// label and the exact distance bits, or a miss.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    /// A match below the threshold.
    Match(String, u64),
    /// No fingerprint within the threshold.
    NoMatch,
}

impl Answer {
    /// The verdict of an identify response, if it is one.
    pub fn of(response: &Response) -> Option<Self> {
        match response {
            Response::Match { label, distance } => {
                Some(Answer::Match(label.clone(), distance.to_bits()))
            }
            Response::NoMatch { .. } => Some(Answer::NoMatch),
            _ => None,
        }
    }
}

/// Splits a possibly traced response into its payload and stage breakdown.
fn untrace(response: Response) -> (Response, Option<TraceBody>) {
    match response {
        Response::Traced { inner, trace } => (*inner, Some(trace)),
        other => (other, None),
    }
}

/// One closed-loop window.
#[derive(Debug, Clone)]
pub struct LoadSpec<'a> {
    /// Where the clients connect.
    pub addr: &'a str,
    /// The request pool, cycled through.
    pub pool: &'a [Planned],
    /// Connections, one thread each.
    pub conns: usize,
    /// Requests each connection keeps in flight.
    pub depth: usize,
    /// Untimed lead-in.
    pub warmup: Duration,
    /// Timed window.
    pub window: Duration,
    /// Whether requests carry the trace flag.
    pub trace: bool,
}

/// What a window measured.
#[derive(Debug, Default)]
pub struct LoadResult {
    /// Timed window length in seconds.
    pub window_s: f64,
    /// Successful answers that arrived inside each slice of the window.
    pub completed: [u64; SLICES],
    /// Client latency of every request sent in the window, per op, in ns.
    pub latencies: [Vec<u64>; 3],
    /// Stage breakdowns of traced answers: `(op, trace)`.
    pub traces: Vec<(usize, TraceBody)>,
    /// Outcomes of requests sent in the window, per op.
    pub counts: [OpCounts; 3],
    /// Requests sent per op over the whole run: warm-up, window and drain.
    pub all_sent: [u64; 3],
    /// First identify verdict seen per pool index (all requests, warm-up
    /// included), for the oracle check.
    pub answers: HashMap<usize, Answer>,
    /// Answers that contradict their expectation or an earlier answer.
    pub mismatches: Vec<String>,
}

impl LoadResult {
    /// Requests sent in the window, all ops.
    pub fn attempted(&self) -> u64 {
        self.counts.iter().map(|c| c.sent).sum()
    }

    /// Requests sent in the window that failed or were refused.
    pub fn failed(&self) -> u64 {
        self.counts.iter().map(|c| c.busy + c.error).sum()
    }

    /// Every timed latency, all ops.
    pub fn all_latencies(&self) -> Vec<u64> {
        self.latencies.iter().flatten().copied().collect()
    }

    /// Successful answers received inside the window, per second.
    pub fn ops_per_s(&self) -> f64 {
        self.completed.iter().sum::<u64>() as f64 / self.window_s
    }

    /// Folds in another connection's or window's results; a window's length
    /// adds up.
    pub fn merge(&mut self, other: LoadResult) {
        self.window_s += other.window_s;
        for (mine, theirs) in self.completed.iter_mut().zip(other.completed) {
            *mine += theirs;
        }
        for (mine, theirs) in self.latencies.iter_mut().zip(other.latencies) {
            mine.extend(theirs);
        }
        self.traces.extend(other.traces);
        for (mine, theirs) in self.all_sent.iter_mut().zip(other.all_sent) {
            *mine += theirs;
        }
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts) {
            mine.sent += theirs.sent;
            mine.ok += theirs.ok;
            mine.busy += theirs.busy;
            mine.error += theirs.error;
        }
        for (idx, answer) in other.answers {
            self.note_answer(idx, answer);
        }
        self.mismatches.extend(other.mismatches);
    }

    /// Keeps the first verdict for pool request `idx`; a later one that
    /// differs is a mismatch.
    fn note_answer(&mut self, idx: usize, answer: Answer) {
        match self.answers.get(&idx) {
            Some(seen) if *seen != answer => self.mismatches.push(format!(
                "pool request {idx} answered {seen:?} and later {answer:?}"
            )),
            Some(_) => {}
            None => {
                self.answers.insert(idx, answer);
            }
        }
    }
}

/// Checks a non-identify answer against its expectation.
fn check_write(expect: &Expect, response: &Response, devices_total: Option<u64>) -> Option<String> {
    match (expect, response) {
        (
            Expect::Characterized { label, weight },
            Response::Characterized {
                label: got,
                weight: got_weight,
                created,
                ..
            },
        ) if got == label && got_weight == weight && !created => None,
        (
            Expect::Clustered { device },
            Response::Clustered {
                cluster,
                seeded,
                clusters,
            },
        ) if *cluster == *device as u64
            && !seeded
            && devices_total.is_none_or(|n| n == *clusters) =>
        {
            None
        }
        (Expect::Oracle, _) => None,
        _ => Some(format!("expected {expect:?}, got {response:?}")),
    }
}

fn run_conn(
    mut client: ServiceClient,
    spec: &LoadSpec<'_>,
    conn: usize,
    start: Instant,
    devices: Option<u64>,
) -> io::Result<LoadResult> {
    client.set_trace(spec.trace);
    let timed_from = start + spec.warmup;
    let end = timed_from + spec.window;
    let mut out = LoadResult::default();
    let mut in_flight: HashMap<u64, (usize, Instant)> = HashMap::new();
    let mut pos = conn;
    let to_io = |e: pc_service::ClientError| io::Error::other(e.to_string());
    loop {
        while in_flight.len() < spec.depth.max(1) && Instant::now() < end {
            let idx = pos % spec.pool.len();
            pos += spec.conns;
            let sent_at = Instant::now();
            let seq = client.send(&spec.pool[idx].request).map_err(to_io)?;
            in_flight.insert(seq, (idx, sent_at));
        }
        if in_flight.is_empty() {
            break;
        }
        let (seq, response) = client.recv().map_err(to_io)?;
        let done = Instant::now();
        let Some((idx, sent_at)) = in_flight.remove(&seq) else {
            return Err(io::Error::other(format!(
                "unexpected response seq {seq}: {response:?}"
            )));
        };
        let planned = &spec.pool[idx];
        let op = op_index(&planned.request);
        out.all_sent[op] += 1;
        let (response, trace) = untrace(response);
        let timed = sent_at >= timed_from;
        let latency = done.duration_since(sent_at).as_nanos() as u64;
        match &response {
            Response::Busy { .. } => {
                if timed {
                    out.counts[op].busy += 1;
                }
            }
            Response::Error { message } => {
                out.mismatches
                    .push(format!("pool request {idx} failed: {message}"));
                if timed {
                    out.counts[op].error += 1;
                }
            }
            ok => {
                if let Some(answer) = Answer::of(ok) {
                    out.note_answer(idx, answer);
                } else if let Some(m) = check_write(&planned.expect, ok, devices) {
                    out.mismatches.push(format!("pool request {idx}: {m}"));
                }
                if timed {
                    out.counts[op].ok += 1;
                    if done <= end {
                        let slice = done.duration_since(timed_from).as_secs_f64()
                            / spec.window.as_secs_f64()
                            * SLICES as f64;
                        out.completed[(slice as usize).min(SLICES - 1)] += 1;
                    }
                }
            }
        }
        if timed {
            out.counts[op].sent += 1;
            out.latencies[op].push(latency);
            if let Some(t) = trace {
                out.traces.push((op, t));
            }
        }
    }
    out.mismatches.truncate(16);
    Ok(out)
}

/// What the sampler saw during a traced window.
#[derive(Debug, Default)]
pub struct Sampled {
    /// Queue depth readings from every replica's `metrics`.
    pub queue_depths: Vec<u64>,
    /// Flight-recorder entries of every replica, deduplicated.
    pub records: Vec<TraceRecord>,
    /// Largest pending journal the router reported.
    pub journal_max: u64,
}

fn dump(
    client: &mut ServiceClient,
    seen: &mut HashSet<(u64, u64, String)>,
    into: &mut Vec<TraceRecord>,
) {
    if let Ok(Response::TraceDump { traces }) = client.call(&Request::TraceDump) {
        for t in traces {
            if seen.insert((t.trace_id, t.seq, t.op.clone())) {
                into.push(t);
            }
        }
    }
}

/// Polls replica metrics and flight recorders (and the router's ring
/// status) every `every` until `end`, on one extra connection per server.
fn sample(
    replicas: &[String],
    router: Option<&str>,
    from: Instant,
    end: Instant,
    every: Duration,
) -> Sampled {
    let mut out = Sampled::default();
    let mut clients: Vec<ServiceClient> = replicas
        .iter()
        .filter_map(|a| control_client(a).ok())
        .collect();
    let mut router_client = router.and_then(|a| control_client(a).ok());
    let mut seen = HashSet::new();
    while Instant::now() < from {
        std::thread::sleep(Duration::from_millis(5));
    }
    // The first dump holds warm-up requests; mark them seen and drop them.
    for c in &mut clients {
        dump(c, &mut seen, &mut Vec::new());
    }
    while Instant::now() < end {
        std::thread::sleep(every);
        for c in &mut clients {
            if let Ok(Response::Metrics(m)) = c.call(&Request::Metrics) {
                out.queue_depths.push(m.queue_depth);
            }
            dump(c, &mut seen, &mut out.records);
        }
        if let Some(c) = router_client.as_mut() {
            if let Ok(Response::RingStatus(body)) = c.call(&Request::RingStatus) {
                let pending = body.nodes.iter().map(|n| n.pending).max().unwrap_or(0);
                out.journal_max = out.journal_max.max(pending);
            }
        }
    }
    out
}

/// Runs one window. With `sampled` set, a sampler thread polls those
/// replicas (and router) during the timed part.
///
/// # Errors
///
/// Connection or transport failures.
pub fn run(
    spec: &LoadSpec<'_>,
    devices: Option<u64>,
    sampled: Option<(&[String], Option<&str>)>,
) -> io::Result<(LoadResult, Sampled)> {
    let opts = ConnectOptions::uniform(Duration::from_secs(60));
    let clients = (0..spec.conns)
        .map(|_| ServiceClient::connect_with(spec.addr, opts))
        .collect::<io::Result<Vec<_>>>()?;
    let start = Instant::now();
    let (results, sampled) = std::thread::scope(|s| {
        let sampler = sampled.map(|(replicas, router)| {
            s.spawn(move || {
                let from = start + spec.warmup;
                sample(
                    replicas,
                    router,
                    from,
                    from + spec.window,
                    Duration::from_millis(100),
                )
            })
        });
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(conn, client)| s.spawn(move || run_conn(client, spec, conn, start, devices)))
            .collect();
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect();
        let sampled = sampler
            .map(|h| h.join().expect("sampler thread panicked"))
            .unwrap_or_default();
        (results, sampled)
    });
    let mut out = LoadResult {
        window_s: spec.window.as_secs_f64(),
        ..LoadResult::default()
    };
    for r in results {
        out.merge(r?);
    }
    Ok((out, sampled))
}
