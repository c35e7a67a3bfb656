//! The `pc route` tier: a router in front of N replica servers, with
//! health-checked failover, write fan-out with per-replica journals, and
//! load shedding.
//!
//! The router speaks the same wire protocol as a plain server, so every
//! existing client — `pc query`, `pc top`, the soak harnesses — works
//! against it unchanged. Requests split three ways:
//!
//! - **Reads** (`identify`, `stats`): routed by the content key of the
//!   request ([`crate::ring::key_of`]) along the ring's rendezvous walk,
//!   restricted to live replicas. A transport failure marks the replica
//!   and fails over to the next live one.
//! - **Writes** (`characterize`, `cluster-ingest`, `save`): fanned to
//!   *every* replica under a router-side mutation lock, so all replicas
//!   apply mutations in one global order and stay convergent. Each write
//!   gets a global write sequence, is journaled per replica before
//!   forwarding, and carries its sequence on the wire; a replica that
//!   fails to acknowledge is evicted (it is out of sync by definition)
//!   and heals by replaying its journal when it rejoins — the sequence
//!   lets it skip entries it already applied live, so a timeout-evicted
//!   replica that lost nothing does not double-apply. A write no replica
//!   acknowledged is retracted from every journal before the client is
//!   shed (the shed is retryable; the journaled copy must not resurrect).
//!   Journals truncate at acknowledged durability checkpoints (`save`) —
//!   client-issued, or router-initiated once any live journal reaches
//!   [`RouterConfig::checkpoint_every`] pending entries, which bounds
//!   journal memory under workloads that never checkpoint.
//! - **Inline** (`ping`, `metrics`, `trace-dump`, `ring-status`,
//!   `shutdown`): answered by the router itself; `shutdown` stops only
//!   the routing tier, never the replicas.
//!
//! When no replica is reachable the router sheds with `busy` +
//! `retry_after_ms` instead of erroring: shedding is honest backpressure a
//! [`crate::client::RetryPolicy`] already knows how to wait out.
//!
//! A prober thread pings replicas on a fixed cadence, with
//! capped-exponential backoff toward down replicas, feeding the same
//! hysteresis state machine as request-path failures. When a down replica
//! answers enough consecutive probes it is healed — journal replay, then
//! a checkpoint, then reinstatement — before it serves again.

use crate::client::{ClientError, ConnectOptions, ServiceClient};
use crate::codec::{self, CodecError};
use crate::pool::apply_trace;
use crate::protocol::{
    self, MetricsBody, NodeStatus, ReplayEntry, Request, Response, RingStatusBody, TraceRecord,
};
use crate::ring::{key_of, HealthPolicy, Journal, NodeHealth, Ring};
use crate::server::count_request;
use parking_lot::Mutex as PlMutex;
use pc_telemetry::counter;
use pc_telemetry::trace::{trace_id, Stage, StageClock, Tracer};
use std::io::{self, BufReader};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Replica addresses, declaration order is ring identity.
    pub replicas: Vec<String>,
    /// Health hysteresis and probe backoff.
    pub health: HealthPolicy,
    /// Back-off hint attached to shed (`busy`) responses.
    pub retry_after_ms: u64,
    /// Router-initiated checkpoint threshold: when any *live* replica's
    /// pending journal reaches this many entries after a write, the
    /// router runs a save fan-out itself, bounding journal memory under
    /// write workloads that never issue `save`. `0` disables (journals
    /// then grow until a client checkpoint). Down replicas never trigger
    /// it — their journals grow until heal by design.
    pub checkpoint_every: usize,
    /// Base probe cadence in milliseconds (down replicas back off from it).
    pub probe_interval_ms: u64,
    /// Connect/read/write timeout for replica forwards, in milliseconds.
    pub forward_timeout_ms: u64,
    /// Socket write timeout for client responses.
    pub write_timeout_ms: Option<u64>,
    /// Slow-request threshold for the router's tracer.
    pub slow_ms: Option<u64>,
    /// Flight-recorder capacity.
    pub flight_recorder_len: usize,
    /// Whether per-request tracing is live.
    pub trace: bool,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            replicas: Vec::new(),
            health: HealthPolicy::default(),
            retry_after_ms: 25,
            checkpoint_every: 256,
            probe_interval_ms: 20,
            forward_timeout_ms: 2_000,
            write_timeout_ms: Some(30_000),
            slow_ms: None,
            flight_recorder_len: 64,
            trace: true,
        }
    }
}

/// One replica as the router tracks it: health, journal, connection pool.
struct Node {
    addr: String,
    health: PlMutex<NodeHealth>,
    journal: PlMutex<Journal>,
    /// Idle connections to this replica; taken on use, returned on
    /// success, dropped on error.
    pool: PlMutex<Vec<ServiceClient>>,
    /// Cumulative forward + probe failures.
    failures: AtomicU64,
}

impl Node {
    fn new(addr: String) -> Self {
        Self {
            addr,
            health: PlMutex::new(NodeHealth::default()),
            journal: PlMutex::new(Journal::default()),
            pool: PlMutex::new(Vec::new()),
            failures: AtomicU64::new(0),
        }
    }

    fn is_live(&self) -> bool {
        self.health.lock().is_live()
    }
}

/// State shared between the accept loop, connections, and the prober.
struct RouterShared {
    config: RouterConfig,
    ring: Ring,
    nodes: Vec<Node>,
    /// Serializes every mutation fan-out (and journal replay), so all
    /// replicas observe writes in one global order.
    mutation_lock: PlMutex<()>,
    tracer: Arc<Tracer>,
    local_addr: SocketAddr,
    shutting_down: AtomicBool,
    failovers: AtomicU64,
    sheds: AtomicU64,
    replayed: AtomicU64,
    /// The next global write sequence (1-based; 0 is the replicas' unset
    /// watermark). Assigned under the mutation lock, so sequence order is
    /// journal order is fan-out order.
    next_wseq: AtomicU64,
}

impl RouterShared {
    fn begin_shutdown(&self) {
        if !self.shutting_down.swap(true, Ordering::SeqCst) {
            counter!("service.shutdown.triggered").incr();
            let _ = TcpStream::connect(self.local_addr);
        }
    }

    fn forward_options(&self) -> ConnectOptions {
        ConnectOptions::uniform(Duration::from_millis(self.config.forward_timeout_ms.max(1)))
    }

    /// Runs `f` on a pooled (or fresh) connection to node `idx`. The
    /// connection returns to the pool on success and is dropped on error;
    /// the `ring.forward` fault site can veto the attempt deterministically.
    fn with_node_client(
        &self,
        idx: usize,
        f: impl FnOnce(&mut ServiceClient) -> Result<Response, ClientError>,
    ) -> Option<Response> {
        let node = self.nodes.get(idx)?;
        if pc_faults::fail_point("ring.forward") {
            self.tracer.dump("fault_injected");
            return None;
        }
        let pooled = node.pool.lock().pop();
        let mut client = match pooled {
            Some(c) => c,
            None => ServiceClient::connect_with(node.addr.as_str(), self.forward_options()).ok()?,
        };
        match f(&mut client) {
            Ok(response) => {
                let mut pool = node.pool.lock();
                if pool.len() < 4 {
                    pool.push(client);
                }
                Some(response)
            }
            Err(_) => None,
        }
    }

    /// Records a failed forward/probe against node `idx`, applying
    /// hysteresis. Emits the down-transition counter when it tips.
    fn note_failure(&self, idx: usize) {
        if let Some(node) = self.nodes.get(idx) {
            node.failures.fetch_add(1, Ordering::Relaxed);
            if node.health.lock().record_failure(&self.config.health) {
                counter!("service.ring.node_down").incr();
            }
        }
    }

    /// Evicts node `idx` immediately (an unacknowledged write).
    fn force_down(&self, idx: usize) {
        if let Some(node) = self.nodes.get(idx) {
            if node.health.lock().mark_down() {
                counter!("service.ring.node_down").incr();
            }
        }
    }

    /// Replica indices ranked for `key`, live ones only.
    fn live_walk(&self, key: u64) -> Vec<usize> {
        self.ring
            .walk(key)
            .into_iter()
            .filter(|&i| self.nodes.get(i).is_some_and(Node::is_live))
            .collect()
    }

    /// Read path: try `ranked` in order, failing over on transport errors.
    /// Returns the first answer, or `None` when no replica answered.
    fn read_one(&self, ranked: &[usize], request: &Request, origin: u64) -> Option<Response> {
        let mut first_try = true;
        for &idx in ranked {
            if !first_try {
                self.failovers.fetch_add(1, Ordering::Relaxed);
                counter!("service.ring.failovers").incr();
            }
            first_try = false;
            match self.with_node_client(idx, |c| c.call_routed(request, origin)) {
                Some(response) => {
                    if let Some(node) = self.nodes.get(idx) {
                        node.health.lock().record_success(&self.config.health);
                    }
                    return Some(strip_trace(response));
                }
                None => self.note_failure(idx),
            }
        }
        None
    }

    /// Sheds one request with `busy` + the configured retry hint.
    fn shed(&self) -> Response {
        self.sheds.fetch_add(1, Ordering::Relaxed);
        counter!("service.ring.sheds").incr();
        Response::Busy {
            retry_after_ms: self.config.retry_after_ms,
        }
    }

    /// Write path: journal for every replica, then fan out to the live
    /// ones under the mutation lock. The first acknowledgement wins the
    /// client's response; replicas that fail to acknowledge are evicted.
    /// With no acknowledgement at all the entry is retracted from every
    /// journal before shedding — the shed is retryable, so a journaled
    /// copy would re-apply the write on heal after the retry already
    /// landed it.
    fn fan_out_write(&self, entry: ReplayEntry, request: &Request, origin: u64) -> Response {
        let _order = self.mutation_lock.lock();
        let wseq = self.next_wseq.fetch_add(1, Ordering::Relaxed);
        for node in &self.nodes {
            node.journal.lock().push(wseq, entry.clone());
            counter!("service.ring.journal_appended").incr();
        }
        let mut winner: Option<Response> = None;
        for (idx, node) in self.nodes.iter().enumerate() {
            if !node.is_live() {
                continue;
            }
            // Writes deliberately fan out under the mutation lock: it gives
            // every replica the same journal order, and the per-node RPCs
            // carry connect/read deadlines.
            // pc-allow: C003 — write fan-out is serialized by design; RPCs have deadlines
            match self.with_node_client(idx, |c| c.call_routed_write(request, origin, wseq)) {
                Some(response) if response.is_ok() => {
                    node.health.lock().record_success(&self.config.health);
                    if winner.is_none() {
                        winner = Some(strip_trace(response));
                    }
                }
                // A replica-side refusal or a transport failure both mean
                // this replica missed a write its siblings applied.
                _ => self.force_down(idx),
            }
        }
        match winner {
            Some(response) => {
                // The auto-checkpoint deliberately runs inside the write
                // critical section so no write can land between the
                // fan-out and the save it checkpoints.
                // pc-allow: C003 — auto-checkpoint stays in the write critical section
                self.maybe_checkpoint(origin);
                response
            }
            None => {
                // Still under the mutation lock, so the newest entry of
                // every journal is exactly the one pushed above.
                for node in &self.nodes {
                    node.journal.lock().retract_last();
                    counter!("service.ring.journal_retracted").incr();
                }
                self.shed()
            }
        }
    }

    /// Router-initiated checkpoint: once any *live* replica's pending
    /// journal reaches the configured depth, run the save fan-out inline
    /// (the caller already holds the mutation lock). Down replicas are
    /// excluded — their journals grow until heal by design, and counting
    /// them would turn every subsequent write into a save.
    fn maybe_checkpoint(&self, origin: u64) {
        let every = self.config.checkpoint_every;
        if every == 0 {
            return;
        }
        let due = self
            .nodes
            .iter()
            .any(|node| node.is_live() && node.journal.lock().len() >= every);
        if due {
            counter!("service.ring.auto_checkpoints").incr();
            let _ = self.checkpoint_live(origin);
        }
    }

    /// Checkpoint fan-out: each acknowledging replica's journal truncates
    /// to the entries the checkpoint covered.
    fn fan_out_save(&self, origin: u64) -> Response {
        let _order = self.mutation_lock.lock();
        // Explicit saves serialize against writes on the mutation lock;
        // checkpoint_live itself is lock-free (the PR 8 re-entrancy fix)
        // and its RPCs carry deadlines.
        // pc-allow: C003 — save fan-out is serialized by design; RPCs have deadlines
        self.checkpoint_live(origin).unwrap_or_else(|| self.shed())
    }

    /// The save fan-out body. The caller must hold the mutation lock
    /// (parking_lot mutexes are not re-entrant, and auto-checkpoints run
    /// inside `fan_out_write`'s critical section). Returns `None` when no
    /// live replica acknowledged the checkpoint.
    fn checkpoint_live(&self, origin: u64) -> Option<Response> {
        let mut winner: Option<Response> = None;
        for (idx, node) in self.nodes.iter().enumerate() {
            if !node.is_live() {
                continue;
            }
            let covered = node.journal.lock().len();
            match self.with_node_client(idx, |c| c.call_routed(&Request::Save, origin)) {
                Some(response) if response.is_ok() => {
                    node.health.lock().record_success(&self.config.health);
                    node.journal.lock().truncate(covered);
                    if winner.is_none() {
                        winner = Some(strip_trace(response));
                    }
                }
                _ => self.force_down(idx),
            }
        }
        winner
    }

    /// The full ring view for `ring-status`.
    fn ring_status(&self) -> RingStatusBody {
        RingStatusBody {
            role: "router".to_string(),
            id: self.local_addr.to_string(),
            failovers: self.failovers.load(Ordering::Relaxed),
            sheds: self.sheds.load(Ordering::Relaxed),
            replayed: self.replayed.load(Ordering::Relaxed),
            nodes: self
                .nodes
                .iter()
                .map(|node| NodeStatus {
                    addr: node.addr.clone(),
                    state: node.health.lock().state().as_str().to_string(),
                    pending: node.journal.lock().len() as u64,
                    failures: node.failures.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }

    /// Heals a down replica that has earned rejoin: replay its journal,
    /// checkpoint, truncate, reinstate. Runs under the mutation lock so no
    /// live write can interleave with the replay stream. Replay is
    /// idempotent on the replica side: entries at or below its
    /// applied-write watermark (writes it acknowledged before eviction, or
    /// processed after a mere timeout) are skipped, so a replica that
    /// never lost state does not double-apply and diverge.
    fn heal(&self, idx: usize) {
        let Some(node) = self.nodes.get(idx) else {
            return;
        };
        let _order = self.mutation_lock.lock();
        let batch = node.journal.lock().snapshot();
        let origin = trace_id(u64::MAX, idx as u64);
        if !batch.is_empty() {
            let replay = Request::Replay {
                entries: batch.clone(),
            };
            // Heal replays under the mutation lock so no concurrent write
            // can race the journal snapshot it replays.
            // pc-allow: C003 — heal is serialized against writes by design
            let replayed = self.with_node_client(idx, |c| c.call_routed(&replay, origin));
            match replayed {
                Some(ref r) if r.is_ok() => {
                    self.replayed
                        .fetch_add(batch.len() as u64, Ordering::Relaxed);
                    counter!("service.ring.replayed").add(batch.len() as u64);
                }
                _ => {
                    // Replay failed: the node stays down, probes continue.
                    self.note_failure(idx);
                    return;
                }
            }
        }
        // Checkpoint what the replay (and everything before it) delivered,
        // so the journal may truncate; a failed checkpoint keeps the
        // journal and the node stays down.
        // The heal checkpoint stays inside the same mutation-lock critical
        // section as the replay it covers.
        // pc-allow: C003 — heal checkpoint shares the replay's critical section
        let saved = self.with_node_client(idx, |c| c.call_routed(&Request::Save, origin));
        match saved {
            Some(ref r) if r.is_ok() => {
                node.journal.lock().truncate(batch.len());
                node.health.lock().mark_up();
                counter!("service.ring.node_up").incr();
            }
            _ => self.note_failure(idx),
        }
    }
}

/// Unwraps a replica-side `Traced` wrapper: the router reports its own
/// stage breakdown, not the replica's.
fn strip_trace(response: Response) -> Response {
    match response {
        Response::Traced { inner, .. } => *inner,
        other => other,
    }
}

/// A handle to a running router. Dropping it shuts the router down and
/// blocks until drained (replicas are left running).
pub struct RouterHandle {
    shared: Arc<RouterShared>,
    accept_thread: Option<JoinHandle<io::Result<()>>>,
    prober: Option<JoinHandle<()>>,
}

impl RouterHandle {
    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Triggers graceful shutdown without waiting.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// A clonable handle other threads can use to trigger shutdown (the
    /// `--watch-stdin` watcher in `pc route`).
    pub fn trigger(&self) -> RouterTrigger {
        RouterTrigger {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Blocks until the router has drained.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop failures.
    pub fn wait(mut self) -> io::Result<()> {
        self.join_all()
    }

    /// [`RouterHandle::shutdown`] followed by [`RouterHandle::wait`].
    ///
    /// # Errors
    ///
    /// As [`RouterHandle::wait`].
    pub fn shutdown_and_wait(self) -> io::Result<()> {
        self.shutdown();
        self.wait()
    }

    fn join_all(&mut self) -> io::Result<()> {
        let outcome = match self.accept_thread.take() {
            Some(t) => t
                .join()
                .map_err(|_| io::Error::other("router accept thread panicked"))?,
            None => Ok(()),
        };
        if let Some(p) = self.prober.take() {
            let _ = p.join();
        }
        outcome
    }
}

/// A clonable shutdown trigger detached from the [`RouterHandle`].
#[derive(Clone)]
pub struct RouterTrigger {
    shared: Arc<RouterShared>,
}

impl RouterTrigger {
    /// Triggers graceful router shutdown (idempotent).
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }
}

impl Drop for RouterHandle {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.shared.begin_shutdown();
            let _ = self.join_all();
        }
    }
}

/// Starts the routing tier.
///
/// # Errors
///
/// Bind failures, or an empty replica list.
pub fn start(config: RouterConfig) -> io::Result<RouterHandle> {
    if config.replicas.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "router needs at least one --replica",
        ));
    }
    let listener = TcpListener::bind(&config.addr)?;
    let local_addr = listener.local_addr()?;
    let ring = Ring::new(&config.replicas);
    let tracer = Arc::new(Tracer::new(
        protocol::OPS,
        config.flight_recorder_len,
        config.slow_ms,
        config.trace,
    ));
    let nodes = config
        .replicas
        .iter()
        .map(|addr| Node::new(addr.clone()))
        .collect();
    let shared = Arc::new(RouterShared {
        config,
        ring,
        nodes,
        mutation_lock: PlMutex::new(()),
        tracer,
        local_addr,
        shutting_down: AtomicBool::new(false),
        failovers: AtomicU64::new(0),
        sheds: AtomicU64::new(0),
        replayed: AtomicU64::new(0),
        next_wseq: AtomicU64::new(1),
    });

    let prober_shared = Arc::clone(&shared);
    let prober = thread::Builder::new()
        .name("pc-ring-probe".to_string())
        .spawn(move || probe_loop(prober_shared))?;

    let accept_shared = Arc::clone(&shared);
    let accept_thread = thread::Builder::new()
        .name("pc-route-accept".to_string())
        .spawn(move || accept_loop(listener, accept_shared))?;

    Ok(RouterHandle {
        shared,
        accept_thread: Some(accept_thread),
        prober: Some(prober),
    })
}

/// The health prober: pings every replica each tick (down replicas on a
/// capped-exponential backoff), heals the ones that earn rejoin.
fn probe_loop(shared: Arc<RouterShared>) {
    let tick = shared.config.probe_interval_ms.max(1);
    // Per-node countdown until the next probe, in milliseconds. Down
    // replicas get their backoff written here; live ones probe every tick.
    let mut next_probe_ms: Vec<u64> = shared.nodes.iter().map(|_| 0).collect();
    while !shared.shutting_down.load(Ordering::SeqCst) {
        thread::sleep(Duration::from_millis(tick));
        for (idx, node) in shared.nodes.iter().enumerate() {
            let Some(slot) = next_probe_ms.get_mut(idx) else {
                continue;
            };
            if *slot > tick {
                *slot -= tick;
                continue;
            }
            counter!("service.ring.probes").incr();
            let answered = !pc_faults::fail_point("ring.probe")
                && ServiceClient::connect_with(node.addr.as_str(), shared.forward_options())
                    .ok()
                    .and_then(|mut c| c.call(&Request::Ping).ok())
                    .is_some_and(|r| r.is_ok());
            if answered {
                let earned_rejoin = node.health.lock().record_success(&shared.config.health);
                if earned_rejoin {
                    shared.heal(idx);
                }
            } else {
                counter!("service.ring.probe_failures").incr();
                shared.note_failure(idx);
            }
            // Reschedule off the post-outcome state: slow heartbeat for
            // `Up`, base rate for `Suspect`, capped backoff for `Down`.
            *slot = node.health.lock().probe_delay_ms(&shared.config.health);
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<RouterShared>) -> io::Result<()> {
    let mut conn_threads: Vec<JoinHandle<()>> = Vec::new();
    let mut conn_streams: Vec<TcpStream> = Vec::new();
    let mut next_conn = 0u64;
    loop {
        let (stream, _peer) = match listener.accept() {
            Ok(pair) => pair,
            Err(_) if shared.shutting_down.load(Ordering::SeqCst) => break,
            Err(_) => continue,
        };
        if shared.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        counter!("service.conn.accepted").incr();
        conn_streams.push(stream.try_clone()?);
        let conn_shared = Arc::clone(&shared);
        let id = next_conn;
        next_conn += 1;
        conn_threads.push(
            thread::Builder::new()
                .name(format!("pc-route-conn-{id}"))
                .spawn(move || serve_connection(stream, conn_shared, id))?,
        );
    }
    for stream in &conn_streams {
        let _ = stream.shutdown(Shutdown::Both);
    }
    for t in conn_threads {
        let _ = t.join();
    }
    counter!("service.shutdown.drained").incr();
    Ok(())
}

/// One client connection: requests are handled serially (the router is
/// I/O-bound; per-connection pipelining still overlaps across
/// connections) and responses written in request order.
fn serve_connection(stream: TcpStream, shared: Arc<RouterShared>, conn_id: u64) {
    if let Some(ms) = shared.config.write_timeout_ms {
        let _ = stream.set_write_timeout(Some(Duration::from_millis(ms)));
    }
    // Each response leaves in one write (see `codec::write_frame`), and
    // Nagle's algorithm must not hold it for the peer's delayed ACK.
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        let frame = {
            let _span = pc_telemetry::time!("service.decode");
            codec::read_frame(&mut reader, codec::MAX_FRAME_BYTES)
        };
        let value = match frame {
            Ok(value) => value,
            Err(CodecError::Closed) => break,
            Err(e) => {
                counter!("service.decode.framing_errors").incr();
                let _ = write_response(
                    &mut writer,
                    0,
                    &Response::Error {
                        message: e.to_string(),
                    },
                );
                break;
            }
        };
        let clock = shared.tracer.enabled().then(StageClock::start);
        let (seq, request, wants_trace) = match protocol::decode_request_flags(&value) {
            Ok(decoded) => decoded,
            Err(e) => {
                counter!("service.decode.bad_requests").incr();
                let _ = write_response(
                    &mut writer,
                    0,
                    &Response::Error {
                        message: e.to_string(),
                    },
                );
                continue;
            }
        };
        let op = request.op();
        count_request(op);
        let decode_ns = clock.map_or(0, |c| c.elapsed_ns());
        let mut trace = shared
            .tracer
            .begin(conn_id, seq, op, decode_ns, wants_trace);
        // The origin id every replica forward carries for this request —
        // identical to the router's own trace id, even when tracing is off.
        let origin = trace_id(conn_id, seq);
        let shutdown_after = matches!(request, Request::Shutdown);
        let response = route_request(&shared, request, origin);
        let response = apply_trace(&mut trace, response);
        let ok = write_response(&mut writer, seq, &response).is_ok();
        if let Some(mut tb) = trace {
            tb.record_lap(Stage::Write);
            shared.tracer.observe(tb.finish());
        }
        if ok {
            counter!("service.responses").incr();
        } else {
            break;
        }
        if shutdown_after {
            shared.begin_shutdown();
            break;
        }
    }
    counter!("service.conn.closed").incr();
}

fn write_response<W: std::io::Write>(w: &mut W, seq: u64, response: &Response) -> io::Result<()> {
    let _span = pc_telemetry::time!("service.respond");
    let frame = protocol::encode_response(seq, response);
    codec::write_frame(w, &frame)
}

/// Dispatches one decoded request to the right routing path.
fn route_request(shared: &RouterShared, request: Request, origin: u64) -> Response {
    match request {
        Request::Ping => Response::Pong,
        Request::RingStatus => Response::RingStatus(shared.ring_status()),
        // The router has no submission queue, so its queue depth is 0.
        Request::Metrics => Response::Metrics(MetricsBody::from_tracer(&shared.tracer, 0)),
        Request::TraceDump => Response::TraceDump {
            traces: TraceRecord::recent(&shared.tracer),
        },
        Request::Shutdown => Response::ShuttingDown,
        Request::Replay { .. } => Response::Error {
            message: "replay frames are replica-only; the router originates them".to_string(),
        },
        Request::Identify { ref errors } => {
            let ranked = shared.live_walk(key_of(errors));
            shared
                .read_one(&ranked, &request, origin)
                .unwrap_or_else(|| shared.shed())
        }
        Request::Stats => {
            // Stats are replica-global, not keyed: route by a fixed key so
            // the answer is stable, failing over like any read.
            let ranked = shared.live_walk(0);
            shared
                .read_one(&ranked, &request, origin)
                .unwrap_or_else(|| shared.shed())
        }
        Request::Characterize {
            ref label,
            ref errors,
        } => {
            let entry = ReplayEntry::Characterize {
                label: label.clone(),
                errors: errors.clone(),
            };
            shared.fan_out_write(entry, &request, origin)
        }
        Request::ClusterIngest { ref errors } => {
            let entry = ReplayEntry::ClusterIngest {
                errors: errors.clone(),
            };
            shared.fan_out_write(entry, &request, origin)
        }
        Request::Save => shared.fan_out_save(origin),
    }
}
