//! The TCP server: accept loop, per-connection reader/writer threads, and
//! graceful drain-on-shutdown.
//!
//! Thread anatomy of a running server:
//!
//! ```text
//! pc-accept ── spawns ──▶ pc-conn-N (reader)  ⇄  writer thread
//!                                 │ try_submit         ▲
//!                                 ▼                    │ reply
//!                    SubmissionQueue (bounded)         │
//!                                 │ pop_batch          │
//!                          pc-dispatcher ──────────────┘
//!                  (one job at a time, in admission order)
//! ```
//!
//! Shutdown can be triggered three ways — a `shutdown` request on any
//! connection, [`ServerHandle::shutdown`], or dropping the handle — and is
//! always graceful: the accept loop stops taking connections, every
//! connection's read half is closed so no *new* requests arrive, the queue
//! drains every already-admitted job (their responses still flow out through
//! the per-connection writers), the dispatcher joins, and the database +
//! routing index are persisted (atomically, see
//! [`probable_cause::persistence`]) if paths were configured.
//!
//! Resilience: connections carry idle and per-frame read deadlines (the
//! slow-loris defense) plus a write timeout; startup recovers a torn or
//! corrupt database via its `.bak` fallback and rebuilds a missing, torn or
//! stale index at open, before the listener binds; the `save` request
//! checkpoints durably while the server runs.

use crate::codec::{self, CodecError, ReadGuard};
use crate::pool::{apply_trace, Job, Outbound, Pool, PoolMetrics, SubmissionQueue, SubmitError};
use crate::protocol::{self, MetricsBody, Request, Response, StatsBody, TraceRecord};
use crate::store::{ShardedStore, StoreConfig};
use pc_telemetry::counter;
use pc_telemetry::trace::{Stage, StageClock, Tracer};
use probable_cause::persistence;
use std::io::{self, BufReader};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`ServerHandle::local_addr`]).
    pub addr: String,
    /// Store geometry and matching parameters.
    pub store: StoreConfig,
    /// Submission-queue capacity; submissions beyond it answer `busy`.
    pub queue_capacity: usize,
    /// Back-off hint attached to `busy` responses.
    pub retry_after_ms: u64,
    /// Database file: loaded at startup if present, written at shutdown.
    pub db_path: Option<PathBuf>,
    /// Routing-index file: loaded with the database, written at shutdown.
    pub index_path: Option<PathBuf>,
    /// Per-connection idle deadline: a connection with no frame in flight
    /// for this long is closed. `None` keeps idle connections open forever.
    pub idle_timeout_ms: Option<u64>,
    /// Per-frame completion deadline measured from a frame's first byte —
    /// the slow-loris limit: a peer dripping bytes cannot hold a frame open
    /// past this window. `None` disables the limit.
    pub frame_timeout_ms: Option<u64>,
    /// Socket write timeout for response frames.
    pub write_timeout_ms: Option<u64>,
    /// Slow-request threshold in milliseconds: a traced request whose total
    /// latency meets or exceeds it logs a structured `slow_query` event and
    /// dumps the flight recorder. `None` disables the slow path.
    pub slow_ms: Option<u64>,
    /// Flight-recorder capacity: the last N request traces kept for dumps
    /// and `trace-dump` frames.
    pub flight_recorder_len: usize,
    /// Whether per-request tracing is live. Off means zero clock reads on
    /// the request path and empty `metrics`/`trace-dump` responses.
    pub trace: bool,
    /// Identity this replica reports in `ring-status` answers when it runs
    /// behind a `pc route` tier. `None` reports the bound address.
    pub replica_id: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            store: StoreConfig::default(),
            queue_capacity: 1024,
            retry_after_ms: 10,
            db_path: None,
            index_path: None,
            idle_timeout_ms: None,
            frame_timeout_ms: Some(30_000),
            write_timeout_ms: Some(30_000),
            slow_ms: None,
            flight_recorder_len: 64,
            trace: true,
            replica_id: None,
        }
    }
}

impl ServerConfig {
    fn read_guard(&self) -> ReadGuard {
        ReadGuard {
            idle_timeout: self.idle_timeout_ms.map(Duration::from_millis),
            frame_timeout: self.frame_timeout_ms.map(Duration::from_millis),
        }
    }
}

/// Jobs the dispatcher takes from the queue per wakeup.
const DISPATCH_BATCH: usize = 32;

/// State shared between the accept loop, connections, and the handle.
struct Shared {
    store: Arc<ShardedStore>,
    queue: Arc<SubmissionQueue>,
    config: ServerConfig,
    local_addr: SocketAddr,
    shutting_down: AtomicBool,
    pool_metrics: Arc<PoolMetrics>,
    tracer: Arc<Tracer>,
    /// Serializes checkpoint saves: two connections issuing `save` at once
    /// must not interleave writes to the same temp file.
    save_lock: Mutex<()>,
}

impl Shared {
    /// Idempotently triggers shutdown and wakes the blocking accept call.
    fn begin_shutdown(&self) {
        if !self.shutting_down.swap(true, Ordering::SeqCst) {
            counter!("service.shutdown.triggered").incr();
            // accept() has no timeout in std; a throwaway connection wakes it
            // so it can observe the flag.
            let _ = TcpStream::connect(self.local_addr);
        }
    }

    fn stats(&self) -> StatsBody {
        StatsBody {
            fingerprints: self.store.len() as u64,
            clusters: self.store.cluster_count() as u64,
            admitted: self.queue.admitted(),
            rejected: self.queue.rejected(),
            distance_evals: self.store.distance_evals(),
            worker_panics: self.pool_metrics.worker_panics(),
        }
    }

    /// This replica's self view for a `ring-status` request: identity only;
    /// replica health and journals live in the routing tier.
    fn ring_status(&self) -> protocol::RingStatusBody {
        protocol::RingStatusBody {
            role: "replica".to_string(),
            id: self
                .config
                .replica_id
                .clone()
                .unwrap_or_else(|| self.local_addr.to_string()),
            ..protocol::RingStatusBody::default()
        }
    }

    /// Checkpoints the store to the configured paths under the save lock.
    fn save(&self) -> io::Result<u64> {
        let _guard = self.save_lock.lock().unwrap_or_else(|p| p.into_inner());
        // Serializing whole-DB checkpoints across the durable (fsync +
        // fault-stall) write is exactly what save_lock is for; request
        // handling proceeds on other threads meanwhile.
        // pc-allow: C003 — save_lock exists to serialize checkpoints end to end
        self.store.save_to_paths(
            self.config.db_path.as_deref(),
            self.config.index_path.as_deref(),
        )
    }
}

/// A handle to a running server.
///
/// Dropping the handle shuts the server down and blocks until it has
/// drained; call [`ServerHandle::shutdown`] +
/// [`ServerHandle::wait`] to do the same explicitly and observe errors.
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<io::Result<()>>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// The store behind the server (for tests and embedding).
    pub fn store(&self) -> &Arc<ShardedStore> {
        &self.shared.store
    }

    /// Triggers graceful shutdown without waiting.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// A detached trigger that can shut the server down from another thread
    /// while this handle is blocked in [`ServerHandle::wait`].
    pub fn trigger(&self) -> ShutdownTrigger {
        ShutdownTrigger(Arc::clone(&self.shared))
    }

    /// Blocks until the server has fully drained and persisted.
    ///
    /// # Errors
    ///
    /// Propagates persistence failures from the teardown path.
    pub fn wait(mut self) -> io::Result<()> {
        self.join_accept()
    }

    /// [`ServerHandle::shutdown`] followed by [`ServerHandle::wait`].
    ///
    /// # Errors
    ///
    /// Propagates persistence failures from the teardown path.
    pub fn shutdown_and_wait(self) -> io::Result<()> {
        self.shutdown();
        self.wait()
    }

    fn join_accept(&mut self) -> io::Result<()> {
        match self.accept_thread.take() {
            Some(t) => t
                .join()
                .map_err(|_| io::Error::other("accept thread panicked"))?,
            None => Ok(()),
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.shared.begin_shutdown();
            let _ = self.join_accept();
        }
    }
}

/// A clonable shutdown trigger detached from the owning [`ServerHandle`].
#[derive(Clone)]
pub struct ShutdownTrigger(Arc<Shared>);

impl ShutdownTrigger {
    /// Triggers graceful shutdown without waiting.
    pub fn shutdown(&self) {
        self.0.begin_shutdown();
    }
}

/// Starts a server, loading any persisted state named by `config`.
///
/// Recovery at startup is best-effort but never lossy: a damaged database
/// file falls back to its `.bak` sibling, and an index that is missing,
/// torn, or stale next to an intact database is rebuilt at open (see
/// [`ShardedStore::open`]) before the listener binds, so the first request
/// is already routed exactly as a peer holding the same data routes it.
///
/// # Errors
///
/// Bind failures, or persisted state whose database *and* backup are both
/// unreadable.
pub fn start(config: ServerConfig) -> io::Result<ServerHandle> {
    let store = Arc::new(load_store(&config)?);
    let listener = TcpListener::bind(&config.addr)?;
    let local_addr = listener.local_addr()?;
    let queue = Arc::new(SubmissionQueue::new(config.queue_capacity));
    let tracer = Arc::new(Tracer::new(
        protocol::OPS,
        config.flight_recorder_len,
        config.slow_ms,
        config.trace,
    ));
    let pool = Pool::spawn(
        Arc::clone(&store),
        Arc::clone(&queue),
        DISPATCH_BATCH,
        Arc::clone(&tracer),
    );
    let shared = Arc::new(Shared {
        store,
        queue,
        config,
        local_addr,
        shutting_down: AtomicBool::new(false),
        pool_metrics: pool.metrics(),
        tracer,
        save_lock: Mutex::new(()),
    });

    let accept_shared = Arc::clone(&shared);
    let accept_thread = thread::Builder::new()
        .name("pc-accept".to_string())
        .spawn(move || accept_loop(listener, accept_shared, pool))?;

    Ok(ServerHandle {
        shared,
        accept_thread: Some(accept_thread),
    })
}

fn load_store(config: &ServerConfig) -> io::Result<ShardedStore> {
    let to_io = |e: persistence::DbIoError| match e {
        persistence::DbIoError::Io(e) => e,
        other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
    };
    let Some(db_path) = &config.db_path else {
        return Ok(ShardedStore::new(config.store.clone()));
    };
    if !db_path.exists() && !persistence::bak_path(db_path).exists() {
        return Ok(ShardedStore::new(config.store.clone()));
    }
    // The database is the source of truth; it must load (possibly from its
    // backup). The index is merely an accelerator: any damage there means
    // it is rebuilt at open, never a refused startup.
    let db = persistence::load_db_from_path(db_path).map_err(to_io)?;
    if matches!(db.source, persistence::LoadSource::Backup) {
        counter!("service.recovery.db_from_backup").incr();
    }
    let index_recovered = config.index_path.as_deref().and_then(|idx_path| {
        if !idx_path.exists() && !persistence::bak_path(idx_path).exists() {
            return None;
        }
        match persistence::load_index_from_path(idx_path) {
            Ok(rec) => Some(rec.value),
            Err(_) => {
                counter!("service.recovery.index_unreadable").incr();
                None
            }
        }
    });
    // A missing, torn or stale index is rebuilt here, at open.
    Ok(ShardedStore::open(
        config.store.clone(),
        db.value,
        index_recovered,
    ))
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>, pool: Pool) -> io::Result<()> {
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
            break; // the wake-up connection, or a late client
        }
        counter!("service.conn.accepted").incr();
        conn_streams.push(stream.try_clone()?);
        let conn_shared = Arc::clone(&shared);
        let id = next_conn;
        next_conn += 1;
        conn_threads.push(
            thread::Builder::new()
                .name(format!("pc-conn-{id}"))
                .spawn(move || serve_connection(stream, conn_shared, id))?,
        );
    }

    // Teardown. Closing read halves stops connections from admitting new
    // work; responses for already-admitted jobs still flow out through the
    // per-connection writer threads, which the reader threads join.
    for stream in &conn_streams {
        let _ = stream.shutdown(Shutdown::Read);
    }
    for t in conn_threads {
        let _ = t.join();
    }
    pool.drain_and_join();
    shared.save()?;
    counter!("service.shutdown.drained").incr();
    Ok(())
}

fn serve_connection(stream: TcpStream, shared: Arc<Shared>, conn_id: u64) {
    let guard = shared.config.read_guard();
    if guard.is_active() {
        // The socket's read timeout is the guard's polling tick, not the
        // deadline itself: each timeout wakes the guarded read to check its
        // idle/frame clocks.
        let _ = stream.set_read_timeout(Some(guard.tick()));
    }
    if let Some(ms) = shared.config.write_timeout_ms {
        let _ = stream.set_write_timeout(Some(Duration::from_millis(ms)));
    }
    // Each reply leaves in one write (see `codec::write_frame`), and Nagle's
    // algorithm must not hold it for the peer's delayed ACK.
    let _ = stream.set_nodelay(true);
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let (reply_tx, reply_rx) = mpsc::channel::<Outbound>();
    let writer_shared = Arc::clone(&shared);
    let writer_thread = thread::spawn(move || write_loop(write_half, reply_rx, &writer_shared));

    let mut reader = BufReader::new(stream);
    loop {
        let frame = {
            let _span = pc_telemetry::time!("service.decode");
            // The read fault strikes a frame that arrived, never the wait
            // for one: a reader looping back after its last request must not
            // spend a fault meant for a request.
            codec::read_frame_guarded(&mut reader, codec::MAX_FRAME_BYTES, guard).and_then(
                |value| {
                    if pc_faults::fail_point("wire.read") {
                        // A read-side fault is an incident: capture the
                        // traces that led up to it before the connection dies.
                        shared.tracer.dump("fault_injected");
                        Err(CodecError::Io(pc_faults::injected_io("wire.read")))
                    } else {
                        Ok(value)
                    }
                },
            )
        };
        let value = match frame {
            Ok(value) => value,
            Err(CodecError::Closed) => break,
            Err(CodecError::Idle) => {
                // A quiet connection is not an error; just hang up.
                counter!("service.conn.idle_closed").incr();
                break;
            }
            Err(e) => {
                // Framing is unrecoverable mid-stream: report and hang up.
                counter!("service.decode.framing_errors").incr();
                let _ = reply_tx.send(Outbound::new(
                    0,
                    Response::Error {
                        message: e.to_string(),
                    },
                ));
                break;
            }
        };
        // The decode clock only runs when tracing is live: a disabled tracer
        // keeps the request path free of clock reads.
        let clock = shared.tracer.enabled().then(StageClock::start);
        let (seq, request, wants_trace, origin, wseq) =
            match protocol::decode_request_routed(&value) {
                Ok(decoded) => decoded,
                Err(e) => {
                    // The frame boundary held, so the connection survives a
                    // malformed request; seq 0 marks an uncorrelated error.
                    counter!("service.decode.bad_requests").incr();
                    let _ = reply_tx.send(Outbound::new(
                        0,
                        Response::Error {
                            message: e.to_string(),
                        },
                    ));
                    continue;
                }
            };
        let op = request.op();
        count_request(op);
        let decode_ns = clock.map_or(0, |c| c.elapsed_ns());
        // A forwarded frame carries the router-assigned trace id; adopting
        // it makes replica flight-recorder entries greppable by the id the
        // routing tier reported.
        let mut trace = match origin {
            Some(id) => shared
                .tracer
                .begin_forwarded(id, seq, op, decode_ns, wants_trace),
            None => shared
                .tracer
                .begin(conn_id, seq, op, decode_ns, wants_trace),
        };
        match request {
            Request::Ping => {
                let response = apply_trace(&mut trace, Response::Pong);
                let _ = reply_tx.send(Outbound {
                    seq,
                    response,
                    trace,
                });
            }
            Request::Stats => {
                let response = apply_trace(&mut trace, Response::Stats(shared.stats()));
                let _ = reply_tx.send(Outbound {
                    seq,
                    response,
                    trace,
                });
            }
            // Answered empty and untraced here; the writer renders them
            // (see `render_snapshot`).
            Request::Metrics => {
                let _ = reply_tx.send(Outbound {
                    seq,
                    response: Response::Metrics(MetricsBody::default()),
                    trace,
                });
            }
            Request::TraceDump => {
                let _ = reply_tx.send(Outbound {
                    seq,
                    response: Response::TraceDump { traces: Vec::new() },
                    trace,
                });
            }
            Request::Save => {
                // Handled inline on the connection thread: a save is a
                // durability checkpoint, and the acknowledgement must mean
                // "the rename landed", not "the job was queued".
                let response = match shared.save() {
                    Ok(fingerprints) => Response::Saved { fingerprints },
                    Err(e) => {
                        counter!("service.save.failed").incr();
                        Response::Error {
                            message: format!("save failed: {e}"),
                        }
                    }
                };
                let response = apply_trace(&mut trace, response);
                let _ = reply_tx.send(Outbound {
                    seq,
                    response,
                    trace,
                });
            }
            Request::RingStatus => {
                let response = apply_trace(&mut trace, Response::RingStatus(shared.ring_status()));
                let _ = reply_tx.send(Outbound {
                    seq,
                    response,
                    trace,
                });
            }
            Request::Shutdown => {
                let response = apply_trace(&mut trace, Response::ShuttingDown);
                let _ = reply_tx.send(Outbound {
                    seq,
                    response,
                    trace,
                });
                shared.begin_shutdown();
                break;
            }
            Request::Identify { errors } => submit(
                &shared,
                &reply_tx,
                seq,
                Job::Identify {
                    seq,
                    errors: Arc::new(errors),
                    reply: reply_tx.clone(),
                    trace,
                },
            ),
            Request::Characterize { label, errors } => submit(
                &shared,
                &reply_tx,
                seq,
                Job::Characterize {
                    seq,
                    label,
                    errors,
                    reply: reply_tx.clone(),
                    trace,
                    wseq,
                },
            ),
            Request::ClusterIngest { errors } => submit(
                &shared,
                &reply_tx,
                seq,
                Job::ClusterIngest {
                    seq,
                    errors,
                    reply: reply_tx.clone(),
                    trace,
                    wseq,
                },
            ),
            Request::Replay { entries } => submit(
                &shared,
                &reply_tx,
                seq,
                Job::Replay {
                    seq,
                    entries,
                    reply: reply_tx.clone(),
                    trace,
                },
            ),
        }
    }

    // Dropping our sender lets the writer exit once any in-flight jobs have
    // delivered their responses through their own clones.
    drop(reply_tx);
    let _ = writer_thread.join();
    counter!("service.conn.closed").incr();
}

/// Per-op request counters (the `counter!` macro needs literal names).
/// Shared with the router tier, which serves the same op set.
pub(crate) fn count_request(op: &str) {
    match op {
        "ping" => counter!("service.requests.ping").incr(),
        "identify" => counter!("service.requests.identify").incr(),
        "characterize" => counter!("service.requests.characterize").incr(),
        "cluster-ingest" => counter!("service.requests.cluster_ingest").incr(),
        "stats" => counter!("service.requests.stats").incr(),
        "metrics" => counter!("service.requests.metrics").incr(),
        "trace-dump" => counter!("service.requests.trace_dump").incr(),
        "save" => counter!("service.requests.save").incr(),
        "ring-status" => counter!("service.requests.ring_status").incr(),
        "replay" => counter!("service.requests.replay").incr(),
        _ => counter!("service.requests.shutdown").incr(),
    }
}

/// Admits a job or answers the backpressure/shutdown refusal inline. A
/// refused job's stage timer still rides out with the refusal, so `busy`
/// responses are traced too.
fn submit(shared: &Shared, reply: &mpsc::Sender<Outbound>, seq: u64, job: Job) {
    match shared.queue.try_submit(job) {
        Ok(()) => {}
        Err(SubmitError::Full(job)) => {
            let mut trace = job.into_trace();
            let response = apply_trace(
                &mut trace,
                Response::Busy {
                    retry_after_ms: shared.config.retry_after_ms,
                },
            );
            let _ = reply.send(Outbound {
                seq,
                response,
                trace,
            });
        }
        Err(SubmitError::Closed(job)) => {
            let mut trace = job.into_trace();
            let response = apply_trace(
                &mut trace,
                Response::Error {
                    message: "server is shutting down".to_string(),
                },
            );
            let _ = reply.send(Outbound {
                seq,
                response,
                trace,
            });
        }
    }
}

/// Fills in a `metrics` or `trace-dump` answer, which only the reader sends
/// and sends empty; every other reply passes through. The writer observes
/// each reply's trace once its frame is on the socket, so a snapshot taken
/// here covers every reply this connection's client has already received.
fn render_snapshot(shared: &Shared, out: &mut Outbound) {
    let response = match out.response {
        Response::Metrics(_) => Response::Metrics(MetricsBody::from_tracer(
            &shared.tracer,
            shared.queue.depth() as u64,
        )),
        Response::TraceDump { .. } => Response::TraceDump {
            traces: TraceRecord::recent(&shared.tracer),
        },
        _ => return,
    };
    out.response = apply_trace(&mut out.trace, response);
}

fn write_loop(stream: TcpStream, replies: mpsc::Receiver<Outbound>, shared: &Shared) {
    let tracer = &shared.tracer;
    while let Ok(mut out) = replies.recv() {
        render_snapshot(shared, &mut out);
        let Outbound {
            seq,
            response,
            mut trace,
        } = out;
        let _span = pc_telemetry::time!("service.respond");
        let frame = protocol::encode_response(seq, &response);
        if let Some(tb) = trace.as_deref_mut() {
            // Everything since the score lap — writer-queue wait plus the
            // encode itself — is the encode stage.
            tb.record_lap(Stage::Encode);
        }
        // An injected wire.write fault drops the connection exactly as a
        // failed send would: the peer never sees this acknowledgement.
        let fault = pc_faults::fail_point("wire.write");
        if fault {
            tracer.dump("fault_injected");
        }
        let failed = fault || codec::write_frame(&mut &stream, &frame).is_err();
        if failed {
            // The peer is gone; unblock our reader too and bail.
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        if let Some(mut tb) = trace {
            // write_frame hands the whole frame to the socket, so this lap
            // covers the real socket write.
            tb.record_lap(Stage::Write);
            tracer.observe(tb.finish());
        }
        counter!("service.responses").incr();
    }
}
