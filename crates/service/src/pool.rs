//! The server's execution engine: a bounded submission queue and one
//! dispatcher thread.
//!
//! Connection threads *submit* work and never touch the store. The
//! dispatcher pops jobs in batches and answers each job in admission order:
//! it runs the job, sends the response, then takes the next one. An
//! identify (LSH planning plus kernel scoring of a handful of candidates,
//! microseconds of work) runs on the dispatcher exactly like a mutation
//! (characterize, cluster-ingest, replay). Writes are therefore
//! deterministic in admission order, and every identify sees exactly the
//! mutations admitted before it.
//!
//! Backpressure is explicit: the queue has a fixed capacity and
//! [`SubmissionQueue::try_submit`] never blocks — a full queue bounces the
//! job back so the connection can answer `busy` with a retry hint instead of
//! stalling the read loop. Closing the queue lets already-admitted jobs
//! drain: the dispatcher keeps popping until the queue is empty, then
//! exits — that is the graceful-drain half of server shutdown.
//!
//! # Panic containment
//!
//! Every request runs under its own `catch_unwind`. A panic while scoring
//! (organic, or injected at the `store.score` fault site) or inside a
//! mutation fails only its own request with an `Error` response, and the
//! dispatcher keeps serving. [`PoolMetrics`] counts the absorbed panics,
//! which `stats` reports as `worker_panics`.

use crate::protocol::{Response, TraceBody};
use crate::store::ShardedStore;
use pc_telemetry::counter;
use pc_telemetry::trace::{Stage, TraceBuilder, Tracer};
use probable_cause::ErrorString;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};

/// One response leaving the engine for a connection's writer thread: the
/// request's sequence number, its payload, and — when tracing is enabled —
/// the request's stage timer, which the writer closes (encode/write laps)
/// and hands to the tracer.
pub struct Outbound {
    /// Request sequence number, echoed in the response.
    pub seq: u64,
    /// The response payload.
    pub response: Response,
    /// The request's stage timer, if the request was traced.
    pub trace: Option<Box<TraceBuilder>>,
}

impl Outbound {
    /// An untraced response.
    pub fn new(seq: u64, response: Response) -> Self {
        Self {
            seq,
            response,
            trace: None,
        }
    }
}

/// Where a job's response goes: the owning connection's writer channel.
pub type Reply = mpsc::Sender<Outbound>;

/// Records the score lap on `trace` (if present) and wraps `response` in
/// [`Response::Traced`] when the client asked for the breakdown on the wire.
///
/// Called exactly once per request, at the point its response is built —
/// everything from the job's pop off the queue to here counts as the
/// score stage.
pub(crate) fn apply_trace(trace: &mut Option<Box<TraceBuilder>>, response: Response) -> Response {
    let Some(tb) = trace.as_deref_mut() else {
        return response;
    };
    tb.record_lap(Stage::Score);
    if !tb.wire() {
        return response;
    }
    let decode_ns = tb.stage_ns(Stage::Decode);
    let queue_wait_ns = tb.stage_ns(Stage::QueueWait);
    let score_ns = tb.stage_ns(Stage::Score);
    let total_ns = tb.total_so_far_ns();
    Response::Traced {
        inner: Box::new(response),
        trace: TraceBody {
            trace_id: tb.trace_id(),
            decode_ns,
            queue_wait_ns,
            score_ns,
            other_ns: total_ns.saturating_sub(decode_ns + queue_wait_ns + score_ns),
            total_ns,
        },
    }
}

/// A unit of admitted work.
pub enum Job {
    /// Score an output against the store.
    Identify {
        /// Request sequence number, echoed in the response.
        seq: u64,
        /// The output's error string.
        errors: Arc<ErrorString>,
        /// Response channel.
        reply: Reply,
        /// The request's stage timer, if tracing is enabled.
        trace: Option<Box<TraceBuilder>>,
    },
    /// Refine (or create) a labelled fingerprint.
    Characterize {
        /// Request sequence number.
        seq: u64,
        /// Device label.
        label: String,
        /// The observation.
        errors: ErrorString,
        /// Response channel.
        reply: Reply,
        /// The request's stage timer, if tracing is enabled.
        trace: Option<Box<TraceBuilder>>,
        /// The router's global write sequence, when this mutation was
        /// fanned out by a router (advances the replay-dedup watermark).
        wseq: Option<u64>,
    },
    /// Online-cluster an output.
    ClusterIngest {
        /// Request sequence number.
        seq: u64,
        /// The output.
        errors: ErrorString,
        /// Response channel.
        reply: Reply,
        /// The request's stage timer, if tracing is enabled.
        trace: Option<Box<TraceBuilder>>,
        /// The router's global write sequence, when this mutation was
        /// fanned out by a router (advances the replay-dedup watermark).
        wseq: Option<u64>,
    },
    /// Apply a router journal replay batch (a rejoining replica catching
    /// up on missed mutations). Runs serially on the dispatcher like every
    /// other mutation, so replayed writes interleave deterministically
    /// with live ones.
    Replay {
        /// Request sequence number.
        seq: u64,
        /// Journaled mutations, oldest first.
        entries: Vec<crate::protocol::SequencedEntry>,
        /// Response channel.
        reply: Reply,
        /// The request's stage timer, if tracing is enabled.
        trace: Option<Box<TraceBuilder>>,
    },
}

impl Job {
    /// The job's stage timer, if any.
    fn trace_mut(&mut self) -> Option<&mut TraceBuilder> {
        match self {
            Job::Identify { trace, .. }
            | Job::Characterize { trace, .. }
            | Job::ClusterIngest { trace, .. }
            | Job::Replay { trace, .. } => trace.as_deref_mut(),
        }
    }

    /// Takes the job's stage timer, dropping the rest (used when a refused
    /// job's reply must still carry its trace).
    pub(crate) fn into_trace(self) -> Option<Box<TraceBuilder>> {
        match self {
            Job::Identify { trace, .. }
            | Job::Characterize { trace, .. }
            | Job::ClusterIngest { trace, .. }
            | Job::Replay { trace, .. } => trace,
        }
    }
}

/// Why a job was not admitted.
pub enum SubmitError {
    /// The queue is at capacity; retry after a back-off. The job is handed
    /// back so the caller can answer its reply channel.
    Full(Job),
    /// The queue is closed (server shutting down).
    Closed(Job),
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// The bounded, closable submission queue.
pub struct SubmissionQueue {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    capacity: usize,
    admitted: AtomicU64,
    rejected: AtomicU64,
}

impl SubmissionQueue {
    /// Creates a queue admitting at most `capacity` pending jobs.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        Self {
            state: Mutex::new(QueueState {
                jobs: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity,
            admitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        }
    }

    /// Admits `job` without blocking.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Full`] at capacity, [`SubmitError::Closed`] after
    /// [`SubmissionQueue::close`]; both return the job to the caller.
    pub fn try_submit(&self, job: Job) -> Result<(), SubmitError> {
        let mut state = self.lock_state();
        if state.closed {
            return Err(SubmitError::Closed(job));
        }
        if state.jobs.len() >= self.capacity {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            counter!("service.queue.rejected").incr();
            return Err(SubmitError::Full(job));
        }
        state.jobs.push_back(job);
        self.admitted.fetch_add(1, Ordering::Relaxed);
        counter!("service.queue.admitted").incr();
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocks until at least one job is available (or the queue is closed),
    /// then drains up to `max` jobs. Returns `None` only when the queue is
    /// closed *and* empty — every admitted job is handed out exactly once.
    pub fn pop_batch(&self, max: usize) -> Option<Vec<Job>> {
        let mut state = self.lock_state();
        while state.jobs.is_empty() {
            if state.closed {
                return None;
            }
            state = self
                .not_empty
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        let take = state.jobs.len().min(max.max(1));
        Some(state.jobs.drain(..take).collect())
    }

    /// Closes the queue: future submissions fail, pending jobs still drain.
    pub fn close(&self) {
        self.lock_state().closed = true;
        self.not_empty.notify_all();
    }

    /// Jobs admitted since construction.
    pub fn admitted(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed)
    }

    /// Jobs rejected with `Full` since construction.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Jobs currently pending.
    pub fn depth(&self) -> usize {
        self.lock_state().jobs.len()
    }

    /// Queue state is a plain deque + flag, so no panic can leave it
    /// logically inconsistent — a poisoned lock is taken over, not
    /// propagated into the request path.
    // pc-allow: C004 — poison-recovery helper; callers scope the guard to one statement
    fn lock_state(&self) -> std::sync::MutexGuard<'_, QueueState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Panic accounting for the dispatcher, shared with the server so `stats`
/// can report it.
#[derive(Debug, Default)]
pub struct PoolMetrics {
    panics: AtomicU64,
}

impl PoolMetrics {
    /// Request panics absorbed (injected or organic) since start.
    pub fn worker_panics(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }
}

/// The dispatcher thread over a store and a queue.
pub struct Pool {
    queue: Arc<SubmissionQueue>,
    metrics: Arc<PoolMetrics>,
    dispatcher: Option<JoinHandle<()>>,
}

impl Pool {
    /// Spawns the dispatcher, with `batch_size` as its maximum drain per
    /// wakeup. The `tracer` receives a flight-recorder dump on every
    /// absorbed request panic.
    pub fn spawn(
        store: Arc<ShardedStore>,
        queue: Arc<SubmissionQueue>,
        batch_size: usize,
        tracer: Arc<Tracer>,
    ) -> Self {
        let metrics = Arc::new(PoolMetrics::default());
        let dispatcher_queue = Arc::clone(&queue);
        let dispatcher_metrics = Arc::clone(&metrics);
        let dispatcher = thread::Builder::new()
            .name("pc-dispatcher".to_string())
            .spawn(move || {
                dispatch_loop(
                    &store,
                    &dispatcher_queue,
                    batch_size,
                    &dispatcher_metrics,
                    &tracer,
                )
            })
            // pc-allow: P002 — startup-only spawn, fails before any traffic is accepted
            .expect("spawn dispatcher");
        Self {
            queue,
            metrics,
            dispatcher: Some(dispatcher),
        }
    }

    /// The pool's panic accounting, shared with the caller.
    pub fn metrics(&self) -> Arc<PoolMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Closes the queue and blocks until every admitted job has been
    /// answered and the dispatcher has exited.
    pub fn drain_and_join(mut self) {
        self.queue.close();
        if let Some(d) = self.dispatcher.take() {
            let _ = d.join();
        }
    }
}

fn dispatch_loop(
    store: &ShardedStore,
    queue: &SubmissionQueue,
    batch_size: usize,
    metrics: &PoolMetrics,
    tracer: &Tracer,
) {
    while let Some(mut batch) = queue.pop_batch(batch_size) {
        counter!("service.dispatch.batches").incr();
        counter!("service.dispatch.jobs").add(batch.len() as u64);
        // Leaving the queue closes each job's queue-wait stage (admission →
        // pop), the moment it stops counting in `queue_depth`. Its score
        // stage runs from here to its answer, so it includes the jobs ahead
        // of it in this batch: the dispatcher's own serial wait.
        for job in &mut batch {
            if let Some(tb) = job.trace_mut() {
                tb.record_lap(Stage::QueueWait);
            }
        }
        for job in batch {
            let _span = pc_telemetry::time!("service.dispatch.route");
            // Every job runs under catch_unwind so a poisoned request
            // cannot take down the dispatcher, the one thread the whole pool
            // depends on.
            let (seq, reply, trace, response) = match job {
                Job::Identify {
                    seq,
                    errors,
                    reply,
                    trace,
                } => {
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        if pc_faults::fail_point("store.score") {
                            // pc-allow: P003 — deliberate fault-injection site inside catch_unwind
                            panic!("injected fault at store.score");
                        }
                        store.identify(&errors)
                    }));
                    let response = match outcome {
                        Ok(Ok(Ok((label, distance)))) => Response::Match { label, distance },
                        Ok(Ok(Err(closest))) => Response::NoMatch { closest },
                        Ok(Err(e)) => Response::Error {
                            message: e.to_string(),
                        },
                        Err(_) => panicked(metrics, tracer, "identify"),
                    };
                    (seq, reply, trace, response)
                }
                Job::Characterize {
                    seq,
                    label,
                    errors,
                    reply,
                    trace,
                    wseq,
                } => {
                    let outcome =
                        catch_unwind(AssertUnwindSafe(|| store.characterize(&label, &errors)));
                    // Advance the replay-dedup watermark whenever the
                    // mutation ran to completion (validation refusals
                    // would be refused again on replay); a panic leaves
                    // it untouched so replay retries the entry.
                    if let (Some(wseq), Ok(_)) = (wseq, &outcome) {
                        store.note_routed_write(wseq);
                    }
                    let response = match outcome {
                        Ok(Ok((weight, observations, created))) => Response::Characterized {
                            label,
                            weight,
                            observations,
                            created,
                        },
                        Ok(Err(e)) => Response::Error {
                            message: e.to_string(),
                        },
                        Err(_) => panicked(metrics, tracer, "characterize"),
                    };
                    (seq, reply, trace, response)
                }
                Job::ClusterIngest {
                    seq,
                    errors,
                    reply,
                    trace,
                    wseq,
                } => {
                    let outcome = catch_unwind(AssertUnwindSafe(|| store.cluster_ingest(&errors)));
                    if let (Some(wseq), Ok(_)) = (wseq, &outcome) {
                        store.note_routed_write(wseq);
                    }
                    let response = match outcome {
                        Ok(Ok((cluster, seeded, clusters))) => Response::Clustered {
                            cluster,
                            seeded,
                            clusters,
                        },
                        Ok(Err(e)) => Response::Error {
                            message: e.to_string(),
                        },
                        Err(_) => panicked(metrics, tracer, "cluster-ingest"),
                    };
                    (seq, reply, trace, response)
                }
                Job::Replay {
                    seq,
                    entries,
                    reply,
                    trace,
                } => {
                    let outcome = catch_unwind(AssertUnwindSafe(|| store.apply_replay(&entries)));
                    let response = match outcome {
                        Ok((applied, skipped)) => Response::Replayed { applied, skipped },
                        Err(_) => panicked(metrics, tracer, "replay"),
                    };
                    (seq, reply, trace, response)
                }
            };
            respond(seq, &reply, trace, response);
        }
    }
}

/// Counts an absorbed request panic, dumps the flight recorder, and builds
/// the request's `Error` answer.
fn panicked(metrics: &PoolMetrics, tracer: &Tracer, op: &str) -> Response {
    metrics.panics.fetch_add(1, Ordering::Relaxed);
    counter!("service.pool.panics").incr();
    tracer.dump("worker_panic");
    Response::Error {
        message: format!("{op} panicked; request dropped"),
    }
}

/// Sends `response` (traced, if the request asked) to the job's connection.
fn respond(seq: u64, reply: &Reply, mut trace: Option<Box<TraceBuilder>>, response: Response) {
    let response = apply_trace(&mut trace, response);
    let _ = reply.send(Outbound {
        seq,
        response,
        trace,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreConfig;

    fn es(bits: &[u64]) -> ErrorString {
        ErrorString::from_sorted(bits.to_vec(), 4096).unwrap()
    }

    fn chip_bits(chip: u64) -> Vec<u64> {
        (0..40).map(|i| chip * 40 + i).collect()
    }

    fn store_with_chips(n: u64) -> Arc<ShardedStore> {
        let store = ShardedStore::new(StoreConfig {
            threshold: 0.3,
            ..StoreConfig::default()
        });
        for chip in 0..n {
            store
                .characterize(&format!("chip-{chip:02}"), &es(&chip_bits(chip)))
                .unwrap();
        }
        Arc::new(store)
    }

    #[test]
    fn pool_answers_identify_and_mutations() {
        let store = store_with_chips(8);
        let queue = Arc::new(SubmissionQueue::new(64));
        let pool = Pool::spawn(
            Arc::clone(&store),
            Arc::clone(&queue),
            8,
            Arc::new(Tracer::disabled()),
        );
        let (tx, rx) = mpsc::channel::<Outbound>();

        queue
            .try_submit(Job::Identify {
                seq: 1,
                errors: Arc::new(es(&chip_bits(5))),
                reply: tx.clone(),
                trace: None,
            })
            .ok()
            .unwrap();
        queue
            .try_submit(Job::ClusterIngest {
                seq: 2,
                errors: es(&[9, 99, 999]),
                reply: tx.clone(),
                trace: None,
                wseq: None,
            })
            .ok()
            .unwrap();
        queue
            .try_submit(Job::Characterize {
                seq: 3,
                label: "fresh".to_string(),
                errors: es(&[4, 44]),
                reply: tx,
                trace: None,
                wseq: None,
            })
            .ok()
            .unwrap();

        let mut got = std::collections::BTreeMap::new();
        for _ in 0..3 {
            let out = rx.recv_timeout(std::time::Duration::from_secs(5)).unwrap();
            got.insert(out.seq, out.response);
        }
        assert_eq!(
            got[&1],
            Response::Match {
                label: "chip-05".to_string(),
                distance: 0.0
            }
        );
        assert_eq!(
            got[&2],
            Response::Clustered {
                cluster: 0,
                seeded: true,
                clusters: 1
            }
        );
        assert!(matches!(
            &got[&3],
            Response::Characterized { created: true, .. }
        ));
        pool.drain_and_join();
    }

    #[test]
    fn store_errors_answer_error_frames() {
        // An observation whose size disagrees with the stored fingerprint.
        let queue = Arc::new(SubmissionQueue::new(4));
        let (tx, rx) = mpsc::channel::<Outbound>();
        queue
            .try_submit(Job::Characterize {
                seq: 1,
                label: "chip-01".to_string(),
                errors: ErrorString::from_sorted(vec![1, 2], 64).unwrap(),
                reply: tx,
                trace: None,
                wseq: None,
            })
            .ok()
            .unwrap();
        let pool = Pool::spawn(store_with_chips(2), queue, 4, Arc::new(Tracer::disabled()));
        pool.drain_and_join();
        let out = rx.recv().unwrap();
        assert_eq!(
            out.response,
            Response::Error {
                message: "cannot refine \"chip-01\": size mismatch: 4096 bits vs 64 bits"
                    .to_string()
            }
        );
    }

    #[test]
    fn full_queue_bounces_jobs_back() {
        let queue = SubmissionQueue::new(1);
        let (tx, _rx) = mpsc::channel::<Outbound>();
        let job = |seq| Job::ClusterIngest {
            seq,
            errors: es(&[1]),
            reply: tx.clone(),
            trace: None,
            wseq: None,
        };
        queue.try_submit(job(1)).ok().unwrap();
        match queue.try_submit(job(2)) {
            Err(SubmitError::Full(Job::ClusterIngest { seq: 2, .. })) => {}
            _ => panic!("second submit should bounce with the job"),
        }
        assert_eq!(queue.admitted(), 1);
        assert_eq!(queue.rejected(), 1);
    }

    #[test]
    fn close_drains_admitted_jobs() {
        let store = store_with_chips(4);
        let queue = Arc::new(SubmissionQueue::new(64));
        let (tx, rx) = mpsc::channel::<Outbound>();
        for seq in 0..20 {
            queue
                .try_submit(Job::Identify {
                    seq,
                    errors: Arc::new(es(&chip_bits(seq % 4))),
                    reply: tx.clone(),
                    trace: None,
                })
                .ok()
                .unwrap();
        }
        drop(tx);
        // The pool starts with 20 jobs already queued; closing immediately
        // must still answer every one of them.
        let pool = Pool::spawn(store, Arc::clone(&queue), 4, Arc::new(Tracer::disabled()));
        pool.drain_and_join();
        let answered: Vec<_> = rx.try_iter().collect();
        assert_eq!(answered.len(), 20, "every admitted job must be answered");
        // After close, submissions are refused as Closed.
        let (tx2, _rx2) = mpsc::channel::<Outbound>();
        assert!(matches!(
            queue.try_submit(Job::ClusterIngest {
                seq: 99,
                errors: es(&[1]),
                reply: tx2,
                trace: None,
                wseq: None,
            }),
            Err(SubmitError::Closed(_))
        ));
    }
}
