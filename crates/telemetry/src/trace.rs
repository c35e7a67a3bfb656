//! pc-trace: causal per-request tracing for the serving tier.
//!
//! The serving tier's lifetime counters ([`crate::Counter`]) say *how many*
//! requests ran; this module says *where each one spent its time*. Three
//! pieces compose:
//!
//! * [`TraceBuilder`] — a per-request stage timer. The server creates one per
//!   request (when tracing is enabled), laps it at each pipeline boundary
//!   (decode → queue wait → score → encode → write), and finishes it into a
//!   plain-data [`RequestTrace`].
//! * [`FlightRecorder`] — a fixed-size ring of the last N request traces.
//!   Slot claim is a single wait-free `fetch_add`; the ring is dumped to the
//!   event sink on worker panic, fault-injection trip, or slow-request
//!   threshold breach, so the moments before an incident are never lost.
//! * [`Tracer`] — the per-server aggregation point: per-op latency
//!   histograms (exposed over the wire by the `metrics` frame), the slow
//!   threshold, and the flight recorder.
//!
//! Trace IDs are **deterministic**: [`trace_id`] mixes the connection id and
//! request sequence number, so the same workload replayed in the same order
//! yields the same ids — logs from two runs of a seeded soak line up.
//!
//! Nothing here touches the reproducibility contract: stage timings flow
//! into histograms and events only, never into counters, so the
//! deterministic portion of a [`crate::RunManifest`] is byte-identical with
//! tracing on or off (pinned by `tests/trace.rs`).

use crate::histogram::{Histogram, HistogramSnapshot};
use crate::json::JsonObject;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One pipeline stage of a request's life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Wire frame → typed request.
    Decode,
    /// Admission to the submission queue → the dispatcher pops it off.
    QueueWait,
    /// Pop → response built: scoring / mutation work on the dispatcher,
    /// after the jobs ahead of it in the same popped batch.
    Score,
    /// Typed response → wire frame (includes writer-queue wait).
    Encode,
    /// Wire frame → socket.
    Write,
}

impl Stage {
    /// Number of stages.
    pub const COUNT: usize = 5;

    /// All stages, in pipeline order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Decode,
        Stage::QueueWait,
        Stage::Score,
        Stage::Encode,
        Stage::Write,
    ];

    /// Stable snake_case name (used in events and wire frames).
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Decode => "decode",
            Stage::QueueWait => "queue_wait",
            Stage::Score => "score",
            Stage::Encode => "encode",
            Stage::Write => "write",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::Decode => 0,
            Stage::QueueWait => 1,
            Stage::Score => 2,
            Stage::Encode => 3,
            Stage::Write => 4,
        }
    }
}

/// SplitMix64 finalizer — the same bijective mixer `pc_stats` uses.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Deterministic trace id for request `seq` on connection `conn`.
///
/// Same (conn, seq) → same id, always; distinct pairs collide only as often
/// as any 64-bit hash.
pub fn trace_id(conn: u64, seq: u64) -> u64 {
    // "pc-trace" in ASCII keeps ids disjoint from other mix64 users.
    mix64(conn.rotate_left(32) ^ seq ^ 0x7063_2d74_7261_6365)
}

/// A monotonic wall-clock handle for callers outside this crate.
///
/// The service crate is forbidden (lint D002) from reading wall clocks
/// directly; it measures through this type instead, keeping every clock read
/// in the telemetry layer.
#[derive(Debug, Clone, Copy)]
pub struct StageClock {
    start: Instant,
}

impl StageClock {
    /// Starts the clock.
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
        }
    }

    /// Nanoseconds since [`start`](Self::start).
    pub fn elapsed_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
}

impl Default for StageClock {
    fn default() -> Self {
        Self::start()
    }
}

/// Per-request stage timer, created by [`Tracer::begin`] and threaded with
/// the request through queue → pool → writer.
///
/// `record_lap(stage)` attributes the time since the previous lap to
/// `stage`; [`finish`](Self::finish) closes the trace. Total latency is
/// measured from request start (decode begin), so the per-stage sum plus the
/// unattributed remainder equals the total exactly.
#[derive(Debug)]
pub struct TraceBuilder {
    trace_id: u64,
    op: &'static str,
    seq: u64,
    wire: bool,
    stages_ns: [u64; Stage::COUNT],
    decode_ns: u64,
    origin: Instant,
    lap: Instant,
}

impl TraceBuilder {
    fn new(trace_id: u64, op: &'static str, seq: u64, decode_ns: u64, wire: bool) -> Self {
        let now = Instant::now();
        let mut stages_ns = [0u64; Stage::COUNT];
        stages_ns[Stage::Decode.index()] = decode_ns;
        Self {
            trace_id,
            op,
            seq,
            wire,
            stages_ns,
            decode_ns,
            origin: now,
            lap: now,
        }
    }

    /// The request's deterministic trace id.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// The request's protocol op name.
    pub fn op(&self) -> &'static str {
        self.op
    }

    /// Whether the client asked for the trace on the wire (the request's
    /// `trace` flag); the flight recorder records the trace either way.
    pub fn wire(&self) -> bool {
        self.wire
    }

    /// Attributes the time since the previous lap to `stage` and restarts
    /// the lap clock.
    pub fn record_lap(&mut self, stage: Stage) {
        let now = Instant::now();
        let ns = now.duration_since(self.lap).as_nanos() as u64;
        self.stages_ns[stage.index()] += ns;
        self.lap = now;
    }

    /// Nanoseconds attributed to `stage` so far.
    pub fn stage_ns(&self, stage: Stage) -> u64 {
        self.stages_ns[stage.index()]
    }

    /// Total nanoseconds since the request started decoding.
    pub fn total_so_far_ns(&self) -> u64 {
        self.decode_ns + self.origin.elapsed().as_nanos() as u64
    }

    /// Closes the trace.
    pub fn finish(self) -> RequestTrace {
        let total_ns = self.total_so_far_ns();
        RequestTrace {
            trace_id: self.trace_id,
            op: self.op,
            seq: self.seq,
            stages_ns: self.stages_ns,
            total_ns,
            slow: false,
        }
    }
}

/// A completed request trace: plain data, cheap to clone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestTrace {
    /// Deterministic trace id ([`trace_id`]).
    pub trace_id: u64,
    /// Protocol op name.
    pub op: &'static str,
    /// Request sequence number on its connection.
    pub seq: u64,
    /// Nanoseconds per stage, indexed in [`Stage::ALL`] order.
    pub stages_ns: [u64; Stage::COUNT],
    /// Wall-clock nanoseconds from decode begin to write completion.
    pub total_ns: u64,
    /// Whether the trace breached the slow-request threshold.
    pub slow: bool,
}

impl RequestTrace {
    /// Nanoseconds attributed to `stage`.
    pub fn stage_ns(&self, stage: Stage) -> u64 {
        self.stages_ns[stage.index()]
    }

    /// Event-sink fields for this trace (one flat object, stage names as
    /// `<stage>_ns` keys).
    pub fn to_event_fields(&self) -> JsonObject {
        let mut obj = JsonObject::new();
        obj.set("trace_id", format!("{:016x}", self.trace_id));
        obj.set("op", self.op);
        obj.set("seq", self.seq);
        for stage in Stage::ALL {
            obj.set(
                match stage {
                    Stage::Decode => "decode_ns",
                    Stage::QueueWait => "queue_wait_ns",
                    Stage::Score => "score_ns",
                    Stage::Encode => "encode_ns",
                    Stage::Write => "write_ns",
                },
                self.stage_ns(stage),
            );
        }
        obj.set("total_ns", self.total_ns);
        obj.set("slow", self.slow);
        obj
    }
}

/// Fixed-size ring buffer of the last N request traces.
///
/// The write cursor is claimed with a single wait-free `fetch_add`; each
/// slot is guarded by its own tiny mutex, so writers never contend unless
/// the ring has fully wrapped within one slot's write — readers
/// ([`recent`](Self::recent)) see a best-effort, near-ordered view.
#[derive(Debug)]
pub struct FlightRecorder {
    slots: Vec<Mutex<Option<RequestTrace>>>,
    cursor: AtomicU64,
}

impl FlightRecorder {
    /// A recorder holding the last `len` traces (`len` is clamped to ≥ 1).
    pub fn new(len: usize) -> Self {
        Self {
            slots: (0..len.max(1)).map(|_| Mutex::new(None)).collect(),
            cursor: AtomicU64::new(0),
        }
    }

    /// Capacity of the ring.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no trace has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.cursor.load(Ordering::Relaxed) == 0
    }

    /// Records one trace, evicting the oldest once the ring is full.
    pub fn push(&self, trace: RequestTrace) {
        let idx = self.cursor.fetch_add(1, Ordering::Relaxed) as usize % self.slots.len();
        *self.slots[idx].lock() = Some(trace);
    }

    /// The recorded traces, oldest first (best-effort under concurrent
    /// writers).
    pub fn recent(&self) -> Vec<RequestTrace> {
        let written = self.cursor.load(Ordering::Relaxed) as usize;
        let len = self.slots.len();
        let take = written.min(len);
        let start = if written > len { written % len } else { 0 };
        (0..take)
            .filter_map(|i| self.slots[(start + i) % len].lock().clone())
            .collect()
    }
}

/// The serving tier's tracing aggregation point.
///
/// Owned by the server (not the global collector) so `metrics` frames work
/// even when no telemetry sink is installed.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    slow_ns: Option<u64>,
    ops: BTreeMap<&'static str, Histogram>,
    recorder: FlightRecorder,
    slow_count: AtomicU64,
    dump_count: AtomicU64,
}

impl Tracer {
    /// A tracer for the given protocol ops, with a flight recorder of
    /// `recorder_len` slots and an optional slow-request threshold in
    /// milliseconds.
    pub fn new(
        ops: &[&'static str],
        recorder_len: usize,
        slow_ms: Option<u64>,
        enabled: bool,
    ) -> Self {
        Self {
            enabled,
            slow_ns: slow_ms.map(|ms| ms.saturating_mul(1_000_000)),
            ops: ops.iter().map(|&op| (op, Histogram::new())).collect(),
            recorder: FlightRecorder::new(recorder_len),
            slow_count: AtomicU64::new(0),
            dump_count: AtomicU64::new(0),
        }
    }

    /// A tracer that never traces — [`begin`](Self::begin) always returns
    /// `None` and nothing records. Used by the overhead A/B bench.
    pub fn disabled() -> Self {
        Self::new(&[], 1, None, false)
    }

    /// Whether tracing is live.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a trace for request `seq` on connection `conn`, seeding the
    /// decode stage with `decode_ns`. Returns `None` when tracing is
    /// disabled — the caller must not have read any clock in that case.
    #[inline]
    pub fn begin(
        &self,
        conn: u64,
        seq: u64,
        op: &'static str,
        decode_ns: u64,
        wire: bool,
    ) -> Option<Box<TraceBuilder>> {
        if !self.enabled {
            return None;
        }
        Some(Box::new(TraceBuilder::new(
            trace_id(conn, seq),
            op,
            seq,
            decode_ns,
            wire,
        )))
    }

    /// Like [`begin`](Self::begin), but adopting a router-assigned trace id
    /// (the `"origin"` field on a forwarded frame) so a replica's flight
    /// recorder entries correlate with the routing tier's.
    #[inline]
    pub fn begin_forwarded(
        &self,
        origin: u64,
        seq: u64,
        op: &'static str,
        decode_ns: u64,
        wire: bool,
    ) -> Option<Box<TraceBuilder>> {
        if !self.enabled {
            return None;
        }
        Some(Box::new(TraceBuilder::new(
            origin, op, seq, decode_ns, wire,
        )))
    }

    /// Ingests a finished trace: records per-op latency, appends to the
    /// flight recorder, and — on a slow-threshold breach — emits a
    /// structured `slow_query` event and dumps the recorder.
    pub fn observe(&self, mut trace: RequestTrace) {
        if let Some(hist) = self.ops.get(trace.op) {
            hist.record(trace.total_ns);
        }
        trace.slow = self.slow_ns.is_some_and(|ns| trace.total_ns >= ns);
        let slow = trace.slow;
        let fields = slow.then(|| trace.to_event_fields());
        self.recorder.push(trace);
        if slow {
            self.slow_count.fetch_add(1, Ordering::Relaxed);
            if let (Some(collector), Some(fields)) = (crate::global(), fields) {
                collector.emit("slow_query", fields);
            }
            self.dump("slow_request");
        }
    }

    /// Dumps the flight recorder to the event sink (newest-last), tagged
    /// with `reason`. Called on worker panic, fault-injection trip, and
    /// slow-request breach; callable any time.
    pub fn dump(&self, reason: &str) {
        self.dump_count.fetch_add(1, Ordering::Relaxed);
        if let Some(collector) = crate::global() {
            let traces = self.recorder.recent();
            let mut head = JsonObject::new();
            head.set("reason", reason);
            head.set("traces", traces.len() as u64);
            collector.emit("flight_dump", head);
            for trace in &traces {
                collector.emit("flight_trace", trace.to_event_fields());
            }
            collector.flush();
        }
    }

    /// Per-op latency snapshots, keyed by op name, in sorted op order.
    pub fn snapshot(&self) -> Vec<(&'static str, HistogramSnapshot)> {
        self.ops
            .iter()
            .map(|(&op, hist)| (op, hist.snapshot()))
            .collect()
    }

    /// Number of requests that breached the slow threshold.
    pub fn slow_requests(&self) -> u64 {
        self.slow_count.load(Ordering::Relaxed)
    }

    /// Number of flight-recorder dumps so far.
    pub fn dumps(&self) -> u64 {
        self.dump_count.load(Ordering::Relaxed)
    }

    /// The recorded traces, oldest first.
    pub fn recent_traces(&self) -> Vec<RequestTrace> {
        self.recorder.recent()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_deterministic_and_mixed() {
        assert_eq!(trace_id(3, 7), trace_id(3, 7));
        assert_ne!(trace_id(3, 7), trace_id(3, 8));
        assert_ne!(trace_id(3, 7), trace_id(4, 7));
        // conn/seq must not be symmetric.
        assert_ne!(trace_id(3, 7), trace_id(7, 3));
    }

    #[test]
    fn builder_accumulates_stages_and_total_covers_them() {
        let tracer = Tracer::new(&["ping"], 4, None, true);
        let mut tb = tracer.begin(1, 1, "ping", 250, true).unwrap();
        assert!(tb.wire());
        tb.record_lap(Stage::QueueWait);
        tb.record_lap(Stage::Score);
        let trace = tb.finish();
        assert_eq!(trace.stage_ns(Stage::Decode), 250);
        let attributed: u64 = Stage::ALL.iter().map(|&s| trace.stage_ns(s)).sum();
        assert!(
            trace.total_ns >= attributed,
            "total {} < stage sum {attributed}",
            trace.total_ns
        );
    }

    #[test]
    fn disabled_tracer_begins_nothing() {
        let tracer = Tracer::disabled();
        assert!(!tracer.enabled());
        assert!(tracer.begin(1, 1, "ping", 0, true).is_none());
    }

    #[test]
    fn flight_recorder_keeps_the_last_n_in_order() {
        let rec = FlightRecorder::new(3);
        assert!(rec.is_empty());
        for seq in 0..5u64 {
            rec.push(RequestTrace {
                trace_id: trace_id(0, seq),
                op: "ping",
                seq,
                stages_ns: [0; Stage::COUNT],
                total_ns: seq,
                slow: false,
            });
        }
        let seqs: Vec<u64> = rec.recent().iter().map(|t| t.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
    }

    #[test]
    fn observe_marks_slow_and_counts_breaches() {
        let tracer = Tracer::new(&["identify"], 8, Some(0), true);
        let tb = tracer.begin(1, 1, "identify", 10, false).unwrap();
        tracer.observe(tb.finish());
        assert_eq!(tracer.slow_requests(), 1);
        assert_eq!(tracer.dumps(), 1);
        let recent = tracer.recent_traces();
        assert_eq!(recent.len(), 1);
        assert!(recent[0].slow);
        let (op, snap) = &tracer.snapshot()[0];
        assert_eq!(*op, "identify");
        assert_eq!(snap.count(), 1);
    }

    #[test]
    fn no_threshold_means_nothing_is_slow() {
        let tracer = Tracer::new(&["ping"], 8, None, true);
        let tb = tracer.begin(1, 1, "ping", 0, false).unwrap();
        tracer.observe(tb.finish());
        assert_eq!(tracer.slow_requests(), 0);
        assert_eq!(tracer.dumps(), 0);
        assert!(!tracer.recent_traces()[0].slow);
    }

    #[test]
    fn event_fields_cover_every_stage() {
        let trace = RequestTrace {
            trace_id: 0xdead_beef,
            op: "identify",
            seq: 9,
            stages_ns: [1, 2, 3, 4, 5],
            total_ns: 20,
            slow: true,
        };
        let obj = trace.to_event_fields();
        for key in [
            "decode_ns",
            "queue_wait_ns",
            "score_ns",
            "encode_ns",
            "write_ns",
        ] {
            assert!(obj.get(key).is_some(), "missing {key}");
        }
        assert_eq!(
            obj.get("trace_id")
                .and_then(|v| v.as_str().map(String::from)),
            Some(format!("{:016x}", 0xdead_beefu64))
        );
    }
}
