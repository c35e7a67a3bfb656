//! Observability substrate for the Probable Cause reproduction.
//!
//! The paper's evaluation is entirely about *measured* behavior —
//! identification accuracy vs. sample count, clustering convergence,
//! distance distributions — and the ROADMAP's north star is a
//! production-scale pipeline. This crate is the measurement layer both rest
//! on:
//!
//! * [`Counter`] / [`counter!`] — monotonic atomic event counters.
//! * [`Histogram`] / [`HistogramSnapshot`] — lock-free log-linear value and
//!   latency histograms with mergeable snapshots and bucket-bounded
//!   quantiles.
//! * [`SpanHandle`] / [`time!`] — RAII wall-clock span timers recording into
//!   per-span histograms.
//! * [`sink::EventSink`] — a structured JSON-lines event stream.
//! * [`manifest::RunManifest`] — a reproducible, machine-readable record of
//!   one experiment run (seed, knobs, git revision, per-phase wall clock,
//!   counter snapshot).
//! * [`trace`] — pc-trace: per-request stage timers with deterministic
//!   trace ids, per-op latency histograms, and a flight recorder that dumps
//!   the last N request traces to the sink on panic, fault trip, or
//!   slow-request breach.
//!
//! # Zero cost when disabled
//!
//! All instrumentation routes through a process-global [`Collector`] behind
//! a `OnceLock`. Until [`install`] is called, every counter bump and span
//! timer is a single relaxed atomic load and a branch — nothing allocates,
//! nothing locks, no clock is read. The benches in `crates/bench` A/B this
//! overhead.
//!
//! # Example
//!
//! ```
//! pc_telemetry::install();
//! pc_telemetry::counter!("demo.events").add(3);
//! {
//!     let _span = pc_telemetry::time!("demo.phase");
//!     // ... timed work ...
//! }
//! let counters = pc_telemetry::install().counters_snapshot();
//! assert_eq!(counters.get("demo.events"), Some(&3));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod catalog;
pub mod counter;
pub mod histogram;
pub mod json;
pub mod manifest;
pub mod sink;
pub mod span;
pub mod trace;

pub use counter::{Counter, CounterHandle};
pub use histogram::{Histogram, HistogramSnapshot};
pub use json::{parse as parse_json, JsonObject, JsonParseError, JsonValue};
pub use manifest::RunManifest;
pub use span::{Span, SpanHandle};

use parking_lot::{Mutex, RwLock};
use sink::EventSink;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// The process-global metric registry and event sink.
///
/// One collector exists per process once [`install`] has been called;
/// handles ([`CounterHandle`], [`SpanHandle`]) resolve against it lazily and
/// cache the resolved metric, so steady-state recording takes no locks.
pub struct Collector {
    counters: RwLock<BTreeMap<&'static str, &'static Counter>>,
    span_hists: RwLock<BTreeMap<&'static str, &'static Histogram>>,
    sink: Mutex<Option<EventSink>>,
    epoch: Instant,
}

static GLOBAL: OnceLock<Collector> = OnceLock::new();

/// Installs (or returns) the process-global collector. Idempotent.
pub fn install() -> &'static Collector {
    GLOBAL.get_or_init(Collector::new)
}

/// The global collector, if [`install`] has been called.
#[inline]
pub fn global() -> Option<&'static Collector> {
    GLOBAL.get()
}

/// Whether telemetry is live. When `false`, all recording is a no-op.
#[inline]
pub fn enabled() -> bool {
    GLOBAL.get().is_some()
}

/// Installs the collector and attaches a JSON-lines event sink at `path`,
/// honoring the convention shared by the `pc` CLI (`--telemetry PATH`) and
/// the experiment harnesses (`PC_TELEMETRY=PATH`).
///
/// # Errors
///
/// Propagates filesystem errors from opening `path`.
pub fn install_with_sink(path: &Path) -> io::Result<&'static Collector> {
    let collector = install();
    collector.set_sink(EventSink::create(path)?);
    Ok(collector)
}

impl Collector {
    fn new() -> Self {
        Self {
            counters: RwLock::new(BTreeMap::new()),
            span_hists: RwLock::new(BTreeMap::new()),
            sink: Mutex::new(None),
            epoch: Instant::now(),
        }
    }

    /// Registers (or finds) the counter named `name`.
    pub fn counter(&self, name: &'static str) -> &'static Counter {
        if let Some(c) = self.counters.read().get(name) {
            return c;
        }
        let mut map = self.counters.write();
        map.entry(name)
            .or_insert_with(|| Box::leak(Box::new(Counter::new())))
    }

    /// Registers (or finds) the span-duration histogram named `name`.
    /// Durations are recorded in nanoseconds.
    pub fn span_histogram(&self, name: &'static str) -> &'static Histogram {
        if let Some(h) = self.span_hists.read().get(name) {
            return h;
        }
        let mut map = self.span_hists.write();
        map.entry(name)
            .or_insert_with(|| Box::leak(Box::new(Histogram::new())))
    }

    /// Attaches (replacing any previous) event sink.
    pub fn set_sink(&self, sink: EventSink) {
        *self.sink.lock() = Some(sink);
    }

    /// Emits a structured event to the sink, if one is attached. `fields`
    /// are spliced into the event object after `ev` (the event name) and
    /// `ns` (nanoseconds since collector install).
    pub fn emit(&self, event: &str, fields: JsonObject) {
        let mut guard = self.sink.lock();
        if let Some(sink) = guard.as_mut() {
            let mut obj = JsonObject::new();
            obj.set("ev", event);
            obj.set("ns", self.epoch.elapsed().as_nanos() as u64);
            obj.extend(fields);
            sink.write_event(&obj);
        }
    }

    /// Flushes the event sink, if attached.
    pub fn flush(&self) {
        if let Some(sink) = self.sink.lock().as_mut() {
            sink.flush();
        }
    }

    /// Point-in-time snapshot of every counter, keyed by name.
    pub fn counters_snapshot(&self) -> BTreeMap<String, u64> {
        self.counters
            .read()
            .iter()
            .map(|(name, c)| (name.to_string(), c.get()))
            .collect()
    }

    /// Point-in-time snapshot of every span-duration histogram (ns), keyed
    /// by span name.
    pub fn spans_snapshot(&self) -> BTreeMap<String, HistogramSnapshot> {
        self.span_hists
            .read()
            .iter()
            .map(|(name, h)| (name.to_string(), h.snapshot()))
            .collect()
    }
}

/// Bumps the call site's counter (a static handle is created per call site).
///
/// A single atomic load + branch when telemetry is not installed.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static __PC_COUNTER: $crate::CounterHandle = $crate::CounterHandle::new($name);
        &__PC_COUNTER
    }};
}

/// Starts an RAII span timer named `$name`; the returned guard records the
/// elapsed wall-clock nanoseconds into the span's histogram when dropped.
///
/// A single atomic load + branch when telemetry is not installed (no clock
/// read).
#[macro_export]
macro_rules! time {
    ($name:expr) => {{
        static __PC_SPAN: $crate::SpanHandle = $crate::SpanHandle::new($name);
        __PC_SPAN.enter()
    }};
}
