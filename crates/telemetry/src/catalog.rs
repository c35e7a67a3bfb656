//! The metric catalog: every counter and span name the workspace is
//! allowed to emit, in sorted order.
//!
//! `pc analyze` cross-checks each list in both directions (W002/W003):
//! a `counter!("…")` / `time!("…")` site whose name is missing here fails
//! analysis, and a name declared here that no site references fails too —
//! the catalog can neither rot nor drift. Keep the lists sorted; the tests
//! below pin that.

/// Every counter name referenced by a `counter!` site outside test code.
pub const COUNTERS: &[&str] = &[
    "approx.calibration.failures",
    "approx.calibration.probes",
    "approx.calibrations",
    "approx.trials",
    "core.characterize.observations",
    "core.cluster.refined",
    "core.cluster.seeded",
    "core.db.identify.comparisons",
    "core.db.identify.hits",
    "core.db.identify.misses",
    "core.distance.hamming",
    "core.distance.jaccard",
    "core.distance.pc",
    "core.index.candidates_returned",
    "core.index.inserts",
    "core.index.probes",
    "core.stitch.alignments_accepted",
    "core.stitch.candidates",
    "core.stitch.clusters_seeded",
    "core.stitch.merges",
    "core.stitch.observations",
    "core.stitch.pages_observed",
    "dram.cells_scanned",
    "dram.error_bits",
    "dram.plan_readbacks",
    "dram.readbacks",
    "os.allocations",
    "os.pages_allocated",
    "os.trace.records",
    "service.codec.bytes_in",
    "service.codec.bytes_out",
    "service.codec.frames_in",
    "service.codec.frames_out",
    "service.codec.idle_timeouts",
    "service.codec.rejected_oversize",
    "service.codec.stalled_frames",
    "service.conn.accepted",
    "service.conn.closed",
    "service.conn.idle_closed",
    "service.decode.bad_requests",
    "service.decode.framing_errors",
    "service.dispatch.batches",
    "service.dispatch.jobs",
    "service.pool.panics",
    "service.queue.admitted",
    "service.queue.rejected",
    "service.recovery.db_from_backup",
    "service.recovery.index_mismatch",
    "service.recovery.index_unreadable",
    "service.requests.characterize",
    "service.requests.cluster_ingest",
    "service.requests.identify",
    "service.requests.metrics",
    "service.requests.ping",
    "service.requests.replay",
    "service.requests.ring_status",
    "service.requests.save",
    "service.requests.shutdown",
    "service.requests.stats",
    "service.requests.trace_dump",
    "service.responses",
    "service.ring.auto_checkpoints",
    "service.ring.failovers",
    "service.ring.journal_appended",
    "service.ring.journal_retracted",
    "service.ring.node_down",
    "service.ring.node_up",
    "service.ring.probe_failures",
    "service.ring.probes",
    "service.ring.replayed",
    "service.ring.sheds",
    "service.save.failed",
    "service.shutdown.drained",
    "service.shutdown.triggered",
    "service.store.candidates",
    "service.store.characterize.created",
    "service.store.characterize.refined",
    "service.store.cluster.refined",
    "service.store.cluster.seeded",
    "service.store.distance_evals",
    "service.store.index_rebuilt",
    "service.store.replay_skipped",
];

/// Every span name referenced by a `time!` site outside test code.
pub const SPANS: &[&str] = &[
    "approx.calibrate",
    "core.characterize",
    "core.cluster",
    "core.db.identify",
    "core.db.identify_batch",
    "core.index.candidates",
    "core.index.insert",
    "core.stitch.align",
    "core.stitch.observe",
    "dram.errors_at",
    "dram.errors_with_plan",
    "service.decode",
    "service.dispatch.route",
    "service.respond",
    "service.store.cluster_ingest",
    "service.store.rebuild_index",
    "service.store.score",
];

/// Whether `name` is a catalogued counter.
pub fn is_declared(name: &str) -> bool {
    COUNTERS.binary_search(&name).is_ok()
}

/// Whether `name` is a catalogued span.
pub fn is_declared_span(name: &str) -> bool {
    SPANS.binary_search(&name).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_sorted_unique(list: &[&str], what: &str) {
        let mut sorted = list.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(list, sorted.as_slice(), "{what} must be sorted, no dupes");
    }

    #[test]
    fn catalog_is_sorted_and_unique() {
        assert_sorted_unique(COUNTERS, "COUNTERS");
        assert_sorted_unique(SPANS, "SPANS");
    }

    #[test]
    fn lookup_uses_the_sort_order() {
        assert!(is_declared("core.distance.pc"));
        assert!(!is_declared("core.distance.bogus"));
        assert!(is_declared_span("service.decode"));
        assert!(!is_declared_span("service.bogus"));
    }
}
