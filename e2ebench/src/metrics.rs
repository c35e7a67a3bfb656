//! The metric catalogue: what an untraced run reports (end to end) and what
//! a traced run reports (per layer), with units. `BENCHMARK.json` lists the
//! same names; a test keeps them in step.
//!
//! Every run reports every metric of its catalogue. A layer a workload's
//! requests never cross reports 0: no time or work was spent there.

use crate::workload::Workload;

/// End-to-end metrics, reported with `--trace 0`: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("setup_s", "s"),
    ("server_rss_mb", "MB"),
];

/// Per-layer metrics, reported with `--trace 1`: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("client.identify_p50_ms", "ms"),
    ("client.identify_p99_ms", "ms"),
    ("client.write_p50_ms", "ms"),
    ("client.write_p99_ms", "ms"),
    ("client.failed_share", "share"),
    ("trace.overhead_us", "us"),
    ("trace.layer_sum_share", "share"),
    ("protocol.request_bytes", "bytes"),
    ("protocol.encode_request_us", "us"),
    ("protocol.decode_request_us", "us"),
    ("protocol.encode_response_us", "us"),
    ("protocol.decode_response_us", "us"),
    ("codec.write_frame_us", "us"),
    ("codec.read_frame_us", "us"),
    ("server.decode_us", "us"),
    ("server.encode_us", "us"),
    ("server.write_us", "us"),
    ("server.total_us", "us"),
    ("pool.queue_wait_p50_us", "us"),
    ("pool.queue_wait_p99_us", "us"),
    ("pool.queue_depth", "count"),
    ("pool.score_us", "us"),
    ("pool.scatter_gather_us", "us"),
    ("pool.busy_share", "share"),
    ("store.plan_us", "us"),
    ("store.candidates_per_identify", "count"),
    ("store.score_shard_us", "us"),
    ("store.merge_us", "us"),
    ("store.cluster_ingest_us", "us"),
    ("store.clusters_compared_per_ingest", "count"),
    ("store.characterize_us", "us"),
    ("index.candidates_us", "us"),
    ("index.insert_us", "us"),
    ("index.recall", "share"),
    ("index.precision", "share"),
    ("kernels.distance_packed_ns", "ns"),
    ("kernels.score_subset_us", "us"),
    ("kernels.bytes_per_ingest", "bytes"),
    ("kernels.scan_gbps", "GB/s"),
    ("router.forward_us", "us"),
    ("router.fanout_us", "us"),
    ("router.checkpoints", "count"),
    ("router.checkpoint_us", "us"),
    ("router.failovers", "count"),
    ("ring.journal_max", "count"),
    ("persistence.load_db_s", "s"),
    ("persistence.load_index_s", "s"),
    ("store.from_db_with_index_s", "s"),
    ("store.rebuild_index_s", "s"),
    ("persistence.db_mb", "MB"),
];

const WIRE_AND_SERVER: &[&str] = &[
    "protocol.request_bytes",
    "protocol.encode_request_us",
    "protocol.decode_request_us",
    "protocol.encode_response_us",
    "protocol.decode_response_us",
    "codec.write_frame_us",
    "codec.read_frame_us",
    "server.decode_us",
    "server.encode_us",
    "server.write_us",
    "server.total_us",
    "pool.queue_wait_p50_us",
    "pool.queue_wait_p99_us",
    "pool.score_us",
    "pool.busy_share",
    "trace.layer_sum_share",
    "persistence.load_db_s",
    "persistence.load_index_s",
    "store.from_db_with_index_s",
    "store.rebuild_index_s",
    "persistence.db_mb",
];

/// The per-layer metrics a workload's traced run must populate (non-zero):
/// the layers its requests cross. The rest of [`PER_LAYER`] may read 0.
pub fn named_layers(workload: Workload) -> Vec<&'static str> {
    let own: &[&str] = match workload {
        Workload::Identify100k => &[
            "client.identify_p50_ms",
            "client.identify_p99_ms",
            "pool.queue_depth",
            "pool.scatter_gather_us",
            "store.plan_us",
            "store.candidates_per_identify",
            "store.score_shard_us",
            "store.merge_us",
            "index.candidates_us",
            "index.recall",
            "index.precision",
            "kernels.score_subset_us",
        ],
        Workload::Ingest10k => &[
            "client.write_p50_ms",
            "client.write_p99_ms",
            "store.cluster_ingest_us",
            "store.clusters_compared_per_ingest",
            "store.characterize_us",
            "index.insert_us",
            "kernels.distance_packed_ns",
            "kernels.bytes_per_ingest",
            "kernels.scan_gbps",
        ],
        Workload::RoutedMixed10k => &[
            "client.identify_p50_ms",
            "client.identify_p99_ms",
            "client.write_p50_ms",
            "client.write_p99_ms",
            "store.plan_us",
            "store.candidates_per_identify",
            "store.characterize_us",
            "index.candidates_us",
            "index.insert_us",
            "index.recall",
            "router.forward_us",
            "router.fanout_us",
            "router.checkpoint_us",
            "ring.journal_max",
        ],
    };
    WIRE_AND_SERVER.iter().chain(own).copied().collect()
}
