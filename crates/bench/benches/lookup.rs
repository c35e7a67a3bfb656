//! Identification-lookup benchmarks: Algorithm 2's linear scan vs the
//! LSH-routed lookup (`LshIndex::candidates`, then `closest_among` under the
//! threshold, as the `pc-service` store routes) at 100 / 1k / 10k stored
//! chips — the serving-path speedup `pc-service` is built on. Index
//! construction is benchmarked separately so the lookup numbers measure only
//! the query path.
//!
//! The `kernels` group compares batch scoring representations at the same
//! scales: per-pair scalar merges over the sparse `Vec<u64>` strings versus
//! the packed popcount kernels of `pc-kernels`, single-threaded and across
//! scoped threads. The same comparison also runs outside Criterion
//! and lands in `BENCH_kernels.json` (see [`emit_kernels_json`]), the record
//! CI gates on:
//!
//! - `parallel_speedup_ok` — the 10k-chip scan on 4 threads is at least
//!   2.5x the single-threaded packed scan (enforced only on >= 4 cores; the
//!   `parallel_gate` field says whether it was enforced or waived);
//! - `simd_matches_scalar` — packed scoring (sparse, dense, and mixed
//!   containers; every built-in metric; 1/2/4/auto threads) is bit-for-bit
//!   equal to per-pair scalar scoring;
//! - `tracing_overhead_ok` — disabled request tracing costs at most 1% on a
//!   10k-chip identify;
//! - `cluster_scan_matches_pairwise` — Algorithm 4's first-match scan
//!   (`first_within`) finds the same cluster after the same number of
//!   comparisons as a `distance_packed` loop, for every built-in metric.
//!
//! It also times the identify plan stage against a 10k-chip
//! `build_index(16, 4, 0x5eed)`: `index_candidates_ns` is the median
//! `LshIndex::candidates` call for noisy 328-bit outputs of stored chips,
//! and `index_build_ns` the index build per entry. And it times the
//! cluster-ingest scan per cluster compared, on a 1 024-cluster book of
//! 312-bit fingerprints probed with 328-bit outputs (the `ingest-10k`
//! shape): `cluster_scan_pairwise_ns` for the `distance_packed` loop,
//! `cluster_scan_ns` for `first_within`.
//!
//! The record also carries a roofline: achieved container-scan GB/s against
//! a measured `memcpy` bandwidth baseline (`memcpy_gbps`,
//! `roofline_fraction_10k`). `PC_BENCH_QUICK=1` shortens everything for
//! smoke runs; `PC_BENCH_REPS` / `PC_BENCH_OUT` override the repetition
//! count and output path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pc_bench::{perturbed, synthetic_errors};
use pc_kernels::{distance_packed, first_within, MetricKind, PackedErrors, Parallelism};
use pc_telemetry::trace::{Stage, StageClock, Tracer};
use probable_cause::{DistanceMetric, ErrorString, Fingerprint, FingerprintDb, PcDistance};
use std::hint::black_box;
use std::time::Instant;

const SIZE: u64 = 32_768;
const WEIGHT: usize = 328; // ~1% of a page, the paper's fingerprint density

fn populated_db(chips: u64) -> FingerprintDb<String, PcDistance> {
    let mut db = FingerprintDb::new(PcDistance::new(), 0.3);
    for c in 0..chips {
        db.insert(
            format!("chip-{c:05}"),
            Fingerprint::from_observation(synthetic_errors(c + 1, WEIGHT, SIZE)),
        );
    }
    db
}

fn bench_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("lookup");
    for chips in [100u64, 1_000, 10_000] {
        let db = populated_db(chips);
        let index = db.build_index(16, 4, 0x5eed);
        // A noisy output of a chip in the middle of the database.
        let probe = perturbed(&synthetic_errors(chips / 2 + 1, WEIGHT, SIZE), 6, 6, 7);

        group.bench_with_input(BenchmarkId::new("linear", chips), &chips, |b, _| {
            b.iter(|| black_box(db.identify_with_distance(black_box(&probe))))
        });
        let routed = |probe: &ErrorString| {
            let ids: Vec<usize> = index
                .candidates(probe)
                .into_iter()
                .map(|id| id as usize)
                .collect();
            db.closest_among(&ids, probe)
                .filter(|&(_, d)| d < db.threshold())
        };
        group.bench_with_input(BenchmarkId::new("lsh_indexed", chips), &chips, |b, _| {
            b.iter(|| black_box(routed(black_box(&probe))))
        });
        // Both paths agree before we trust either number.
        assert_eq!(db.identify_with_distance(&probe), routed(&probe));
    }
    group.finish();
}

fn bench_index_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("lookup_index_build");
    for chips in [100u64, 1_000] {
        let db = populated_db(chips);
        group.bench_with_input(BenchmarkId::new("build", chips), &chips, |b, _| {
            b.iter(|| black_box(db.build_index(16, 4, 0x5eed)))
        });
    }
    group.finish();
}

/// One batch workload at a given fleet size: the stored strings (sparse and
/// packed) plus the probe to score against all of them.
struct KernelWorkload {
    entries: Vec<ErrorString>,
    packed: Vec<PackedErrors>,
    probe: ErrorString,
    probe_packed: PackedErrors,
}

impl KernelWorkload {
    fn new(chips: u64) -> Self {
        let entries: Vec<ErrorString> = (0..chips)
            .map(|c| synthetic_errors(c + 1, WEIGHT, SIZE))
            .collect();
        let packed: Vec<PackedErrors> = entries.iter().map(ErrorString::to_packed).collect();
        let probe = perturbed(&synthetic_errors(chips / 2 + 1, WEIGHT, SIZE), 6, 6, 7);
        let probe_packed = probe.to_packed();
        Self {
            entries,
            packed,
            probe,
            probe_packed,
        }
    }

    /// The scalar-sparse baseline: one two-pointer merge per stored string.
    fn scalar(&self, metric: &PcDistance) -> Vec<f64> {
        self.entries
            .iter()
            .map(|e| metric.distance(e, &self.probe))
            .collect()
    }
}

fn bench_kernels(c: &mut Criterion) {
    let metric = PcDistance::new();
    let kind = metric.kind().expect("PcDistance has a packed form");
    let mut group = c.benchmark_group("kernels");
    for chips in [100u64, 1_000, 10_000] {
        let w = KernelWorkload::new(chips);
        // All three paths must agree bit-for-bit before timing any of them.
        let reference = w.scalar(&metric);
        for par in [Parallelism::single(), Parallelism::auto()] {
            assert_eq!(
                pc_kernels::score_batch(&w.packed, &w.probe_packed, kind, par),
                reference,
                "packed scoring diverged from scalar at {chips} chips"
            );
        }

        group.bench_with_input(BenchmarkId::new("scalar_sparse", chips), &chips, |b, _| {
            b.iter(|| black_box(w.scalar(&metric)))
        });
        group.bench_with_input(BenchmarkId::new("packed", chips), &chips, |b, _| {
            b.iter(|| {
                black_box(pc_kernels::score_batch(
                    &w.packed,
                    &w.probe_packed,
                    kind,
                    Parallelism::single(),
                ))
            })
        });
        group.bench_with_input(
            BenchmarkId::new("packed_parallel", chips),
            &chips,
            |b, _| {
                b.iter(|| {
                    black_box(pc_kernels::score_batch(
                        &w.packed,
                        &w.probe_packed,
                        kind,
                        Parallelism::auto(),
                    ))
                })
            },
        );
    }
    group.finish();
}

/// Median wall-clock nanoseconds of `f` over `reps` runs (one warmup).
fn median_ns<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    f();
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e9
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Best-case wall-clock nanoseconds of `f` over `reps` runs (one warmup) —
/// the robust statistic for A/B overhead comparisons, where one descheduled
/// sample would otherwise swamp a sub-1% effect.
fn min_ns<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    f();
    (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e9
        })
        .fold(f64::INFINITY, f64::min)
}

/// Measured `memcpy` bandwidth in GB/s (read + write bytes over best-of-`reps`
/// wall clock) — the roofline the scoring kernels are judged against.
fn memcpy_gbps(reps: usize, quick: bool) -> f64 {
    let bytes = if quick { 32 << 20 } else { 128 << 20 };
    let src = vec![0xa5u8; bytes];
    let mut dst = vec![0u8; bytes];
    let ns = min_ns(reps, || {
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
    });
    // A copy streams every byte twice: once read, once written.
    (2 * bytes) as f64 / ns
}

/// The speedup the 4-thread parallel gate demands at 10k chips — enforced
/// only on machines with at least [`GATE_THREADS`] cores, recorded always.
const PARALLEL_SPEEDUP_MIN: f64 = 2.5;
/// Thread count the parallel gate is defined at (fixed, not `auto()`, so the
/// gate means the same thing on every machine that enforces it).
const GATE_THREADS: usize = 4;

/// Differential check: packed scoring must match per-pair scalar scoring
/// bit-for-bit for every built-in metric at 1, 2, and [`GATE_THREADS`]
/// threads plus `auto()`. Returns false (rather than panicking) so the JSON
/// record always lands and CI's `"simd_matches_scalar": true` grep fails.
fn simd_matches_scalar(
    entries: &[ErrorString],
    packed: &[PackedErrors],
    probe: &ErrorString,
) -> bool {
    let probe_packed = probe.to_packed();
    let metrics: [&dyn DistanceMetric; 3] = [
        &PcDistance::new(),
        &probable_cause::HammingDistance::new(),
        &probable_cause::JaccardDistance::new(),
    ];
    metrics.iter().all(|metric| {
        let kind = metric.kind().expect("built-in metrics have packed forms");
        let reference: Vec<f64> = entries.iter().map(|e| metric.distance(e, probe)).collect();
        [
            Parallelism::single(),
            Parallelism::new(2),
            Parallelism::new(GATE_THREADS),
            Parallelism::auto(),
        ]
        .into_iter()
        .all(|par| pc_kernels::score_batch(packed, &probe_packed, kind, par) == reference)
    })
}

/// Clusters in the cluster-scan book, and their fingerprint weight: the
/// `ingest-10k` book of 1 024 devices at 312 stable bits each.
const BOOK_CLUSTERS: u64 = 1_024;
const CLUSTER_WEIGHT: usize = 312;

/// The cluster-scan workload: the book, plus probes that match clusters
/// spread across it (a device's stable bits plus 16 noise bits, 328 in
/// all) and 328-bit strangers that match none.
fn cluster_scan_workload() -> (Vec<PackedErrors>, Vec<PackedErrors>) {
    let fingerprints: Vec<ErrorString> = (0..BOOK_CLUSTERS)
        .map(|c| synthetic_errors(c + 1, CLUSTER_WEIGHT, SIZE))
        .collect();
    let matching = (0..16u64).map(|k| perturbed(&fingerprints[(k * 64 + 31) as usize], 0, 16, k));
    let strangers = (0..16u64).map(|k| synthetic_errors(1_000_000 + k, WEIGHT, SIZE));
    let book = fingerprints.iter().map(ErrorString::to_packed).collect();
    let probes = matching.chain(strangers).map(|p| p.to_packed()).collect();
    (book, probes)
}

/// The first-match loop `first_within` replaces: one pairwise merge per
/// cluster until one is within the threshold.
fn pairwise_first_match(
    book: &[PackedErrors],
    probe: &PackedErrors,
    kind: MetricKind,
    threshold: f64,
) -> (Option<usize>, u64) {
    let mut compared = 0u64;
    for (j, fingerprint) in book.iter().enumerate() {
        compared += 1;
        if distance_packed(fingerprint, probe, kind) < threshold {
            return (Some(j), compared);
        }
    }
    (None, compared)
}

/// Differential check: `first_within` must return the pairwise loop's
/// index and compared count for every probe, every built-in metric, and
/// thresholds around the service's 0.25. Returns false (rather than
/// panicking) so the JSON record always lands and CI's
/// `"cluster_scan_matches_pairwise": true` grep fails.
fn cluster_scan_matches_pairwise(book: &[PackedErrors], probes: &[PackedErrors]) -> bool {
    let kinds = [
        MetricKind::PcJaccard,
        MetricKind::Hamming,
        MetricKind::Jaccard,
    ];
    kinds.into_iter().all(|kind| {
        [0.05, 0.25, 0.5, 0.99].into_iter().all(|threshold| {
            probes.iter().all(|probe| {
                first_within(book, probe, kind, threshold)
                    == pairwise_first_match(book, probe, kind, threshold)
            })
        })
    })
}

/// Times scalar vs packed vs packed+parallel batch scoring, measures the
/// roofline (achieved kernel GB/s against `memcpy` bandwidth), times the
/// identify plan stage and the cluster-ingest scan per cluster compared,
/// and writes `BENCH_kernels.json` — the machine-readable record CI gates
/// on (`parallel_speedup_ok`, `simd_matches_scalar`, `tracing_overhead_ok`,
/// `cluster_scan_matches_pairwise`).
fn emit_kernels_json(_c: &mut Criterion) {
    let quick = std::env::args().any(|a| a == "--test")
        || std::env::var("PC_BENCH_QUICK").is_ok_and(|v| v != "0");
    let reps = std::env::var("PC_BENCH_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 3 } else { 15 });
    let out_path =
        std::env::var("PC_BENCH_OUT").unwrap_or_else(|_| "BENCH_kernels.json".to_string());

    let metric = PcDistance::new();
    let kind = metric.kind().expect("PcDistance has a packed form");
    let threads_auto = Parallelism::auto().threads();
    let effective_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let simd_backend = pc_kernels::simd::backend();
    let memcpy_bw = memcpy_gbps(reps, quick);

    let mut rows = Vec::new();
    let mut speedup_10k = 0.0;
    let mut parallel_speedup_10k = 0.0;
    let mut packed_gbps_10k = 0.0;
    let mut simd_ok = true;
    for chips in [100u64, 1_000, 10_000] {
        let w = KernelWorkload::new(chips);
        simd_ok &= simd_matches_scalar(&w.entries, &w.packed, &w.probe);

        let scalar_ns = median_ns(reps, || {
            black_box(w.scalar(&metric));
        });
        let packed_ns = median_ns(reps, || {
            black_box(pc_kernels::score_batch(
                &w.packed,
                &w.probe_packed,
                kind,
                Parallelism::single(),
            ));
        });
        let parallel_ns = median_ns(reps, || {
            black_box(pc_kernels::score_batch(
                &w.packed,
                &w.probe_packed,
                kind,
                Parallelism::new(GATE_THREADS),
            ));
        });

        // Roofline: a full scan streams every stored container once.
        let bytes: u64 = w.packed.iter().map(PackedErrors::container_bytes).sum();
        let packed_gbps = bytes as f64 / packed_ns;
        let parallel_gbps = bytes as f64 / parallel_ns;
        let speedup_packed = scalar_ns / packed_ns;
        let speedup_parallel = scalar_ns / parallel_ns;
        let parallel_speedup = packed_ns / parallel_ns;
        if chips == 10_000 {
            speedup_10k = speedup_parallel;
            parallel_speedup_10k = parallel_speedup;
            packed_gbps_10k = packed_gbps;
        }
        rows.push(format!(
            "    {{ \"chips\": {chips}, \"scalar_ns\": {scalar_ns:.0}, \"packed_ns\": {packed_ns:.0}, \
             \"parallel{GATE_THREADS}_ns\": {parallel_ns:.0}, \"speedup_packed\": {speedup_packed:.2}, \
             \"speedup_packed_parallel\": {speedup_parallel:.2}, \"parallel_speedup\": {parallel_speedup:.2}, \
             \"packed_gbps\": {packed_gbps:.2}, \"parallel_gbps\": {parallel_gbps:.2} }}"
        ));
    }

    // The SIMD differential above only exercises sparse containers (1% of a
    // 32k-bit page). A dense fleet (4096 bits per block, past
    // `DENSE_THRESHOLD`) routes through the AVX2 AND+popcount kernel, and a
    // sparse probe against it hits the mixed sparse-vs-dense arm.
    let dense_chips = if quick { 200u64 } else { 1_000 };
    let dense_entries: Vec<ErrorString> = (0..dense_chips)
        .map(|c| synthetic_errors(c + 1, 4_096, SIZE))
        .collect();
    let dense_packed: Vec<PackedErrors> =
        dense_entries.iter().map(ErrorString::to_packed).collect();
    assert!(
        dense_packed.iter().all(|p| p.dense_block_count() > 0),
        "dense differential workload failed to produce dense containers"
    );
    let dense_probe = perturbed(
        &synthetic_errors(dense_chips / 2 + 1, 4_096, SIZE),
        40,
        40,
        7,
    );
    let sparse_probe = synthetic_errors(7, WEIGHT, SIZE);
    simd_ok &= simd_matches_scalar(&dense_entries, &dense_packed, &dense_probe);
    simd_ok &= simd_matches_scalar(&dense_entries, &dense_packed, &sparse_probe);

    // The 2.5x-at-4-threads gate needs 4 cores to be physically meaningful;
    // on smaller machines the record still carries the measured ratio, but
    // the gate reports itself waived instead of failing vacuously.
    let parallel_gate = if effective_cores >= GATE_THREADS {
        "enforced"
    } else {
        "waived:fewer-than-4-cores"
    };
    let parallel_speedup_ok =
        parallel_speedup_10k >= PARALLEL_SPEEDUP_MIN || effective_cores < GATE_THREADS;

    // Tracing-overhead A/B at 10k chips: the identify scoring loop raw vs
    // wrapped in the exact per-request pattern `pc-service` runs when
    // tracing is *disabled* (a `Tracer::begin` that returns `None` plus the
    // guard branches around it). The gate asserts the disabled path costs
    // at most 1% — tracing must be free when it is off. Best-of-N, not
    // median: one descheduled sample would swamp a sub-1% effect.
    let w = KernelWorkload::new(10_000);
    let ab_reps = reps.max(7);
    let raw_ns = min_ns(ab_reps, || {
        black_box(pc_kernels::score_batch(
            &w.packed,
            &w.probe_packed,
            kind,
            Parallelism::single(),
        ));
    });
    let tracer = Tracer::disabled();
    let traced_ns = min_ns(ab_reps, || {
        let clock = tracer.enabled().then(StageClock::start);
        let decode_ns = clock.as_ref().map_or(0, StageClock::elapsed_ns);
        let mut trace = tracer.begin(0, 1, "identify", decode_ns, false);
        black_box(pc_kernels::score_batch(
            &w.packed,
            &w.probe_packed,
            kind,
            Parallelism::single(),
        ));
        if let Some(tb) = trace.as_deref_mut() {
            tb.record_lap(Stage::Score);
        }
        if let Some(tb) = trace.take() {
            tracer.observe(tb.finish());
        }
    });
    let tracing_overhead_pct = ((traced_ns - raw_ns) / raw_ns * 100.0).max(0.0);
    let tracing_overhead_ok = tracing_overhead_pct <= 1.0;

    // The identify plan stage: one `candidates` call per noisy output of a
    // stored chip against the 10k-chip index `pc-service` would build, and
    // the build itself per entry.
    let db = populated_db(10_000);
    let index_build_ns = median_ns(reps, || {
        black_box(db.build_index(16, 4, 0x5eed));
    }) / db.len() as f64;
    let index = db.build_index(16, 4, 0x5eed);
    let plan_probes: Vec<ErrorString> = (0..32u64)
        .map(|i| perturbed(&synthetic_errors(i * 311 + 1, WEIGHT, SIZE), 6, 6, 7))
        .collect();
    let index_candidates_ns = median_ns(reps, || {
        for probe in &plan_probes {
            black_box(index.candidates(black_box(probe)));
        }
    }) / plan_probes.len() as f64;

    // Algorithm 4's first-match scan at the service threshold, per cluster
    // compared: the matching probes stop partway through the book, the
    // strangers compare every cluster.
    let (book, probes) = cluster_scan_workload();
    let threshold = 0.25;
    let compared: u64 = probes
        .iter()
        .map(|p| pairwise_first_match(&book, p, kind, threshold).1)
        .sum();
    let scan_ns = |scan: &dyn Fn(&PackedErrors) -> (Option<usize>, u64)| {
        median_ns(reps, || {
            for probe in &probes {
                black_box(scan(black_box(probe)));
            }
        }) / compared as f64
    };
    let cluster_scan_pairwise_ns = scan_ns(&|p| pairwise_first_match(&book, p, kind, threshold));
    let cluster_scan_ns = scan_ns(&|p| first_within(&book, p, kind, threshold));
    let cluster_scan_ok = cluster_scan_matches_pairwise(&book, &probes);

    let roofline_fraction = packed_gbps_10k / memcpy_bw;
    let json = format!(
        "{{\n  \"bench\": \"kernels\",\n  \"size_bits\": {SIZE},\n  \"weight\": {WEIGHT},\n  \
         \"reps\": {reps},\n  \"quick\": {quick},\n  \"threads_auto\": {threads_auto},\n  \
         \"effective_cores\": {effective_cores},\n  \"simd_backend\": \"{simd_backend}\",\n  \
         \"memcpy_gbps\": {memcpy_bw:.2},\n  \"results\": [\n{}\n  ],\n  \
         \"speedup_10k\": {speedup_10k:.2},\n  \
         \"parallel_threads\": {GATE_THREADS},\n  \
         \"parallel_speedup_10k\": {parallel_speedup_10k:.2},\n  \
         \"parallel_speedup_min\": {PARALLEL_SPEEDUP_MIN},\n  \
         \"parallel_gate\": \"{parallel_gate}\",\n  \
         \"parallel_speedup_ok\": {parallel_speedup_ok},\n  \
         \"roofline_fraction_10k\": {roofline_fraction:.3},\n  \
         \"simd_matches_scalar\": {simd_ok},\n  \
         \"tracing_overhead_pct_10k\": {tracing_overhead_pct:.2},\n  \
         \"tracing_overhead_ok\": {tracing_overhead_ok},\n  \
         \"index_candidates_ns\": {index_candidates_ns:.0},\n  \
         \"index_build_ns\": {index_build_ns:.0},\n  \
         \"cluster_scan_pairwise_ns\": {cluster_scan_pairwise_ns:.1},\n  \
         \"cluster_scan_ns\": {cluster_scan_ns:.1},\n  \
         \"cluster_scan_matches_pairwise\": {cluster_scan_ok}\n}}\n",
        rows.join(",\n")
    );
    std::fs::write(&out_path, &json).expect("write kernels bench record");
    println!("kernels bench record -> {out_path}");
    print!("{json}");
}

criterion_group!(
    benches,
    bench_lookup,
    bench_index_build,
    bench_kernels,
    emit_kernels_json
);
criterion_main!(benches);
