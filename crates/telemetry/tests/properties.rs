//! Property-based and concurrency tests for the telemetry primitives.
//!
//! The histogram's merge algebra (associative, commutative, empty identity)
//! and its quantile error bound (the true quantile lies inside the estimate's
//! bucket) are what make per-thread snapshots safe to combine in any order;
//! the scoped-thread hammer tests pin down that the lock-free counters and
//! histograms lose nothing under contention.

use pc_telemetry::histogram::{bucket_index, bucket_upper, Histogram, HistogramSnapshot};
use pc_telemetry::{JsonObject, JsonValue};
use proptest::prelude::*;

/// Builds a snapshot holding exactly `values`.
fn snapshot_of(values: &[u64]) -> HistogramSnapshot {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merge_is_commutative(a in proptest::collection::vec(any::<u64>(), 0..40),
                            b in proptest::collection::vec(any::<u64>(), 0..40)) {
        let (sa, sb) = (snapshot_of(&a), snapshot_of(&b));
        prop_assert_eq!(sa.merged(&sb), sb.merged(&sa));
    }

    #[test]
    fn merge_is_associative(a in proptest::collection::vec(any::<u64>(), 0..30),
                            b in proptest::collection::vec(any::<u64>(), 0..30),
                            c in proptest::collection::vec(any::<u64>(), 0..30)) {
        let (sa, sb, sc) = (snapshot_of(&a), snapshot_of(&b), snapshot_of(&c));
        prop_assert_eq!(sa.merged(&sb).merged(&sc), sa.merged(&sb.merged(&sc)));
    }

    #[test]
    fn empty_is_the_merge_identity(a in proptest::collection::vec(any::<u64>(), 0..40)) {
        let s = snapshot_of(&a);
        prop_assert_eq!(s.merged(&HistogramSnapshot::empty()), s.clone());
        prop_assert_eq!(HistogramSnapshot::empty().merged(&s), s);
    }

    #[test]
    fn merge_equals_recording_the_concatenation(
        a in proptest::collection::vec(any::<u64>(), 0..40),
        b in proptest::collection::vec(any::<u64>(), 0..40),
    ) {
        let both: Vec<u64> = a.iter().chain(&b).copied().collect();
        prop_assert_eq!(snapshot_of(&a).merged(&snapshot_of(&b)), snapshot_of(&both));
    }

    #[test]
    fn quantile_estimate_bounds_the_true_quantile_within_one_bucket(
        mut values in proptest::collection::vec(any::<u64>(), 1..200),
        q in 0.0f64..1.0,
    ) {
        let estimate = snapshot_of(&values).quantile(q).expect("non-empty");
        values.sort_unstable();
        // The true quantile at the same rank convention as the estimator.
        let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
        let truth = values[rank - 1];
        prop_assert!(estimate >= truth,
                     "estimate {estimate} below true quantile {truth}");
        prop_assert!(estimate <= bucket_upper(bucket_index(truth)),
                     "estimate {estimate} outside the bucket of {truth}");
    }

    #[test]
    fn snapshot_totals_match_inputs(values in proptest::collection::vec(0u64..1 << 40, 1..100)) {
        let s = snapshot_of(&values);
        prop_assert_eq!(s.count(), values.len() as u64);
        prop_assert_eq!(s.sum(), values.iter().sum::<u64>());
        prop_assert_eq!(s.min(), values.iter().min().copied());
        prop_assert_eq!(s.max(), values.iter().max().copied());
    }

    #[test]
    fn json_parse_inverts_rendering(
        ints in proptest::collection::vec(any::<u64>(), 0..8),
        negs in proptest::collection::vec(any::<u64>(), 0..8),
        flags in proptest::collection::vec(any::<bool>(), 0..8),
        text in proptest::collection::vec(proptest::char::range('\u{0}', '\u{2FF}'), 0..40),
    ) {
        // An object exercising every writer branch: scalars, a string with
        // control characters and escapes, nested arrays and objects.
        let s: String = text.into_iter().collect();
        let mut inner = JsonObject::new();
        inner.set("s", s.as_str());
        inner.set("flags", flags.iter().map(|&b| JsonValue::Bool(b)).collect::<Vec<_>>());
        let mut obj = JsonObject::new();
        obj.set("ints", ints.iter().map(|&n| JsonValue::U64(n)).collect::<Vec<_>>());
        // Strictly negative: non-negative integers canonically parse as U64.
        obj.set(
            "negs",
            negs.iter().map(|&n| JsonValue::I64(-((n >> 1) as i64) - 1)).collect::<Vec<_>>(),
        );
        obj.set("inner", inner);
        obj.set("null", JsonValue::Null);

        let compact = pc_telemetry::parse_json(&obj.to_compact());
        prop_assert_eq!(compact, Ok(JsonValue::Object(obj.clone())));
        let pretty = pc_telemetry::parse_json(&obj.to_pretty());
        prop_assert_eq!(pretty, Ok(JsonValue::Object(obj)));
    }

    #[test]
    fn json_string_escaping_roundtrips(
        text in proptest::collection::vec(proptest::char::range('\u{0}', '\u{FFFF}'), 0..60),
    ) {
        let s: String = text.into_iter().collect();
        let mut obj = JsonObject::new();
        obj.set("s", s.as_str());
        let back = pc_telemetry::parse_json(&obj.to_compact()).expect("writer output parses");
        prop_assert_eq!(
            back.as_object().and_then(|o| o.get("s")).and_then(JsonValue::as_str),
            Some(s.as_str())
        );
    }
}

const THREADS: u64 = 8;
const OPS_PER_THREAD: u64 = 10_000;

#[test]
fn counters_survive_a_concurrent_hammer() {
    let collector = pc_telemetry::install();
    let counter = collector.counter("test.hammer.counter");
    let before = counter.get();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            s.spawn(move || {
                for i in 0..OPS_PER_THREAD {
                    if (t + i) % 2 == 0 {
                        counter.incr();
                    } else {
                        counter.add(1);
                    }
                }
            });
        }
    });
    assert_eq!(counter.get() - before, THREADS * OPS_PER_THREAD);
}

#[test]
fn histogram_loses_nothing_under_contention() {
    let collector = pc_telemetry::install();
    let hist = collector.span_histogram("test.hammer.hist");
    let before = hist.count();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            s.spawn(move || {
                for i in 0..OPS_PER_THREAD {
                    hist.record(t * OPS_PER_THREAD + i);
                }
            });
        }
    });
    let s = hist.snapshot();
    assert_eq!(s.count() - before, THREADS * OPS_PER_THREAD);
    assert_eq!(s.max(), Some(THREADS * OPS_PER_THREAD - 1));
}

#[test]
fn concurrent_per_thread_snapshots_merge_to_the_global_total() {
    // Each worker keeps a private histogram; merging the per-thread
    // snapshots in arbitrary order must equal one histogram fed everything.
    let combined = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                s.spawn(move || {
                    let h = Histogram::new();
                    for i in 0..OPS_PER_THREAD {
                        h.record(t ^ i);
                    }
                    h.snapshot()
                })
            })
            .collect();
        let mut acc = HistogramSnapshot::empty();
        for h in handles {
            acc.merge(&h.join().expect("worker does not panic"));
        }
        acc
    });
    let reference = Histogram::new();
    for t in 0..THREADS {
        for i in 0..OPS_PER_THREAD {
            reference.record(t ^ i);
        }
    }
    assert_eq!(combined, reference.snapshot());
}
