//! Batch scoring over the packed kernels in `pc-kernels`.
//!
//! Every function here dispatches on [`DistanceMetric::kind`]: metrics that
//! reduce to a [`MetricKind`] formula (all three built-ins) take the packed
//! popcount path with telemetry batched to one counter update per call;
//! custom metrics fall back to per-pair scalar scoring, so results and
//! counter totals are identical either way.

use crate::{DistanceMetric, ErrorString};
use pc_kernels::PackedErrors;
pub use pc_kernels::{set_auto_thread_override, simd, MetricKind, Parallelism};

/// Records `n` comparisons on the metric's distance counter in a single
/// update — the batched equivalent of the per-call `incr()` inside
/// [`DistanceMetric::distance`]. Counter names match the scalar path, so
/// totals agree no matter which path scored a workload.
pub fn add_comparisons(kind: MetricKind, n: u64) {
    match kind {
        MetricKind::PcJaccard => pc_telemetry::counter!("core.distance.pc").add(n),
        MetricKind::Hamming => pc_telemetry::counter!("core.distance.hamming").add(n),
        MetricKind::Jaccard => pc_telemetry::counter!("core.distance.jaccard").add(n),
    }
}

/// Distances from every entry to `probe`: `out[i] = metric(entries[i],
/// probe)`, bit-for-bit equal to calling [`DistanceMetric::distance`] per
/// pair. Uses [`Parallelism::auto`]; see [`score_batch_with`] to pin the
/// thread count.
pub fn score_batch<M: DistanceMetric + ?Sized>(
    entries: &[ErrorString],
    probe: &ErrorString,
    metric: &M,
) -> Vec<f64> {
    score_batch_with(entries, probe, metric, Parallelism::auto())
}

/// [`score_batch`] with an explicit [`Parallelism`]. The output is
/// independent of the thread count ([`pc_kernels::map_chunked`] fills each
/// chunk's own slots, on scoped threads).
pub fn score_batch_with<M: DistanceMetric + ?Sized>(
    entries: &[ErrorString],
    probe: &ErrorString,
    metric: &M,
    par: Parallelism,
) -> Vec<f64> {
    match metric.kind() {
        Some(kind) => {
            add_comparisons(kind, entries.len() as u64);
            let packed: Vec<PackedErrors> = entries.iter().map(ErrorString::to_packed).collect();
            pc_kernels::score_batch(&packed, &probe.to_packed(), kind, par)
        }
        None => entries.iter().map(|e| metric.distance(e, probe)).collect(),
    }
}

/// Distances for independent `(fingerprint, probe)` pairs — the shape the
/// stitcher's alignment verification produces (a different page fingerprint
/// per probe page, so there is no shared side to batch against).
pub fn distance_pairs<M: DistanceMetric + ?Sized>(
    pairs: &[(&ErrorString, &ErrorString)],
    metric: &M,
) -> Vec<f64> {
    match metric.kind() {
        Some(kind) => {
            add_comparisons(kind, pairs.len() as u64);
            pairs
                .iter()
                .map(|(fp, probe)| {
                    pc_kernels::distance_packed(&fp.to_packed(), &probe.to_packed(), kind)
                })
                .collect()
        }
        None => pairs
            .iter()
            .map(|(fp, probe)| metric.distance(fp, probe))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HammingDistance, JaccardDistance, PcDistance};

    fn es(bits: &[u64]) -> ErrorString {
        ErrorString::from_sorted(bits.to_vec(), 1 << 16).unwrap()
    }

    /// A metric with no packed form: exercises the scalar fallback.
    struct Constant(f64);
    impl DistanceMetric for Constant {
        fn distance(&self, _: &ErrorString, _: &ErrorString) -> f64 {
            self.0
        }
        fn name(&self) -> &'static str {
            "constant"
        }
    }

    #[test]
    fn batch_equals_scalar_for_builtin_metrics() {
        let entries: Vec<ErrorString> = (0..30)
            .map(|c| es(&[c, c + 7, c * 11 + 300, 40_000 + c * 3]))
            .collect();
        let probe = es(&[3, 10, 333, 40_009, 50_000]);
        let metrics: Vec<Box<dyn DistanceMetric>> = vec![
            Box::new(PcDistance::new()),
            Box::new(HammingDistance::new()),
            Box::new(JaccardDistance::new()),
        ];
        for m in &metrics {
            let reference: Vec<f64> = entries.iter().map(|e| m.distance(e, &probe)).collect();
            assert_eq!(
                score_batch(&entries, &probe, m.as_ref()),
                reference,
                "{}",
                m.name()
            );
        }
    }

    #[test]
    fn thread_count_does_not_change_output() {
        let entries: Vec<ErrorString> = (0..500).map(|c| es(&[c * 13, c * 13 + 1])).collect();
        let probe = es(&[13, 14, 26]);
        let one = score_batch_with(&entries, &probe, &PcDistance::new(), Parallelism::single());
        for threads in 2..=4 {
            let n = score_batch_with(
                &entries,
                &probe,
                &PcDistance::new(),
                Parallelism::new(threads),
            );
            assert_eq!(one, n, "threads={threads}");
        }
    }

    #[test]
    fn custom_metric_uses_scalar_fallback() {
        let entries = vec![es(&[1]), es(&[2])];
        let got = score_batch(&entries, &es(&[3]), &Constant(0.42));
        assert_eq!(got, vec![0.42, 0.42]);
    }

    #[test]
    fn pairs_match_scalar() {
        let a = es(&[1, 2, 3]);
        let b = es(&[2, 3, 4]);
        let c = es(&[100, 200]);
        let pairs = [(&a, &b), (&b, &c), (&c, &a)];
        let m = PcDistance::new();
        let want: Vec<f64> = pairs.iter().map(|(x, y)| m.distance(x, y)).collect();
        assert_eq!(distance_pairs(&pairs, &m), want);
    }
}
