//! Distance metrics between fingerprints and error strings.

use crate::ErrorString;
use pc_kernels::MetricKind;

/// A distance in `[0, 1]` between a fingerprint's error string and an
/// output's error string: 0 = certainly the same device, 1 = unrelated.
///
/// The trait is object-safe so pipelines can be configured with
/// `Box<dyn DistanceMetric>`.
pub trait DistanceMetric {
    /// Distance between `fingerprint` and `error_string`.
    fn distance(&self, fingerprint: &ErrorString, error_string: &ErrorString) -> f64;

    /// Human-readable metric name (for experiment output).
    fn name(&self) -> &'static str;

    /// The packed-kernel formula this metric reduces to, if any. Metrics
    /// that return `Some` promise [`MetricKind::eval`] over exact set counts
    /// is bit-for-bit equal to [`DistanceMetric::distance`]; batch scoring
    /// ([`crate::batch`], [`crate::FingerprintDb`]) then takes the packed
    /// popcount path instead of per-pair scalar merges. The default is
    /// `None`: custom metrics keep the scalar path.
    fn kind(&self) -> Option<MetricKind> {
        None
    }
}

/// The paper's metric (Algorithm 3): the fraction of fingerprint error bits
/// *absent* from the output's error pattern, based on the Jaccard index.
///
/// Per footnote 2, the lower-weight operand plays the fingerprint role (so
/// the metric is insensitive to which side was collected at the lighter
/// approximation level). Extra errors in the heavier side are ignored — this
/// is exactly what makes the metric robust to differing accuracy levels and
/// to additive noise, where Hamming distance fails (§5.2).
///
/// Two empty strings have distance 0 (indistinguishable); an empty
/// fingerprint against a non-empty output likewise ignores the extra errors,
/// so callers should screen out low-information pages (see
/// [`crate::StitchConfig::min_page_weight`]).
///
/// # Example
///
/// ```
/// use probable_cause::{DistanceMetric, ErrorString, PcDistance};
/// let fp = ErrorString::from_sorted(vec![1, 5, 9, 13], 32)?;
/// // Same chip, heavier approximation: all fingerprint bits present.
/// let heavy = ErrorString::from_sorted(vec![1, 2, 5, 7, 9, 13, 20, 30], 32)?;
/// assert_eq!(PcDistance::new().distance(&fp, &heavy), 0.0);
/// // Other chip: no overlap.
/// let other = ErrorString::from_sorted(vec![0, 2, 6, 10], 32)?;
/// assert_eq!(PcDistance::new().distance(&fp, &other), 1.0);
/// # Ok::<(), probable_cause::BitStringError>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PcDistance {
    _private: (),
}

impl PcDistance {
    /// Creates the paper's distance metric.
    pub fn new() -> Self {
        Self::default()
    }
}

impl DistanceMetric for PcDistance {
    fn distance(&self, fingerprint: &ErrorString, error_string: &ErrorString) -> f64 {
        pc_telemetry::counter!("core.distance.pc").incr();
        // Footnote 2: let the lower-weight string act as the fingerprint.
        let (small, big) = if fingerprint.weight() <= error_string.weight() {
            (fingerprint, error_string)
        } else {
            (error_string, fingerprint)
        };
        if small.is_empty() {
            // No fingerprint bits to miss; extra errors in `big` are ignored
            // by design, so the distance is 0.
            return 0.0;
        }
        small.difference_count(big) as f64 / small.weight() as f64
    }

    fn name(&self) -> &'static str {
        "pc-jaccard"
    }

    fn kind(&self) -> Option<MetricKind> {
        Some(MetricKind::PcJaccard)
    }
}

/// Normalized Hamming distance — the baseline the paper argues *against*
/// (§5.2): symmetric difference size over string size.
///
/// Fails when fingerprint and output were collected at different accuracy
/// levels: a same-chip pair at 99% vs 90% differs in most of the 90% errors,
/// inflating the distance past that of cross-chip pairs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HammingDistance {
    _private: (),
}

impl HammingDistance {
    /// Creates the Hamming baseline metric.
    pub fn new() -> Self {
        Self::default()
    }
}

impl DistanceMetric for HammingDistance {
    fn distance(&self, fingerprint: &ErrorString, error_string: &ErrorString) -> f64 {
        pc_telemetry::counter!("core.distance.hamming").incr();
        let sym = fingerprint.symmetric_difference_count(error_string);
        // Normalize by the maximum possible symmetric difference between the
        // two strings so the result stays in [0, 1].
        let max = (fingerprint.weight() + error_string.weight()).max(1);
        sym as f64 / max as f64
    }

    fn name(&self) -> &'static str {
        "hamming"
    }

    fn kind(&self) -> Option<MetricKind> {
        Some(MetricKind::Hamming)
    }
}

/// Plain Jaccard distance, `1 − |A∩B| / |A∪B|` — a second baseline, better
/// than Hamming but still penalizing accuracy mismatch (the extra errors of
/// the heavier side land in the denominator).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JaccardDistance {
    _private: (),
}

impl JaccardDistance {
    /// Creates the plain Jaccard metric.
    pub fn new() -> Self {
        Self::default()
    }
}

impl DistanceMetric for JaccardDistance {
    fn distance(&self, fingerprint: &ErrorString, error_string: &ErrorString) -> f64 {
        pc_telemetry::counter!("core.distance.jaccard").incr();
        let inter = fingerprint.intersection_count(error_string);
        let union = fingerprint.weight() + error_string.weight() - inter;
        if union == 0 {
            0.0
        } else {
            1.0 - inter as f64 / union as f64
        }
    }

    fn name(&self) -> &'static str {
        "jaccard"
    }

    fn kind(&self) -> Option<MetricKind> {
        Some(MetricKind::Jaccard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn es(bits: &[u64]) -> ErrorString {
        ErrorString::from_sorted(bits.to_vec(), 1024).unwrap()
    }

    #[test]
    fn pc_distance_bounds() {
        let m = PcDistance::new();
        let a = es(&[1, 2, 3]);
        let b = es(&[100, 200]);
        let d = m.distance(&a, &b);
        assert!((0.0..=1.0).contains(&d));
        assert_eq!(d, 1.0);
        assert_eq!(m.distance(&a, &a), 0.0);
    }

    #[test]
    fn pc_distance_symmetric_by_swap_rule() {
        let m = PcDistance::new();
        let small = es(&[1, 2, 3]);
        let big = es(&[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(m.distance(&small, &big), m.distance(&big, &small));
    }

    #[test]
    fn pc_distance_ignores_extra_errors_in_heavier_side() {
        // The §5.2 scenario: fingerprint at 99% accuracy, output at 90%.
        let m = PcDistance::new();
        let fp = es(&[10, 20, 30, 40]);
        let output_same_chip = es(&[5, 10, 15, 20, 25, 30, 35, 40, 45, 50]);
        assert_eq!(m.distance(&fp, &output_same_chip), 0.0);
    }

    #[test]
    fn pc_distance_counts_missing_fingerprint_bits() {
        let m = PcDistance::new();
        let fp = es(&[10, 20, 30, 40]);
        let out = es(&[10, 20, 99, 100, 101]); // 2 of 4 fp bits missing
        assert!((m.distance(&fp, &out) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn hamming_fails_under_accuracy_mismatch_pc_does_not() {
        // Same chip: fingerprint is a strict subset of a much denser output.
        let fp = es(&(0..20).map(|i| i * 3).collect::<Vec<_>>());
        // Same chip, heavier approximation: fingerprint bits plus many extras.
        let mut dense_bits: Vec<u64> = (0..20).map(|i| i * 3).collect();
        dense_bits.extend(500..650);
        let same_dense = ErrorString::from_unsorted(dense_bits, 1024).unwrap();
        // Different chip at matching density.
        let other = es(&(0..20).map(|i| i * 3 + 1).collect::<Vec<_>>());

        let pc = PcDistance::new();
        let ham = HammingDistance::new();
        // The paper's metric keeps a wide gap between same-chip and
        // other-chip pairs despite the accuracy mismatch...
        assert!(pc.distance(&fp, &same_dense) < 0.05);
        assert!(pc.distance(&fp, &other) > 0.95);
        // ...while Hamming pushes the same-chip pair almost as far out as a
        // genuinely different chip, collapsing the separation.
        let gap_pc = pc.distance(&fp, &other) - pc.distance(&fp, &same_dense);
        let gap_ham = ham.distance(&fp, &other) - ham.distance(&fp, &same_dense);
        assert!(gap_ham < 0.3, "hamming gap unexpectedly wide: {gap_ham}");
        assert!(
            gap_pc > 3.0 * gap_ham,
            "pc gap {gap_pc} vs hamming gap {gap_ham}"
        );
    }

    #[test]
    fn hamming_identical_zero_disjoint_one() {
        let m = HammingDistance::new();
        let a = es(&[1, 2, 3]);
        assert_eq!(m.distance(&a, &a), 0.0);
        let b = es(&[4, 5, 6]);
        assert_eq!(m.distance(&a, &b), 1.0);
    }

    #[test]
    fn jaccard_basics() {
        let m = JaccardDistance::new();
        let a = es(&[1, 2, 3, 4]);
        let b = es(&[3, 4, 5, 6]);
        // |∩|=2, |∪|=6 -> distance 2/3.
        assert!((m.distance(&a, &b) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(m.distance(&a, &a), 0.0);
    }

    #[test]
    fn empty_edge_cases() {
        let e = ErrorString::empty(64);
        let a = ErrorString::from_sorted(vec![1], 64).unwrap();
        assert_eq!(PcDistance::new().distance(&e, &e), 0.0);
        assert_eq!(PcDistance::new().distance(&e, &a), 0.0);
        assert_eq!(JaccardDistance::new().distance(&e, &e), 0.0);
        assert_eq!(HammingDistance::new().distance(&e, &a), 1.0);
    }

    #[test]
    fn metric_objects_are_usable_dynamically() {
        let metrics: Vec<Box<dyn DistanceMetric>> = vec![
            Box::new(PcDistance::new()),
            Box::new(HammingDistance::new()),
            Box::new(JaccardDistance::new()),
        ];
        let a = es(&[1, 2]);
        for m in &metrics {
            assert!(m.distance(&a, &a) <= 1e-12, "{} not reflexive", m.name());
        }
    }
}
