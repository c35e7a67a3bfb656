//! Batch distance scoring over packed error strings.

use crate::packed::{DenseView, PackedErrors};
use crate::pool::{self, Parallelism};

/// The distance formulas of `probable_cause`'s three metrics, expressed over
/// exact set counts so packed scoring is bit-for-bit equal to the scalar
/// implementations (same integers, same floating-point operations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// The paper's modified Jaccard metric (Algorithm 3): fraction of the
    /// lower-weight operand's bits absent from the other.
    PcJaccard,
    /// Normalized Hamming distance: symmetric difference over total weight.
    Hamming,
    /// Plain Jaccard distance: `1 − |A∩B| / |A∪B|`.
    Jaccard,
}

impl MetricKind {
    /// Distance from exact counts: the fingerprint-side weight, the
    /// probe-side weight, and their intersection size.
    #[inline]
    pub fn eval(self, fingerprint_weight: u64, probe_weight: u64, intersection: u64) -> f64 {
        match self {
            // Footnote 2: the lower-weight operand plays the fingerprint
            // role. At equal weights both choices yield the same counts.
            MetricKind::PcJaccard => {
                let small = fingerprint_weight.min(probe_weight);
                if small == 0 {
                    0.0
                } else {
                    (small - intersection) as f64 / small as f64
                }
            }
            MetricKind::Hamming => {
                let sym = fingerprint_weight + probe_weight - 2 * intersection;
                sym as f64 / (fingerprint_weight + probe_weight).max(1) as f64
            }
            MetricKind::Jaccard => {
                let union = fingerprint_weight + probe_weight - intersection;
                if union == 0 {
                    0.0
                } else {
                    1.0 - intersection as f64 / union as f64
                }
            }
        }
    }

    /// The smallest intersection `i` (at most the lower weight) for which
    /// [`MetricKind::eval`] is below `threshold`, or `None` when even full
    /// overlap is not. Every formula is non-increasing in the intersection,
    /// also after rounding, so a pair with intersection `n` is within the
    /// threshold exactly when `n` reaches this bound: the first-match scan
    /// can stop counting once the decision is known.
    ///
    /// The bound starts from where the formula crosses the threshold in
    /// exact arithmetic and then steps until `eval` itself confirms it, so
    /// it agrees with `eval` bit for bit; the guess is usually already
    /// right, which costs two evaluations.
    pub fn min_intersection(
        self,
        fingerprint_weight: u64,
        probe_weight: u64,
        threshold: f64,
    ) -> Option<u64> {
        let (fw, pw) = (fingerprint_weight, probe_weight);
        let max = fw.min(pw);
        let keep = 1.0 - threshold;
        let crossing = match self {
            MetricKind::PcJaccard => max as f64 * keep,
            MetricKind::Hamming => (fw + pw) as f64 * keep / 2.0,
            MetricKind::Jaccard => (fw + pw) as f64 * keep / (1.0 + keep),
        };
        let below = |i| self.eval(fw, pw, i) < threshold;
        // `as` saturates, so a negative or NaN guess starts at 0.
        let mut i = ((crossing.floor() + 1.0) as u64).min(max + 1);
        while i > 0 && below(i - 1) {
            i -= 1;
        }
        while i <= max && !below(i) {
            i += 1;
        }
        (i <= max).then_some(i)
    }

    /// Metric name, matching `DistanceMetric::name` in `probable_cause`.
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::PcJaccard => "pc-jaccard",
            MetricKind::Hamming => "hamming",
            MetricKind::Jaccard => "jaccard",
        }
    }
}

/// Distance between one fingerprint and one probe via the pairwise merge
/// kernels (no dense expansion) — for one-off pairs, where no probe is
/// shared. A probe compared against several fingerprints is cheaper through
/// [`DenseView`]: [`score_subset`] for distances, [`first_within`] for
/// online clustering's first match.
pub fn distance_packed(fingerprint: &PackedErrors, probe: &PackedErrors, kind: MetricKind) -> f64 {
    kind.eval(
        fingerprint.weight(),
        probe.weight(),
        fingerprint.intersect_count(probe),
    )
}

/// Algorithm 4's first-match scan: the index of the first entry whose
/// distance to `probe` is below `threshold`, plus the number of entries
/// examined (all of them on a miss). Answers exactly what a
/// [`distance_packed`] loop answers, more cheaply: the probe is expanded to
/// a [`DenseView`] once (only when there is an entry to compare), and each
/// entry's bit test stops as soon as its intersection reaches
/// [`MetricKind::min_intersection`] or can no longer reach it.
pub fn first_within(
    entries: &[PackedErrors],
    probe: &PackedErrors,
    kind: MetricKind,
    threshold: f64,
) -> (Option<usize>, u64) {
    if entries.is_empty() {
        return (None, 0);
    }
    let view = DenseView::new(probe);
    let hit = entries.iter().position(|e| {
        kind.min_intersection(e.weight(), view.weight(), threshold)
            .is_some_and(|need| e.intersects_at_least(&view, need))
    });
    let compared = hit.map_or(entries.len(), |j| j + 1);
    (hit, compared as u64)
}

/// Scores every entry against `probe`: `out[i]` is the distance from
/// `entries[i]`. The probe is expanded to a dense view once, then entries are
/// scored with branchless kernels in deterministic parallel chunks — the
/// output is identical for every thread count.
pub fn score_batch(
    entries: &[PackedErrors],
    probe: &PackedErrors,
    kind: MetricKind,
    par: Parallelism,
) -> Vec<f64> {
    let view = DenseView::new(probe);
    let chunk = pool::chunk_size_for(entries.len(), par.threads());
    pool::map_chunked(entries.len(), chunk, par, |i| {
        kind.eval(
            entries[i].weight(),
            view.weight(),
            entries[i].intersect_count_view(&view),
        )
    })
}

/// [`score_batch`] over a candidate subset: `out[k]` is the distance from
/// `entries[ids[k]]` (the shape LSH-pruned identification produces).
pub fn score_subset(
    entries: &[PackedErrors],
    ids: &[usize],
    probe: &PackedErrors,
    kind: MetricKind,
    par: Parallelism,
) -> Vec<f64> {
    let view = DenseView::new(probe);
    let chunk = pool::chunk_size_for(ids.len(), par.threads());
    pool::map_chunked(ids.len(), chunk, par, |k| {
        let e = &entries[ids[k]];
        kind.eval(e.weight(), view.weight(), e.intersect_count_view(&view))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packed(bits: &[u64]) -> PackedErrors {
        PackedErrors::from_positions(bits, 1 << 16)
    }

    #[test]
    fn formulas_match_hand_counts() {
        let fp = packed(&[1, 3, 5, 7]);
        let probe = packed(&[3, 7, 9]);
        // inter = 2, weights 4 and 3: small side is the probe.
        let d = distance_packed(&fp, &probe, MetricKind::PcJaccard);
        assert!((d - 1.0 / 3.0).abs() < 1e-15);
        let h = distance_packed(&fp, &probe, MetricKind::Hamming);
        assert!((h - 3.0 / 7.0).abs() < 1e-15);
        let j = distance_packed(&fp, &probe, MetricKind::Jaccard);
        assert!((j - (1.0 - 2.0 / 5.0)).abs() < 1e-15);
    }

    #[test]
    fn empty_edges_match_scalar_conventions() {
        let e = packed(&[]);
        let a = packed(&[1]);
        assert_eq!(distance_packed(&e, &e, MetricKind::PcJaccard), 0.0);
        assert_eq!(distance_packed(&e, &a, MetricKind::PcJaccard), 0.0);
        assert_eq!(distance_packed(&e, &e, MetricKind::Jaccard), 0.0);
        assert_eq!(distance_packed(&e, &a, MetricKind::Hamming), 1.0);
        assert_eq!(distance_packed(&e, &e, MetricKind::Hamming), 0.0);
    }

    #[test]
    fn batch_matches_pairwise_for_all_metrics_and_thread_counts() {
        let entries: Vec<PackedErrors> = (0..40)
            .map(|c| packed(&[c, c + 10, c * 3 + 100, 2000 + c]))
            .collect();
        let probe = packed(&[5, 15, 115, 2005, 9000]);
        for kind in [
            MetricKind::PcJaccard,
            MetricKind::Hamming,
            MetricKind::Jaccard,
        ] {
            let reference: Vec<f64> = entries
                .iter()
                .map(|e| distance_packed(e, &probe, kind))
                .collect();
            for threads in 1..=4 {
                let got = score_batch(&entries, &probe, kind, Parallelism::new(threads));
                assert_eq!(got, reference, "{kind:?} threads={threads}");
            }
        }
    }

    #[test]
    fn subset_scoring_indexes_by_candidate() {
        let entries: Vec<PackedErrors> = (0..10).map(|c| packed(&[c * 7, c * 7 + 1])).collect();
        let probe = packed(&[14, 15]);
        let ids = [2usize, 9, 0];
        let got = score_subset(
            &entries,
            &ids,
            &probe,
            MetricKind::PcJaccard,
            Parallelism::single(),
        );
        assert_eq!(got.len(), 3);
        assert_eq!(got[0], 0.0); // entry 2 is exactly the probe
        assert_eq!(got[1], 1.0);
        assert_eq!(got[2], 1.0);
    }
}
