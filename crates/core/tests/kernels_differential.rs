//! Differential tests: the packed kernels (`pc-kernels`) against the sparse
//! scalar reference, across the paper's density regime (0–15% of a page),
//! empty strings, equal-weight ties, and size mismatches. Every distance the
//! packed path produces must be **bit-for-bit** equal to the scalar metric —
//! not approximately equal — so tie-breaks and thresholds behave identically
//! no matter which path scored a workload.

use pc_stats::CellHasher;
use probable_cause::batch::{distance_pairs, score_batch, score_batch_with};
use probable_cause::{
    BitStringError, DistanceMetric, ErrorString, Fingerprint, FingerprintDb, HammingDistance,
    JaccardDistance, Parallelism, PcDistance,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

const PAGE: u64 = 32_768;

/// A deterministic error string at roughly `per_mille`/1000 density — up to
/// 150‰ (15%), past the sparse/dense container crossover (~6.3%).
fn es_with(seed: u64, per_mille: u64, size: u64) -> ErrorString {
    let target = size * per_mille / 1000;
    let h = CellHasher::new(seed);
    let bits: Vec<u64> = (0..target * 2).map(|i| h.word(i) % size).collect();
    ErrorString::from_unsorted(bits, size).expect("in-range bits")
}

fn set(e: &ErrorString) -> BTreeSet<u64> {
    e.positions().iter().copied().collect()
}

fn metrics() -> Vec<Box<dyn DistanceMetric>> {
    vec![
        Box::new(PcDistance::new()),
        Box::new(HammingDistance::new()),
        Box::new(JaccardDistance::new()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every packed set-count kernel equals the `BTreeSet` reference.
    #[test]
    fn packed_counts_match_set_reference(
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
        da in 0u64..=150,
        db in 0u64..=150,
        // 1, 4, and a non-multiple of the block size, to cross block seams.
        pages in prop_oneof![Just(PAGE), Just(4 * PAGE), Just(3 * PAGE + 1_000)],
    ) {
        let a = es_with(seed_a, da, pages);
        let b = es_with(seed_b, db, pages);
        let (pa, pb) = (a.to_packed(), b.to_packed());
        // Unpacking gives back exactly what was packed: the database stores
        // only the packed form and rebuilds positions from it.
        prop_assert_eq!(&ErrorString::from_packed(&pa), &a);
        prop_assert_eq!(&ErrorString::from_packed(&pb), &b);
        let (sa, sb) = (set(&a), set(&b));
        prop_assert_eq!(pa.intersect_count(&pb), sa.intersection(&sb).count() as u64);
        prop_assert_eq!(pa.difference_count(&pb), sa.difference(&sb).count() as u64);
        prop_assert_eq!(pa.union_count(&pb), sa.union(&sb).count() as u64);
        prop_assert_eq!(
            pa.symmetric_difference_count(&pb),
            sa.symmetric_difference(&sb).count() as u64
        );
        // And the single-merge scalar kernel agrees with its two-pass
        // predecessor (the Hamming numerator fix).
        prop_assert_eq!(
            a.symmetric_difference_count(&b),
            a.difference_count(&b) + b.difference_count(&a)
        );
    }

    /// All three metrics are bit-for-bit identical between the scalar path
    /// and packed batch scoring across the full density range.
    #[test]
    fn metrics_bit_for_bit_across_densities(
        seeds in proptest::collection::vec((any::<u64>(), 0u64..=150), 1..12),
        probe_seed in any::<u64>(),
        probe_density in 0u64..=150,
    ) {
        let entries: Vec<ErrorString> = seeds
            .iter()
            .map(|&(s, d)| es_with(s, d, PAGE))
            .collect();
        let probe = es_with(probe_seed, probe_density, PAGE);
        for m in &metrics() {
            let scalar: Vec<f64> = entries.iter().map(|e| m.distance(e, &probe)).collect();
            let batched = score_batch(&entries, &probe, m.as_ref());
            // Exact equality: same integer counts, same float operations.
            prop_assert_eq!(&batched, &scalar, "{} diverged", m.name());
        }
    }

    /// Equal-weight pairs: footnote 2's "lower-weight side is the
    /// fingerprint" rule ties exactly, and both paths resolve the tie the
    /// same way (the counts are symmetric, so either choice is the same
    /// number — proven here, not assumed).
    #[test]
    fn equal_weight_ties_are_bit_for_bit(seed_a in any::<u64>(), seed_b in any::<u64>()) {
        let a = es_with(seed_a, 40, PAGE);
        let mut bits = es_with(seed_b, 60, PAGE).positions().to_vec();
        bits.truncate(a.weight() as usize);
        let b = ErrorString::from_unsorted(bits, PAGE).expect("in-range");
        prop_assume!(a.weight() == b.weight());
        for m in &metrics() {
            let forward = m.distance(&a, &b);
            let backward = m.distance(&b, &a);
            prop_assert_eq!(forward, backward, "{} asymmetric on tie", m.name());
            prop_assert_eq!(score_batch(std::slice::from_ref(&a), &b, m.as_ref())[0], forward);
            prop_assert_eq!(distance_pairs(&[(&a, &b)], m.as_ref())[0], forward);
        }
    }

    /// Strings of different declared sizes still score identically on both
    /// paths (the metrics are functions of weights and intersections only).
    #[test]
    fn size_mismatches_score_identically(
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
        da in 0u64..=150,
        db in 0u64..=150,
    ) {
        let a = es_with(seed_a, da, PAGE);
        let b = es_with(seed_b, db, 2 * PAGE + 77);
        for m in &metrics() {
            prop_assert_eq!(
                score_batch(std::slice::from_ref(&a), &b, m.as_ref())[0],
                m.distance(&a, &b),
                "{} diverged on size mismatch",
                m.name()
            );
        }
    }

    /// Parallel batch scoring is a pure function of its inputs: the output
    /// is identical for every thread count.
    #[test]
    fn score_batch_independent_of_thread_count(
        seeds in proptest::collection::vec((any::<u64>(), 0u64..=150), 1..40),
        probe_seed in any::<u64>(),
    ) {
        let entries: Vec<ErrorString> = seeds
            .iter()
            .map(|&(s, d)| es_with(s, d, PAGE))
            .collect();
        let probe = es_with(probe_seed, 80, PAGE);
        for m in &metrics() {
            let one = score_batch_with(&entries, &probe, m.as_ref(), Parallelism::single());
            for threads in [2usize, 3, 5, 8] {
                let many =
                    score_batch_with(&entries, &probe, m.as_ref(), Parallelism::new(threads));
                prop_assert_eq!(&many, &one, "{} threads={}", m.name(), threads);
            }
        }
    }
}

#[test]
fn empty_strings_agree_on_both_paths() {
    let empty = ErrorString::empty(PAGE);
    let some = es_with(11, 30, PAGE);
    assert_eq!(ErrorString::from_packed(&empty.to_packed()), empty);
    for m in &metrics() {
        for (a, b) in [(&empty, &empty), (&empty, &some), (&some, &empty)] {
            assert_eq!(
                score_batch(std::slice::from_ref(a), b, m.as_ref())[0],
                m.distance(a, b),
                "{} diverged on empty input",
                m.name()
            );
        }
    }
}

#[test]
fn identify_batch_matches_identify_for_every_thread_count() {
    let mut db = FingerprintDb::new(PcDistance::new(), 0.3);
    for c in 0..50u64 {
        db.insert(
            format!("chip-{c:03}"),
            Fingerprint::from_observation(es_with(c + 1, 10, PAGE)),
        );
    }
    let probes: Vec<ErrorString> = (0..20u64)
        .map(|p| es_with(p % 7 + 1, if p % 3 == 0 { 10 } else { 120 }, PAGE))
        .collect();
    let reference: Vec<Option<(String, f64)>> = probes
        .iter()
        .map(|p| db.identify_with_distance(p).map(|(l, d)| (l.clone(), d)))
        .collect();
    for threads in [1usize, 2, 4, 8] {
        let got: Vec<Option<(String, f64)>> = db
            .identify_batch_with(&probes, Parallelism::new(threads))
            .into_iter()
            .map(|hit| hit.map(|(l, d)| (l.clone(), d)))
            .collect();
        assert_eq!(got, reference, "threads={threads}");
    }
}

#[test]
fn positions_past_the_packed_range_are_refused() {
    // A 2^48-bit string: its size may exceed MAX_BITS, its positions not.
    let size = 1 << 48;
    let max = ErrorString::MAX_BITS;
    assert_eq!(max, 1 << 47);
    for bad in [max, max + 1] {
        let refused = Err(BitStringError::Unaddressable { bit: bad });
        assert_eq!(ErrorString::from_sorted(vec![5, bad], size), refused);
        assert_eq!(ErrorString::from_unsorted(vec![bad, 5], size), refused);
    }
    // The last addressable position, in the last block, round-trips.
    let edge = ErrorString::from_sorted(vec![5, max - 1], size).unwrap();
    assert_eq!(ErrorString::from_packed(&edge.to_packed()), edge);
}

/// The paper's metric without its packed form, so a database using it
/// scores through the scalar fallback over unpacked entries.
struct UnpackedPc(PcDistance);

impl DistanceMetric for UnpackedPc {
    fn distance(&self, fingerprint: &ErrorString, error_string: &ErrorString) -> f64 {
        self.0.distance(fingerprint, error_string)
    }
    fn name(&self) -> &'static str {
        "pc-unpacked"
    }
}

#[test]
fn unpacked_fallback_scores_like_the_packed_path() {
    let size = 3 * PAGE + 1_000;
    let mut packed = FingerprintDb::new(PcDistance::new(), 0.3);
    let mut unpacked = FingerprintDb::new(UnpackedPc(PcDistance::new()), 0.3);
    for c in 0..40u64 {
        // Sparse to dense blocks, across block seams.
        let fp = Fingerprint::from_observation(es_with(c + 1, 10 + c * 3, size));
        packed.insert(c, fp.clone());
        unpacked.insert(c, fp);
    }
    let ids: Vec<usize> = (0..40).rev().collect();
    for p in 0..10u64 {
        let probe = es_with(p % 5 + 1, 10 + p * 14, size);
        assert_eq!(
            unpacked.identify_with_distance(&probe),
            packed.identify_with_distance(&probe)
        );
        assert_eq!(
            unpacked.closest_among(&ids, &probe),
            packed.closest_among(&ids, &probe)
        );
    }
}
