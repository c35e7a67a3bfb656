//! Property-based tests (proptest) on the core data structures and
//! invariants, checked against brute-force reference implementations.

use probable_cause_repro::prelude::*;
use proptest::collection::btree_set;
use proptest::prelude::*;
use std::collections::BTreeSet;

const SIZE: u64 = 4_096;

fn bits() -> impl Strategy<Value = BTreeSet<u64>> {
    btree_set(0..SIZE, 0..200)
}

fn es(set: &BTreeSet<u64>) -> ErrorString {
    ErrorString::from_sorted(set.iter().copied().collect(), SIZE).expect("sorted in-range")
}

proptest! {
    #[test]
    fn intersect_matches_set_semantics(a in bits(), b in bits()) {
        let want: Vec<u64> = a.intersection(&b).copied().collect();
        let got = es(&a).intersect(&es(&b)).expect("sizes match");
        prop_assert_eq!(got.positions(), &want[..]);
    }

    #[test]
    fn union_matches_set_semantics(a in bits(), b in bits()) {
        let want: Vec<u64> = a.union(&b).copied().collect();
        let got = es(&a).union(&es(&b)).expect("sizes match");
        prop_assert_eq!(got.positions(), &want[..]);
    }

    #[test]
    fn difference_count_matches_set_semantics(a in bits(), b in bits()) {
        let want = a.difference(&b).count() as u64;
        prop_assert_eq!(es(&a).difference_count(&es(&b)), want);
    }

    #[test]
    fn inclusion_exclusion(a in bits(), b in bits()) {
        let ea = es(&a);
        let eb = es(&b);
        let u = ea.union(&eb).expect("ok").weight();
        let i = ea.intersect(&eb).expect("ok").weight();
        prop_assert_eq!(u + i, ea.weight() + eb.weight());
    }

    #[test]
    fn xor_roundtrip(data in proptest::collection::vec(any::<u8>(), 1..128),
                     flips in btree_set(0u64..1024, 0..32)) {
        // Flip a known set of in-range bits; from_xor must recover exactly it.
        let size = data.len() as u64 * 8;
        let flips: BTreeSet<u64> = flips.into_iter().filter(|&b| b < size).collect();
        let mut approx = data.clone();
        for &b in &flips {
            approx[(b / 8) as usize] ^= 1 << (b % 8);
        }
        let got = ErrorString::from_xor(&approx, &data);
        let want: Vec<u64> = flips.iter().copied().collect();
        prop_assert_eq!(got.positions(), &want[..]);
    }

    #[test]
    fn distances_are_bounded_and_reflexive(a in bits(), b in bits()) {
        let metrics: Vec<Box<dyn DistanceMetric>> = vec![
            Box::new(PcDistance::new()),
            Box::new(HammingDistance::new()),
            Box::new(JaccardDistance::new()),
        ];
        let ea = es(&a);
        let eb = es(&b);
        for m in &metrics {
            let d = m.distance(&ea, &eb);
            prop_assert!((0.0..=1.0).contains(&d), "{} out of range: {}", m.name(), d);
            prop_assert!(m.distance(&ea, &ea) <= 1e-12, "{} not reflexive", m.name());
        }
    }

    #[test]
    fn pc_distance_zero_iff_subset(a in bits(), b in bits()) {
        // With the footnote-2 swap, distance 0 <=> smaller set ⊆ larger set.
        let ea = es(&a);
        let eb = es(&b);
        let d = PcDistance::new().distance(&ea, &eb);
        let (small, big) = if a.len() <= b.len() { (&a, &b) } else { (&b, &a) };
        prop_assert_eq!(d == 0.0, small.is_subset(big));
    }

    #[test]
    fn characterize_is_order_invariant(sets in proptest::collection::vec(bits(), 1..6)) {
        let obs: Vec<ErrorString> = sets.iter().map(es).collect();
        let mut rev = obs.clone();
        rev.reverse();
        let fwd = characterize(&obs).expect("non-empty");
        let bwd = characterize(&rev).expect("non-empty");
        prop_assert_eq!(fwd.errors(), bwd.errors());
        // And equals the brute-force intersection of all sets.
        let mut want = sets[0].clone();
        for s in &sets[1..] {
            want = want.intersection(s).copied().collect();
        }
        let want: Vec<u64> = want.into_iter().collect();
        prop_assert_eq!(fwd.errors().positions(), &want[..]);
    }

    #[test]
    fn cluster_assignments_cover_all_inputs(sets in proptest::collection::vec(bits(), 0..10)) {
        let obs: Vec<ErrorString> = sets.iter().map(es).collect();
        let c = cluster(&obs, &PcDistance::new(), 0.3);
        prop_assert_eq!(c.assignments().len(), obs.len());
        for &a in c.assignments() {
            prop_assert!(a < c.len().max(1));
        }
        prop_assert!(c.len() <= obs.len());
    }

    #[test]
    fn noise_defense_is_involution_free_but_bounded(a in bits(), rate in 0.0f64..0.2) {
        let ea = es(&a);
        let noisy = defense::apply_random_flips(&ea, rate, 7);
        prop_assert_eq!(noisy.size(), ea.size());
        // Weight can grow by at most the flip count and shrink by at most
        // the original weight.
        let flips = (rate * SIZE as f64).round() as u64;
        prop_assert!(noisy.weight() <= ea.weight() + flips);
    }

    #[test]
    fn slice_preserves_membership(a in bits(), lo in 0u64..SIZE - 1) {
        let hi = SIZE.min(lo + 512);
        let ea = es(&a);
        let sl = ea.slice(lo, hi);
        let want: Vec<u64> = a.iter().filter(|&&b| b >= lo && b < hi).map(|b| b - lo).collect();
        prop_assert_eq!(sl.positions(), &want[..]);
        prop_assert_eq!(sl.size(), hi - lo);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn quantile_memory_subset_property_holds_for_any_rates(
        seed in 0u64..1000,
        p1 in 0.001f64..0.05,
        dp in 0.001f64..0.05,
        trial in 0u64..4,
    ) {
        let q = QuantileMemory::new(seed);
        let lo = q.page_errors(3, p1, trial);
        let hi = q.page_errors(3, p1 + dp, trial);
        prop_assert!(lo.iter().all(|b| hi.binary_search(b).is_ok()));
    }
}
