//! Crate-level property tests for probable-cause: persistence round-trips,
//! LSH banding guarantees, and stitcher attribution consistency.

use probable_cause::persistence::{load_db, save_db};
use probable_cause::{
    ErrorString, Fingerprint, FingerprintDb, LshIndex, PcDistance, ReferenceStitcher, StitchConfig,
    Stitcher,
};
use proptest::collection::btree_set;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::io::Cursor;

const SIZE: u64 = 8_192;

fn bits() -> impl Strategy<Value = BTreeSet<u64>> {
    btree_set(0..SIZE, 0..120)
}

fn es(set: &BTreeSet<u64>) -> ErrorString {
    ErrorString::from_sorted(set.iter().copied().collect(), SIZE).expect("sorted in-range")
}

fn label() -> impl Strategy<Value = String> {
    // Printable-ish labels including the characters the escaper must handle.
    proptest::collection::vec(
        prop_oneof![
            proptest::char::range('a', 'z'),
            Just(' '),
            Just('%'),
            Just('\n'),
            Just('-'),
        ],
        1..20,
    )
    .prop_map(|cs| cs.into_iter().collect())
}

proptest! {
    #[test]
    fn persistence_roundtrips_any_database(
        entries in proptest::collection::vec((label(), bits(), 1u32..9), 0..8),
        threshold in 0.01f64..1.0,
    ) {
        let mut db = FingerprintDb::new(PcDistance::new(), threshold);
        for (l, b, o) in &entries {
            db.insert(l.clone(), Fingerprint::from_parts(es(b), *o));
        }
        let mut buf = Vec::new();
        save_db(&db, &mut buf).expect("in-memory write");
        let loaded = load_db(Cursor::new(buf)).expect("roundtrip parses");
        prop_assert_eq!(loaded.len(), db.len());
        prop_assert!((loaded.threshold() - db.threshold()).abs() < 1e-12);
        for ((la, fa), (lb, fb)) in loaded.iter().zip(db.iter()) {
            prop_assert_eq!(la, lb);
            prop_assert_eq!(fa, fb);
        }
        // Both sides above are unpacked from the stored form, so also check
        // that the database gives back what was inserted.
        for ((l, fp), (label, b, o)) in db.iter().zip(&entries) {
            prop_assert_eq!(l, label);
            prop_assert_eq!(fp, Fingerprint::from_parts(es(b), *o));
        }
    }

    #[test]
    fn identical_sets_always_collide_in_every_band(a in bits(), seed in any::<u64>()) {
        prop_assume!(!a.is_empty());
        let mut index = LshIndex::new(6, 3, seed);
        index.insert(0, &es(&a));
        prop_assert_eq!(index.candidates(&es(&a)), vec![0]);
    }

    #[test]
    fn attribute_agrees_with_observe_side_effect_free(
        starts in proptest::collection::vec(0u64..60, 1..8),
    ) {
        // Build a stitched view of one synthetic chip, then check attribute()
        // answers and leaves the state untouched.
        let page = |p: u64| {
            let h = pc_stats::CellHasher::new(7_777 + p);
            ErrorString::from_unsorted((0..40).map(|i| h.word(i) % SIZE).collect(), SIZE)
                .expect("in-range")
        };
        let mut st = Stitcher::new(SIZE, StitchConfig::default());
        for &s in &starts {
            let out: Vec<ErrorString> = (s..s + 4).map(page).collect();
            st.observe(&out);
        }
        let before_clusters = st.suspected_chips();
        let before_pages = st.total_pages();
        // An output overlapping the first observed run must attribute.
        let probe: Vec<ErrorString> = (starts[0]..starts[0] + 4).map(page).collect();
        prop_assert!(st.attribute(&probe).is_some());
        // A far-away fresh region must not.
        let stranger: Vec<ErrorString> = (1_000..1_004).map(page).collect();
        prop_assert!(st.attribute(&stranger).is_none());
        prop_assert_eq!(st.suspected_chips(), before_clusters);
        prop_assert_eq!(st.total_pages(), before_pages);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn lsh_stitcher_matches_reference_on_random_scenarios(
        seed in 0u64..1_000,
        samples in proptest::collection::vec((0u64..2, 0u64..80, 2u64..6), 1..16),
    ) {
        let page = |chip: u64, p: u64| {
            let h = pc_stats::CellHasher::new(seed * 31 + chip * 1_000_003 + p);
            ErrorString::from_unsorted((0..40).map(|i| h.word(i) % SIZE).collect(), SIZE)
                .expect("in-range")
        };
        let mut fast = Stitcher::new(SIZE, StitchConfig::default());
        let mut slow = ReferenceStitcher::new(SIZE, StitchConfig::default());
        for &(chip, start, len) in &samples {
            let out: Vec<ErrorString> = (start..start + len).map(|p| page(chip, p)).collect();
            fast.observe(&out);
            slow.observe(&out);
            prop_assert_eq!(fast.suspected_chips(), slow.suspected_chips());
            prop_assert_eq!(fast.total_pages(), slow.total_pages());
        }
    }
}
