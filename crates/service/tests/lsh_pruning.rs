//! The pruning acceptance check on the path `pc serve` runs, alone in its
//! own process so the global telemetry counters it asserts on are not
//! polluted by other tests: against a 1000-chip database, a store routing
//! identifies through its LSH index must pay at least 5× fewer full
//! distance evaluations than the linear scan while returning identical
//! results.

use pc_service::store::{ShardedStore, StoreConfig};
use probable_cause::{ErrorString, Fingerprint, FingerprintDb, PcDistance};

const SIZE: u64 = 65_536;
const CHIPS: u64 = 1_000;
const PROBES: u64 = 50;

fn es(bits: Vec<u64>) -> ErrorString {
    ErrorString::from_sorted(bits, SIZE).unwrap()
}

fn chip_bits(c: u64) -> Vec<u64> {
    (0..40).map(|i| c * 40 + i).collect()
}

/// A noisy output of chip `c`: one fingerprint bit decayed away, one fresh
/// error elsewhere (Jaccard similarity ≈ 0.95 to the stored fingerprint).
fn probe_of(c: u64) -> ErrorString {
    let mut bits = chip_bits(c);
    bits.pop();
    bits.push(50_000 + c * 7);
    bits.sort_unstable();
    es(bits)
}

#[test]
fn routed_identify_prunes_at_least_5x_with_identical_results() {
    let collector = pc_telemetry::install();

    let mut db = FingerprintDb::new(PcDistance::new(), 0.3);
    for c in 0..CHIPS {
        db.insert(
            format!("chip-{c:04}"),
            Fingerprint::from_observation(es(chip_bits(c))),
        );
    }
    // No index: the store signs one at open with the serving banding, as a
    // server given none does.
    let store = ShardedStore::open(StoreConfig::default(), db.clone(), None);

    let at = |name: &str| {
        collector
            .counters_snapshot()
            .get(name)
            .copied()
            .unwrap_or(0)
    };
    let linear_before = at("core.db.identify.comparisons");
    let routed_before = store.distance_evals();

    for c in 0..PROBES {
        let probe = probe_of(c);
        let linear = db
            .identify_with_distance(&probe)
            .map(|(l, d)| (l.clone(), d));
        let routed = store.identify(&probe).unwrap().ok();
        assert_eq!(
            linear, routed,
            "probe {c}: pruning must not change the answer"
        );
        assert_eq!(
            linear.map(|(l, _)| l),
            Some(format!("chip-{c:04}")),
            "probe {c} must identify its chip"
        );
    }

    let linear_evals = at("core.db.identify.comparisons") - linear_before;
    let routed_evals = store.distance_evals() - routed_before;
    assert_eq!(
        linear_evals,
        CHIPS * PROBES,
        "the linear scan pays one distance per stored chip"
    );
    assert!(routed_evals > 0, "the index must shortlist the true chip");
    assert!(
        linear_evals >= 5 * routed_evals,
        "routed identify must pay >=5x fewer distance evaluations: \
         linear {linear_evals} vs routed {routed_evals}"
    );
}
