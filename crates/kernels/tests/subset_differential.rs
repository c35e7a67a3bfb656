//! Differential tests for subset scoring: `score_subset` must agree
//! bit-for-bit with per-pair [`pc_kernels::distance_packed`] for every
//! metric, at every thread count, on the id shapes LSH-pruned
//! identification actually produces — empty candidate lists, duplicated
//! ids, and lengths that straddle `map_chunked`'s adaptive chunk
//! boundaries.

use pc_kernels::{distance_packed, score_subset, MetricKind, PackedErrors, Parallelism};
use proptest::prelude::*;

const SIZE: u64 = 1 << 16; // two packed blocks
const KINDS: [MetricKind; 3] = [
    MetricKind::PcJaccard,
    MetricKind::Hamming,
    MetricKind::Jaccard,
];
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Packs an arbitrary (unsorted, possibly duplicated) position list.
fn packed(bits: &[u64]) -> PackedErrors {
    let mut bits: Vec<u64> = bits.iter().map(|b| b % SIZE).collect();
    bits.sort_unstable();
    bits.dedup();
    PackedErrors::from_positions(&bits, SIZE)
}

/// A deterministic entry for boundary-length tests: weight and placement
/// vary with `c` so distances are nondegenerate.
fn entry(c: u64) -> PackedErrors {
    let bits: Vec<u64> = (0..(c % 37 + 3))
        .map(|i| (c * 977 + i * 131) % SIZE)
        .collect();
    packed(&bits)
}

/// `score_subset` vs a per-id `distance_packed` loop, all metrics, all
/// thread counts. `f64` equality is exact: both paths must run the same
/// integer counts through the same formula.
fn assert_subset_matches(entries: &[PackedErrors], ids: &[usize], probe: &PackedErrors) {
    for kind in KINDS {
        let reference: Vec<f64> = ids
            .iter()
            .map(|&i| distance_packed(&entries[i], probe, kind))
            .collect();
        for threads in THREADS {
            let got = score_subset(entries, ids, probe, kind, Parallelism::new(threads));
            assert_eq!(got, reference, "kind={kind:?} threads={threads}");
        }
    }
}

proptest! {
    #[test]
    fn subset_matches_pairwise_distance(
        entry_bits in proptest::collection::vec(proptest::collection::vec(any::<u64>(), 0..50), 1..20),
        raw_ids in proptest::collection::vec(any::<usize>(), 0..64),
        probe_bits in proptest::collection::vec(any::<u64>(), 0..50),
    ) {
        let entries: Vec<PackedErrors> = entry_bits.iter().map(|b| packed(b)).collect();
        let ids: Vec<usize> = raw_ids.iter().map(|i| i % entries.len()).collect();
        let probe = packed(&probe_bits);
        assert_subset_matches(&entries, &ids, &probe);
    }
}

#[test]
fn empty_ids_yield_empty_output_at_every_thread_count() {
    let entries = vec![entry(1), entry(2)];
    let probe = entry(3);
    for kind in KINDS {
        for threads in THREADS {
            let got = score_subset(&entries, &[], &probe, kind, Parallelism::new(threads));
            assert!(got.is_empty(), "kind={kind:?} threads={threads}");
        }
    }
}

#[test]
fn duplicate_ids_score_independently() {
    let entries: Vec<PackedErrors> = (0..8).map(entry).collect();
    let probe = entry(100);
    // Every id repeated, plus a solid run of one id — each occurrence must
    // produce the same value as a standalone comparison.
    let ids: Vec<usize> = [3usize, 3, 3, 3, 0, 7, 7, 1, 3, 5, 5, 5, 5, 5, 2].to_vec();
    assert_subset_matches(&entries, &ids, &probe);
}

#[test]
fn lengths_straddling_chunk_boundaries_match() {
    let entries: Vec<PackedErrors> = (0..520).map(entry).collect();
    let probe = entry(999);
    // chunk_size_for clamps to 16 at these lengths, so chunk edges fall on
    // multiples of 16; exercise one below, on, and above each edge, plus
    // lengths around the full fleet.
    for len in [
        1usize, 15, 16, 17, 31, 32, 33, 63, 64, 65, 255, 256, 257, 511, 512, 513, 519,
    ] {
        let ids: Vec<usize> = (0..len).map(|k| (k * 7) % entries.len()).collect();
        assert_subset_matches(&entries, &ids, &probe);
    }
}
