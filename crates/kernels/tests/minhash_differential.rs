//! Differential tests for the MinHash lane-minimum kernel: every tier this
//! machine supports must leave `sig` bit-for-bit equal to the scalar tier,
//! and the scalar tier must equal the definition
//! `sig[l] = min(sig[l], min_h mix64(seeds[l] ^ h))`. Lane counts straddle
//! the 8-lane chunk of the SIMD body (tails of 1–7 lanes), sets run from
//! empty to 1 000 positions anywhere below 2^40, and signatures start either
//! fresh or pre-filled, so the min-accumulate semantics are exercised in
//! both directions. A tier the host lacks is reported on stderr and
//! skipped.

use pc_kernels::mix64;
use pc_kernels::simd::{minhash_min, minhash_min_on, MinHashTier};
use proptest::collection::vec;
use proptest::prelude::*;

/// Lane counts: below, at and past the 8-lane chunk, the 16 × 4 shape the
/// service signs with, and 72, whose last chunk is a tail.
const LANES: [usize; 7] = [1, 4, 15, 16, 64, 72, 128];

/// The position pre-hash `MinHasher::signature` applies before the kernel.
fn prehash(position: u64) -> u64 {
    mix64(position ^ 0x706A_6765_6269_7473)
}

/// The kernel's definition, independent of any tier's loop order.
fn definition(seeds: &[u64], hashes: &[u64], start: &[u64]) -> Vec<u64> {
    seeds
        .iter()
        .zip(start)
        .map(|(&seed, &init)| hashes.iter().map(|&h| mix64(seed ^ h)).fold(init, u64::min))
        .collect()
}

/// Runs every supported tier from `start` and checks it against the scalar
/// tier, and the scalar tier against [`definition`].
fn assert_tiers_agree(seeds: &[u64], hashes: &[u64], start: &[u64]) {
    let mut scalar = start.to_vec();
    assert!(minhash_min_on(
        MinHashTier::Scalar,
        seeds,
        hashes,
        &mut scalar
    ));
    assert_eq!(scalar, definition(seeds, hashes, start), "scalar tier");
    for tier in MinHashTier::ALL {
        let mut got = start.to_vec();
        if minhash_min_on(tier, seeds, hashes, &mut got) {
            assert_eq!(
                got,
                scalar,
                "{tier:?}: {} lanes, {} hashes",
                seeds.len(),
                hashes.len()
            );
        } else {
            assert_eq!(got, start, "{tier:?} unsupported but wrote lanes");
        }
    }
    let mut dispatched = start.to_vec();
    minhash_min(seeds, hashes, &mut dispatched);
    assert_eq!(dispatched, scalar, "dispatch ({:?})", MinHashTier::best());
}

fn family(seed: u64, lanes: usize) -> Vec<u64> {
    (0..lanes as u64).map(|l| mix64(seed ^ mix64(l))).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_tier_matches_scalar(
        lanes in 0..LANES.len(),
        seed in any::<u64>(),
        positions in vec(0u64..1 << 40, 0..=1_000),
        prefilled in any::<bool>(),
        shift in 0u32..64,
    ) {
        let seeds = family(seed, LANES[lanes]);
        let hashes: Vec<u64> = positions.iter().map(|&p| prehash(p)).collect();
        // A pre-filled lane `>> shift` is large for small shifts (the set's
        // minimum replaces it) and tiny for large ones (it survives).
        let start: Vec<u64> = if prefilled {
            (0..seeds.len() as u64).map(|l| mix64(seed ^ !l) >> shift).collect()
        } else {
            vec![u64::MAX; seeds.len()]
        };
        assert_tiers_agree(&seeds, &hashes, &start);
    }
}

#[test]
fn every_lane_count_and_weight_boundary_matches_scalar() {
    for lanes in LANES {
        let seeds = family(0x5eed, lanes);
        for weight in [0usize, 1, 7, 8, 9, 328, 1_000] {
            let hashes: Vec<u64> = (0..weight as u64).map(|p| prehash(p << 24)).collect();
            assert_tiers_agree(&seeds, &hashes, &vec![u64::MAX; lanes]);
        }
    }
}

#[test]
fn empty_set_signs_all_max_on_every_tier() {
    for lanes in LANES {
        let seeds = family(7, lanes);
        for tier in MinHashTier::ALL {
            let mut sig = vec![u64::MAX; lanes];
            if minhash_min_on(tier, &seeds, &[], &mut sig) {
                assert!(sig.iter().all(|&v| v == u64::MAX), "{tier:?} {lanes}");
            }
        }
    }
}

#[test]
fn signing_in_pieces_equals_signing_at_once() {
    let seeds = family(11, 64);
    let hashes: Vec<u64> = (0..328u64).map(|p| prehash(p * 97)).collect();
    for tier in MinHashTier::ALL {
        let mut whole = vec![u64::MAX; 64];
        let mut pieces = vec![u64::MAX; 64];
        if minhash_min_on(tier, &seeds, &hashes, &mut whole) {
            for chunk in hashes.chunks(37) {
                assert!(minhash_min_on(tier, &seeds, chunk, &mut pieces));
            }
            assert_eq!(pieces, whole, "{tier:?}");
        }
    }
}

#[test]
fn tiers_the_host_lacks_are_reported_and_skipped() {
    assert!(MinHashTier::Scalar.supported());
    assert!(MinHashTier::best().supported());
    for tier in MinHashTier::ALL {
        if !tier.supported() {
            eprintln!(
                "skip: MinHash tier {} is not supported on this host",
                tier.name()
            );
        }
    }
}

#[test]
#[should_panic(expected = "one seed per signature lane")]
fn mismatched_lengths_are_rejected() {
    minhash_min(&[1, 2, 3], &[4], &mut [u64::MAX; 2]);
}
