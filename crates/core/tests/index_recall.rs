//! Recall differential for the identify index: the one-permutation
//! [`LshIndex`] against the 16 × 4 MinHash family it replaced, computed
//! from [`MinHasher::band_keys`], on the same enrolled sets and the same
//! probes.
//!
//! Each shape enrolls seeded random sets and probes every one of them at
//! several PC distances below the service's 0.25 threshold: `drop` of the
//! enrolled bits go missing and `add` fresh bits appear, as a noisy
//! re-observation does. The shapes are the serving one (312 stable bits on
//! 32 768-bit pages, where e2ebench's re-observations drop 16 bits and add
//! 16, distance ≈ 0.05) and the 40-bit and 4-bit sets the unit tests and
//! the CI smoke enroll. A 4-bit set has no distance below the threshold
//! but 0, so its probes only add bits.

use probable_cause::{DistanceMetric, ErrorString, LshIndex, MinHasher, PcDistance};
use std::collections::BTreeSet;

const BANDS: usize = 16;
const ROWS: usize = 4;
const SEED: u64 = 0x5eed;
const THRESHOLD: f64 = 0.25;

/// A deterministic SplitMix64 stream, so the corpus does not depend on the
/// code under test.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

struct Shape {
    name: &'static str,
    weight: usize,
    page: u64,
    chips: usize,
    /// `(drop, add)` per probe case.
    probes: &'static [(usize, usize)],
}

const SHAPES: [Shape; 3] = [
    Shape {
        name: "312-bit",
        weight: 312,
        page: 32_768,
        chips: 300,
        probes: &[(0, 16), (16, 16), (31, 31), (47, 47), (62, 62), (74, 74)],
    },
    Shape {
        name: "40-bit",
        weight: 40,
        page: 4096,
        chips: 600,
        probes: &[(0, 1), (2, 2), (4, 4), (6, 6), (8, 8), (9, 9)],
    },
    Shape {
        name: "4-bit",
        weight: 4,
        page: 4096,
        chips: 600,
        probes: &[(0, 1), (0, 2), (0, 4)],
    },
];

/// `weight` distinct positions on a `page`-bit page.
fn random_set(rng: &mut Stream, weight: usize, page: u64) -> BTreeSet<u64> {
    let mut bits = BTreeSet::new();
    while bits.len() < weight {
        bits.insert(rng.next() % page);
    }
    bits
}

/// `enrolled` without `drop` of its bits and with `add` bits it lacks.
fn probe(
    rng: &mut Stream,
    enrolled: &BTreeSet<u64>,
    drop: usize,
    add: usize,
    page: u64,
) -> ErrorString {
    let mut kept: Vec<u64> = enrolled.iter().copied().collect();
    for _ in 0..drop {
        let at = (rng.next() % kept.len() as u64) as usize;
        kept.swap_remove(at);
    }
    let mut bits: BTreeSet<u64> = kept.into_iter().collect();
    let target = bits.len() + add;
    while bits.len() < target {
        let bit = rng.next() % page;
        if !enrolled.contains(&bit) {
            bits.insert(bit);
        }
    }
    ErrorString::from_sorted(bits.into_iter().collect(), page).expect("sorted in-range")
}

fn es(bits: &BTreeSet<u64>, page: u64) -> ErrorString {
    ErrorString::from_sorted(bits.iter().copied().collect(), page).expect("sorted in-range")
}

/// Recall of both families on one shape's probe case.
struct Outcome {
    pairs: usize,
    minhash: usize,
    oph: usize,
}

fn measure(shape: &Shape, case: usize) -> Outcome {
    let (drop, add) = shape.probes[case];
    let mut rng = Stream(0x1de5 ^ (shape.weight as u64) << 20 ^ case as u64);
    let enrolled: Vec<BTreeSet<u64>> = (0..shape.chips)
        .map(|_| random_set(&mut rng, shape.weight, shape.page))
        .collect();
    let mut index = LshIndex::new(BANDS, ROWS, SEED);
    for (id, set) in enrolled.iter().enumerate() {
        index.insert(id as u32, &es(set, shape.page));
    }
    let minhash = MinHasher::new(BANDS, ROWS, SEED);
    let keys = |e: &ErrorString| minhash.band_keys(&minhash.signature(e));
    let mut out = Outcome {
        pairs: shape.chips,
        minhash: 0,
        oph: 0,
    };
    for (id, set) in enrolled.iter().enumerate() {
        let fp = es(set, shape.page);
        let p = probe(&mut rng, set, drop, add, shape.page);
        let d = PcDistance::new().distance(&fp, &p);
        assert!(d < THRESHOLD, "{}: probe at distance {d}", shape.name);
        let (enrolled_keys, probe_keys) = (keys(&fp), keys(&p));
        if probe_keys.iter().any(|k| enrolled_keys.contains(k)) {
            out.minhash += 1;
        }
        if index.candidates(&p).contains(&(id as u32)) {
            out.oph += 1;
        }
    }
    out
}

#[test]
fn one_permutation_recall_matches_the_minhash_family() {
    for shape in &SHAPES {
        for case in 0..shape.probes.len() {
            let (drop, add) = shape.probes[case];
            let o = measure(shape, case);
            let n = o.pairs as f64;
            let (old, new) = (o.minhash as f64 / n, o.oph as f64 / n);
            eprintln!(
                "{} drop {drop} add {add}: MinHash {}/{}, OPH {}/{}",
                shape.name, o.minhash, o.pairs, o.oph, o.pairs
            );
            // Three standard errors of the difference of two binomial
            // proportions at their pooled rate, plus one pair each side.
            let pooled = (old + new) / 2.0;
            let noise = 3.0 * (2.0 * pooled * (1.0 - pooled) / n).sqrt() + 2.0 / n;
            assert!(
                new >= old - noise,
                "{} drop {drop} add {add}: OPH recall {new} below MinHash {old} by more than {noise}",
                shape.name
            );
        }
    }
}

#[test]
fn every_serving_reobservation_finds_its_chip() {
    // e2ebench's re-observation: 16 of 312 stable bits missing, 16 fresh.
    let shape = &SHAPES[0];
    let case = shape
        .probes
        .iter()
        .position(|&p| p == (16, 16))
        .expect("the serving case is listed");
    let o = measure(shape, case);
    assert_eq!(o.oph, o.pairs, "a serving re-observation missed its chip");
}
