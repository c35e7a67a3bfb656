//! Recall differential for the workspace's one LSH family: one-permutation
//! hashing ([`LshIndex`]) against the MinHash family it replaced, on the
//! same enrolled sets and the same probes, at the identify index's banding
//! and at both of the stitcher's.
//!
//! MinHash is written out below as a reference of its definition, and
//! `BAND_KEYS` pins that reference, so the baseline stays the family the
//! index was held to before. The stitcher signs its pages with the same
//! one-permutation hash as [`LshIndex`], at its own [`StitchConfig`]
//! banding and seed, so an index built with those parameters files the
//! stitcher's keys.
//!
//! The identify shapes (16 × 4) enroll seeded random sets and probe every
//! one of them at several PC distances below the service's 0.25 threshold:
//! `drop` of the enrolled bits go missing and `add` fresh bits appear, as a
//! noisy re-observation does. The shapes are the serving one (312 stable
//! bits on 32 768-bit pages, where e2ebench's re-observations drop 16 bits
//! and add 16, distance ≈ 0.05) and the 40-bit and 4-bit sets the unit
//! tests and the CI smoke enroll. A 4-bit set has no distance below the
//! threshold but 0, so its probes only add bits.
//!
//! The stitcher shapes are [`StitchConfig::default`] (8 × 2) on 4 096-bit
//! pages of 40, 12 and 8 bits with a few bits swapped, below its 0.35
//! threshold, and [`StitchConfig::data_dependent`] (16 × 1) on two
//! observations of one 40- or 60-bit page, each keeping each of its bits
//! with probability 1/2 (Jaccard ≈ 1/3, as under independent payloads).
//!
//! Every case also prints how often a probe collides with an unrelated
//! enrolled set.

use probable_cause::{DistanceMetric, ErrorString, LshIndex, PcDistance, StitchConfig};
use std::collections::BTreeSet;

/// The identify index's banding and seed (`pc-service`'s defaults).
const IDENTIFY: Banding = Banding {
    bands: 16,
    rows: 4,
    seed: 0x5eed,
};
const THRESHOLD: f64 = 0.25;

/// MinHash band keys at 16 × 4 and seed `0x5eed` of the 328-bit page
/// `Stream(0x601d)` draws on a 32 768-bit page.
#[rustfmt::skip]
const BAND_KEYS: [u64; 16] = [
    0x7e00a545a610d5b6, 0x0390f0738060cc84, 0x21754271adb1595e, 0xad93433d96ad7032,
    0x30f7a3ae1d0a4bb2, 0x46d1c9703a02a6e7, 0x013c5018f6e35138, 0x9533d73344de1061,
    0xc927a4f71f3bc998, 0xfcc9e52f51257766, 0xa99918e64d723623, 0x1db08561da07087d,
    0x6550fddb29c31d0b, 0x0c16c04a343c1b07, 0x87d5f991afc8284d, 0xf7224452b538e440,
];

/// One SplitMix64 step (add the golden gamma, then the finalizer), written
/// out so the corpus and the reference do not depend on the code under
/// test.
fn mix(z: u64) -> u64 {
    let mut z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic SplitMix64 stream.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        let out = mix(self.0);
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        out
    }
}

#[derive(Clone, Copy)]
struct Banding {
    bands: usize,
    rows: usize,
    seed: u64,
}

impl Banding {
    fn of(config: &StitchConfig) -> Self {
        Self {
            bands: config.bands,
            rows: config.rows_per_band,
            seed: config.seed,
        }
    }
}

/// The MinHash band keys by definition: lane `i` of `bands × rows` is
/// seeded `mix(seed ^ mix(i ^ 0x4D49_4E48_4153_4821))`, each error bit `p`
/// pre-hashes to `mix(p ^ 0x706A_6765_6269_7473)`, a lane keeps the least
/// `mix(lane seed ^ pre-hash)` (`u64::MAX` for the empty set), and band `b`
/// folds its rows into `mix(b ^ 0xB0A6_D5E3_1F2C_4B87)` one
/// `mix(acc ^ lane)` at a time, as the one-permutation keys fold.
fn minhash_band_keys(errors: &ErrorString, banding: Banding) -> Vec<u64> {
    let Banding { bands, rows, seed } = banding;
    let hashes: Vec<u64> = errors
        .positions()
        .iter()
        .map(|&p| mix(p ^ 0x706A_6765_6269_7473))
        .collect();
    let sig: Vec<u64> = (0..(bands * rows) as u64)
        .map(|i| {
            let lane = mix(seed ^ mix(i ^ 0x4D49_4E48_4153_4821));
            hashes
                .iter()
                .map(|&h| mix(lane ^ h))
                .fold(u64::MAX, u64::min)
        })
        .collect();
    (0..bands)
        .map(|b| {
            (0..rows).fold(mix(b as u64 ^ 0xB0A6_D5E3_1F2C_4B87), |acc, r| {
                mix(acc ^ sig[b * rows + r])
            })
        })
        .collect()
}

/// How a shape draws each enrolled set's probe.
enum Probes {
    /// Noisy re-observations below `threshold`, one case per `(drop, add)`:
    /// `drop` of the enrolled bits go missing and `add` fresh bits appear.
    Noisy {
        threshold: f64,
        cases: &'static [(usize, usize)],
    },
    /// One case: the enrolled set and its probe are two observations of
    /// one page, each keeping each of the page's bits with probability 1/2.
    Halves,
}

struct Shape {
    name: &'static str,
    weight: usize,
    page: u64,
    chips: usize,
    banding: Banding,
    probes: Probes,
}

impl Shape {
    fn cases(&self) -> usize {
        match self.probes {
            Probes::Noisy { cases, .. } => cases.len(),
            Probes::Halves => 1,
        }
    }

    fn case_name(&self, case: usize) -> String {
        match self.probes {
            Probes::Noisy { cases, .. } => {
                let (drop, add) = cases[case];
                format!("{} drop {drop} add {add}", self.name)
            }
            Probes::Halves => format!("{} halves", self.name),
        }
    }
}

fn shapes() -> Vec<Shape> {
    let stitch = StitchConfig::default();
    let data = StitchConfig::data_dependent();
    let noisy = |cases| Probes::Noisy {
        threshold: stitch.distance_threshold,
        cases,
    };
    vec![
        Shape {
            name: "312-bit",
            weight: 312,
            page: 32_768,
            chips: 300,
            banding: IDENTIFY,
            probes: Probes::Noisy {
                threshold: THRESHOLD,
                cases: &[(0, 16), (16, 16), (31, 31), (47, 47), (62, 62), (74, 74)],
            },
        },
        Shape {
            name: "40-bit",
            weight: 40,
            page: 4096,
            chips: 600,
            banding: IDENTIFY,
            probes: Probes::Noisy {
                threshold: THRESHOLD,
                cases: &[(0, 1), (2, 2), (4, 4), (6, 6), (8, 8), (9, 9)],
            },
        },
        Shape {
            name: "4-bit",
            weight: 4,
            page: 4096,
            chips: 600,
            banding: IDENTIFY,
            probes: Probes::Noisy {
                threshold: THRESHOLD,
                cases: &[(0, 1), (0, 2), (0, 4)],
            },
        },
        Shape {
            name: "stitch 8x2 40-bit",
            weight: 40,
            page: 4096,
            chips: 2_000,
            banding: Banding::of(&stitch),
            probes: noisy(&[(0, 0), (2, 2), (4, 4), (8, 8)]),
        },
        Shape {
            name: "stitch 8x2 12-bit",
            weight: 12,
            page: 4096,
            chips: 2_000,
            banding: Banding::of(&stitch),
            probes: noisy(&[(2, 2)]),
        },
        Shape {
            name: "stitch 8x2 8-bit",
            weight: 8,
            page: 4096,
            chips: 2_000,
            banding: Banding::of(&stitch),
            probes: noisy(&[(1, 1)]),
        },
        Shape {
            name: "stitch 16x1 40-bit",
            weight: 40,
            page: 4096,
            chips: 2_000,
            banding: Banding::of(&data),
            probes: Probes::Halves,
        },
        Shape {
            name: "stitch 16x1 60-bit",
            weight: 60,
            page: 4096,
            chips: 2_000,
            banding: Banding::of(&data),
            probes: Probes::Halves,
        },
    ]
}

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

/// Each bit of `page` with probability 1/2.
fn half(rng: &mut Stream, page: &BTreeSet<u64>) -> BTreeSet<u64> {
    page.iter()
        .copied()
        .filter(|_| rng.next() & 1 == 1)
        .collect()
}

fn es(bits: &BTreeSet<u64>, page: u64) -> ErrorString {
    ErrorString::from_sorted(bits.iter().copied().collect(), page).expect("sorted in-range")
}

/// How often each family proposed an enrolled set for its own probe, and
/// for the probe of the next set (an unrelated page).
struct Outcome {
    pairs: usize,
    minhash: usize,
    oph: usize,
    minhash_unrelated: usize,
    oph_unrelated: usize,
}

fn measure(shape: &Shape, case: usize) -> Outcome {
    let mut rng = Stream(0x1de5 ^ (shape.weight as u64) << 20 ^ case as u64);
    let pages: Vec<BTreeSet<u64>> = (0..shape.chips)
        .map(|_| random_set(&mut rng, shape.weight, shape.page))
        .collect();
    let enrolled: Vec<ErrorString> = pages
        .iter()
        .map(|page| match shape.probes {
            Probes::Noisy { .. } => es(page, shape.page),
            Probes::Halves => es(&half(&mut rng, page), shape.page),
        })
        .collect();
    let Banding { bands, rows, seed } = shape.banding;
    let mut index = LshIndex::new(bands, rows, seed);
    for (id, fp) in enrolled.iter().enumerate() {
        index.insert(id as u32, fp);
    }
    let keys: Vec<Vec<u64>> = enrolled
        .iter()
        .map(|fp| minhash_band_keys(fp, shape.banding))
        .collect();
    let mut out = Outcome {
        pairs: shape.chips,
        minhash: 0,
        oph: 0,
        minhash_unrelated: 0,
        oph_unrelated: 0,
    };
    for (id, fp) in enrolled.iter().enumerate() {
        let p = match shape.probes {
            Probes::Noisy { threshold, cases } => {
                let (drop, add) = cases[case];
                let p = probe(&mut rng, &pages[id], drop, add, shape.page);
                let d = PcDistance::new().distance(fp, &p);
                assert!(d < threshold, "{}: probe at distance {d}", shape.name);
                p
            }
            Probes::Halves => es(&half(&mut rng, &pages[id]), shape.page),
        };
        let other = (id + 1) % shape.chips;
        let probe_keys = minhash_band_keys(&p, shape.banding);
        let shares = |enrolled: &[u64]| probe_keys.iter().any(|k| enrolled.contains(k));
        let candidates = index.candidates(&p);
        out.minhash += usize::from(shares(&keys[id]));
        out.oph += usize::from(candidates.contains(&(id as u32)));
        out.minhash_unrelated += usize::from(shares(&keys[other]));
        out.oph_unrelated += usize::from(candidates.contains(&(other as u32)));
    }
    out
}

#[test]
fn minhash_reference_is_pinned() {
    let page = random_set(&mut Stream(0x601d), 328, 32_768);
    assert_eq!(minhash_band_keys(&es(&page, 32_768), IDENTIFY), BAND_KEYS);
}

#[test]
fn one_permutation_recall_matches_the_minhash_family() {
    for shape in &shapes() {
        for case in 0..shape.cases() {
            let name = shape.case_name(case);
            let o = measure(shape, case);
            let n = o.pairs as f64;
            let (old, new) = (o.minhash as f64 / n, o.oph as f64 / n);
            eprintln!(
                "{name}: MinHash {}/{}, OPH {}/{}; unrelated pages collided {} (MinHash) and {} (OPH) times",
                o.minhash, o.pairs, o.oph, o.pairs, o.minhash_unrelated, o.oph_unrelated
            );
            // Three standard errors of the difference of two binomial
            // proportions at their pooled rate, plus one pair each side.
            let pooled = (old + new) / 2.0;
            let noise = 3.0 * (2.0 * pooled * (1.0 - pooled) / n).sqrt() + 2.0 / n;
            assert!(
                new >= old - noise,
                "{name}: OPH recall {new} below MinHash {old} by more than {noise}"
            );
        }
    }
}

#[test]
fn every_serving_reobservation_finds_its_chip() {
    // e2ebench's re-observation: 16 of 312 stable bits missing, 16 fresh.
    let shape = &shapes()[0];
    let Probes::Noisy { cases, .. } = shape.probes else {
        unreachable!("the serving shape probes with noisy re-observations")
    };
    let case = cases
        .iter()
        .position(|&p| p == (16, 16))
        .expect("the serving case is listed");
    let o = measure(shape, case);
    assert_eq!(o.oph, o.pairs, "a serving re-observation missed its chip");
}
