//! Golden values for the workspace's one LSH family: the one-permutation
//! band keys that both the identify index (`LshIndex`) and the stitcher's
//! page index file.
//!
//! Every persisted `index.txt` is a function of the index's hashes: the
//! store adopts a loaded index without re-signing its entries, checking
//! only that it holds exactly the database's ids (`LshIndex::covers`), not
//! its signatures. A change to the seed derivation, the per-bit hash, the
//! bin choice, the densification, the SplitMix64 finalizer or the band-key
//! fold would therefore be adopted silently and mis-route identifies. The
//! keys are checked against a reference implementation of their definition
//! written out below, and may not change without a format bump.

use probable_cause::persistence::save_index;
use probable_cause::{ErrorString, Fingerprint, FingerprintDb, PcDistance};
use std::collections::BTreeSet;

const SIZE: u64 = 32_768;
const WEIGHT: usize = 328;

/// A deterministic page of `WEIGHT` distinct error bits, drawn with an
/// inline SplitMix64 stream so the fixture does not depend on the code
/// under test.
fn page(seed: u64) -> ErrorString {
    let mut state = seed;
    let mut bits = BTreeSet::new();
    while bits.len() < WEIGHT {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        bits.insert((z ^ (z >> 31)) % SIZE);
    }
    ErrorString::from_sorted(bits.into_iter().collect(), SIZE).expect("sorted in-range")
}

/// One SplitMix64 step (add the golden gamma, then the finalizer), written
/// out so the reference below does not call the code under test.
fn mix(z: u64) -> u64 {
    let mut z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The index's band keys by definition: one-permutation hashing of each
/// error bit `p` into `bands × rows` bins by `h = mix(p ^ salt)` (bin
/// `⌊h · bins / 2⁶⁴⌋`, value `h`, each bin keeping its least value), an
/// empty bin `j` taking `mix(v ^ t)` from the first filled bin `j + t`
/// (mod `bins`) to its right with value `v`, and band `b` folding its rows
/// into `mix(b ^ 0xB0A6_D5E3_1F2C_4B87)` one `mix(acc ^ lane)` at a time.
fn reference_band_keys(errors: &ErrorString, bands: usize, rows: usize, seed: u64) -> Vec<u64> {
    let bins = bands * rows;
    let salt = mix(seed ^ 0x4F50_4842_6974_7321);
    let mut sig = vec![u64::MAX; bins];
    for &p in errors.positions() {
        let h = mix(p ^ salt);
        let bin = ((u128::from(h) * bins as u128) >> 64) as usize;
        sig[bin] = sig[bin].min(h);
    }
    let dense: Vec<u64> = (0..bins)
        .map(|j| {
            if sig[j] != u64::MAX {
                return sig[j];
            }
            (1..bins)
                .map(|t| (t, sig[(j + t) % bins]))
                .find(|&(_, v)| v != u64::MAX)
                .map_or(u64::MAX, |(t, v)| mix(v ^ t as u64))
        })
        .collect();
    (0..bands)
        .map(|b| {
            (0..rows).fold(mix(b as u64 ^ 0xB0A6_D5E3_1F2C_4B87), |acc, r| {
                mix(acc ^ dense[b * rows + r])
            })
        })
        .collect()
}

/// The `keys` lines of a saved index image, by id.
fn saved_keys(db: &FingerprintDb<String, PcDistance>) -> Vec<Vec<u64>> {
    let mut buf = Vec::new();
    save_index(&db.build_index(16, 4, 0x5eed), &mut buf).expect("in-memory write");
    String::from_utf8(buf)
        .expect("the image is text")
        .lines()
        .filter_map(|line| line.strip_prefix("keys "))
        .map(|rest| {
            let (_, keys) = rest.split_once(' ').expect("keys <id> <keys>");
            keys.split(',')
                .map(|k| k.parse().expect("decimal key"))
                .collect()
        })
        .collect()
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[rustfmt::skip]
const OPH_BAND_KEYS: [u64; 16] = [
    0x5bb0815af6a99bbe, 0x47aa7e515b0d1761, 0xa428dfa119c4bb7d, 0x2964a2ccecfb78de,
    0x69d8a025662b1fac, 0xf5bff34f49c41f2d, 0x2df6deeabaf87d4d, 0xb7bd87070bab50fb,
    0x357ddb5137027560, 0xdcc581b65ab91aac, 0x6260d874dbfc7e45, 0x370442e07475cb8a,
    0x72aef0d5aab6e5ef, 0xb33b3394cf0504cc, 0x665469f7fc289564, 0x6f1d7387e110fa31,
];

const INDEX_LEN: usize = 21_449;
const INDEX_FNV1A: u64 = 0x77d1_ee23_41f3_dced;

#[test]
fn index_band_keys_of_a_fixed_page_are_pinned() {
    let mut db = FingerprintDb::new(PcDistance::new(), 0.25);
    db.insert(
        "page".to_string(),
        Fingerprint::from_observation(page(0x601d)),
    );
    let keys = saved_keys(&db);
    assert_eq!(keys.len(), 1, "one entry, one keys line");
    assert_eq!(keys[0], reference_band_keys(&page(0x601d), 16, 4, 0x5eed));
    assert_eq!(keys[0], OPH_BAND_KEYS);
}

#[test]
fn index_band_keys_match_the_reference_on_sparse_and_empty_sets() {
    // Few bits leave most bins empty, so these exercise the densification
    // (the empty set keeps every bin empty and signs as the sentinel).
    let sets: Vec<ErrorString> = [vec![], vec![7], vec![3, 17, 40, 900], (0..40).collect()]
        .into_iter()
        .map(|bits| ErrorString::from_sorted(bits, 4096).expect("sorted in-range"))
        .collect();
    let mut db = FingerprintDb::new(PcDistance::new(), 0.25);
    for (i, set) in sets.iter().enumerate() {
        db.insert(
            format!("set-{i}"),
            Fingerprint::from_observation(set.clone()),
        );
    }
    let keys = saved_keys(&db);
    for (set, keys) in sets.iter().zip(&keys) {
        assert_eq!(*keys, reference_band_keys(set, 16, 4, 0x5eed), "{set:?}");
    }
}

#[test]
fn saved_index_of_a_fixed_database_is_pinned() {
    let mut db = FingerprintDb::new(PcDistance::new(), 0.25);
    for c in 0..64u64 {
        db.insert(
            format!("chip-{c:02}"),
            Fingerprint::from_observation(page(c + 1)),
        );
    }
    let mut buf = Vec::new();
    save_index(&db.build_index(16, 4, 0x5eed), &mut buf).expect("in-memory write");
    assert_eq!(buf.len(), INDEX_LEN);
    assert_eq!(fnv1a(&buf), INDEX_FNV1A);
}
