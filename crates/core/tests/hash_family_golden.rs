//! Golden values for the hash families: the stitcher's MinHash lanes and
//! band keys, and the identify index's one-permutation band keys.
//!
//! Every persisted `index.txt` is a function of the index's hashes: the
//! store adopts a loaded index without re-signing its entries, checking
//! only that it holds exactly the database's ids (`LshIndex::covers`), not
//! its signatures. A change to the seed derivation, the per-bit hash, the
//! bin choice, the densification, the SplitMix64 finalizer or the band-key
//! fold would therefore be adopted silently and mis-route identifies. The
//! MinHash constants come from the scalar signing loop; the index's keys
//! are checked against a reference implementation of their definition
//! written out below. Neither may change without a format bump.

use probable_cause::persistence::save_index;
use probable_cause::{ErrorString, Fingerprint, FingerprintDb, MinHasher, PcDistance};
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
const SIGNATURE: [u64; 64] = [
    0x018e7df436d84dc3, 0x0039acc78af3b73d, 0x000b8e77400a097e, 0x00b713740ab7502a,
    0x014d399cf9878712, 0x00a4f79d095afe48, 0x020724fabf8b403f, 0x0088a5394606fc0f,
    0x021ac1b6dd46ee3c, 0x015380bc5a5f874d, 0x02b0aa496ae6787e, 0x00ffedae72f41342,
    0x0008f4de6980987d, 0x020c8296279aee1b, 0x0053dbb1ebff9899, 0x007118d67888f0e9,
    0x00ee0eaf7a4f3cf0, 0x006071a661a89475, 0x001b8ec9e8753ff7, 0x000f622f6969c3a5,
    0x010907b49e18c4fe, 0x006bfb61cbc3672d, 0x026e351dbdfdd338, 0x01c3bf5e643f708c,
    0x00519339a9c61ee9, 0x00d99191c8b314a4, 0x00628e4816e05192, 0x0090de2b42e6a0ad,
    0x0142a39722df1da8, 0x01ff38770b1ddeb4, 0x01181c3db355a569, 0x0018130a25c52b2f,
    0x0009ec2d8e4e0585, 0x001facf77f4b8c78, 0x00ff28aa83028db4, 0x00e92bc03c48c05d,
    0x004756a48e366131, 0x002a236c73f34b9a, 0x0020eb7fb1ddd09c, 0x013319624dee50c5,
    0x00176ca1bb7dc2db, 0x004a876b1731d373, 0x0109b20655d25cdf, 0x00945ca35faff037,
    0x00bf662938cfa411, 0x0119303917fe133c, 0x00f438d8b5718001, 0x0010f79d6abac64c,
    0x0085ce706dcd0398, 0x0197f82d2436c8c4, 0x00da57062a924360, 0x0133baaebdefc9ed,
    0x011bf4b3abe97848, 0x03a78f612f2869b1, 0x000c5c40ddc1e97c, 0x006f4c61cd47cd62,
    0x021a6b7c272c7a98, 0x000383ccee54f194, 0x00c006e40936da55, 0x0191303429678d22,
    0x013383e7d077449a, 0x00db878f39f41ec0, 0x009e4cd36f60ba46, 0x00a363d4b4dc153c,
];

#[rustfmt::skip]
const BAND_KEYS: [u64; 16] = [
    0x7e00a545a610d5b6, 0x0390f0738060cc84, 0x21754271adb1595e, 0xad93433d96ad7032,
    0x30f7a3ae1d0a4bb2, 0x46d1c9703a02a6e7, 0x013c5018f6e35138, 0x9533d73344de1061,
    0xc927a4f71f3bc998, 0xfcc9e52f51257766, 0xa99918e64d723623, 0x1db08561da07087d,
    0x6550fddb29c31d0b, 0x0c16c04a343c1b07, 0x87d5f991afc8284d, 0xf7224452b538e440,
];

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
fn signature_and_band_keys_are_pinned() {
    let hasher = MinHasher::new(16, 4, 0x5eed);
    let sig = hasher.signature(&page(0x601d));
    let keys = hasher.band_keys(&sig);
    assert_eq!(sig, SIGNATURE);
    assert_eq!(keys, BAND_KEYS);
}

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
