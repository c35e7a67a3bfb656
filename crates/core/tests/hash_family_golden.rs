//! Golden values for the MinHash/LSH hash family.
//!
//! Every persisted `index.txt` is a function of these hashes: the store
//! adopts a loaded index without re-signing its entries and checks only the
//! entry count. A change to the seed derivation, the position pre-hash, the
//! SplitMix64 finalizer or the band-key fold would therefore be adopted
//! silently and mis-route identifies. These constants come from the scalar
//! signing loop and must never change without a format bump.

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

const INDEX_LEN: usize = 31_046;
const INDEX_FNV1A: u64 = 0x8768_d72a_6799_fa54;

#[test]
fn signature_and_band_keys_are_pinned() {
    let hasher = MinHasher::new(16, 4, 0x5eed);
    let sig = hasher.signature(&page(0x601d));
    let keys = hasher.band_keys(&sig);
    assert_eq!(sig, SIGNATURE);
    assert_eq!(keys, BAND_KEYS);
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
