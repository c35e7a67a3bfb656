//! MinHash signatures and LSH banding over error-bit sets.
//!
//! Stitching needs to ask "which already-seen pages could be the same
//! physical page as this one?" without comparing against every stored page.
//! MinHash gives an unbiased estimate of Jaccard similarity — for each hash
//! function, the probability that two sets share the minimum is exactly their
//! Jaccard index — and banding turns high similarity into hash-table
//! collisions.

use crate::ErrorString;
use pc_stats::mix64;

/// MinHash signature generator with `bands × rows_per_band` hash functions.
///
/// # Example
///
/// ```
/// use probable_cause::{ErrorString, MinHasher};
/// let h = MinHasher::new(8, 2, 42);
/// let a = ErrorString::from_sorted((0..100).collect(), 4096)?;
/// let b = ErrorString::from_sorted((0..99).chain([200]).collect(), 4096)?;
/// // Nearly identical sets share nearly all signature lanes.
/// let sa = h.signature(&a);
/// let sb = h.signature(&b);
/// let same = sa.iter().zip(&sb).filter(|(x, y)| x == y).count();
/// assert!(same >= 12, "only {same}/16 lanes matched");
/// # Ok::<(), probable_cause::BitStringError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MinHasher {
    seeds: Vec<u64>,
    bands: usize,
    rows: usize,
}

impl MinHasher {
    /// Creates a hasher with `bands` bands of `rows_per_band` rows.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    pub fn new(bands: usize, rows_per_band: usize, seed: u64) -> Self {
        assert!(
            bands > 0 && rows_per_band > 0,
            "bands and rows must be positive"
        );
        let n = bands * rows_per_band;
        let seeds = (0..n as u64)
            .map(|i| mix64(seed ^ mix64(i ^ 0x4D49_4E48_4153_4821)))
            .collect();
        Self {
            seeds,
            bands,
            rows: rows_per_band,
        }
    }

    /// Number of bands.
    pub fn bands(&self) -> usize {
        self.bands
    }

    /// Rows per band.
    pub fn rows_per_band(&self) -> usize {
        self.rows
    }

    /// The signature of an error set: per hash function, the minimum hash
    /// over the set's bit positions. The empty set signs as all
    /// `u64::MAX` — callers should exclude low-information pages instead of
    /// relying on that sentinel.
    ///
    /// Costs `weight × bands × rows` SplitMix64 rounds (≈21k for a 328-bit
    /// page at 16 × 4), run by the SIMD lane-minimum kernel
    /// [`pc_kernels::simd::minhash_min`]; every tier of it signs
    /// identically.
    pub fn signature(&self, errors: &ErrorString) -> Vec<u64> {
        let _span = pc_telemetry::time!("core.minhash.signature");
        pc_telemetry::counter!("core.minhash.signatures").incr();
        let hashed: Vec<u64> = errors
            .positions()
            .iter()
            .map(|&bit| mix64(bit ^ 0x706A_6765_6269_7473))
            .collect();
        let mut sig = vec![u64::MAX; self.seeds.len()];
        pc_kernels::simd::minhash_min(&self.seeds, &hashed, &mut sig);
        sig
    }

    /// Collapses a signature into one key per band (the LSH bucket keys).
    ///
    /// # Panics
    ///
    /// Panics if the signature length does not match this hasher.
    pub fn band_keys(&self, signature: &[u64]) -> Vec<u64> {
        assert_eq!(
            signature.len(),
            self.seeds.len(),
            "signature length mismatch"
        );
        fold_band_keys(signature, self.bands, self.rows)
    }

    /// Estimated Jaccard similarity from two signatures (fraction of equal
    /// lanes).
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn estimate_similarity(&self, a: &[u64], b: &[u64]) -> f64 {
        assert_eq!(a.len(), b.len(), "signature length mismatch");
        let same = a.iter().zip(b).filter(|(x, y)| x == y).count();
        same as f64 / a.len() as f64
    }
}

/// Folds a signature of `bands × rows` lanes into one key per band: band
/// `b` chains SplitMix64 over its `rows` lanes from a start that depends on
/// `b`. [`MinHasher::band_keys`] and [`crate::LshIndex`] both fold this way.
pub(crate) fn fold_band_keys(signature: &[u64], bands: usize, rows: usize) -> Vec<u64> {
    (0..bands)
        .map(|b| {
            let mut acc = mix64(b as u64 ^ 0xB0A6_D5E3_1F2C_4B87);
            for r in 0..rows {
                acc = mix64(acc ^ signature[b * rows + r]);
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn es(bits: Vec<u64>) -> ErrorString {
        ErrorString::from_unsorted(bits, 32_768).unwrap()
    }

    #[test]
    fn signature_deterministic() {
        let h = MinHasher::new(4, 4, 1);
        let a = es((0..50).map(|i| i * 7).collect());
        assert_eq!(h.signature(&a), h.signature(&a));
    }

    #[test]
    fn identical_sets_collide_in_every_band() {
        let h = MinHasher::new(8, 2, 2);
        let a = es((0..300).map(|i| i * 3).collect());
        let ka = h.band_keys(&h.signature(&a));
        let kb = h.band_keys(&h.signature(&a.clone()));
        assert_eq!(ka, kb);
    }

    #[test]
    fn similarity_estimate_tracks_jaccard() {
        let h = MinHasher::new(32, 4, 3); // 128 lanes for a tight estimate
                                          // Two sets with Jaccard ~ 1/3: |A|=|B|=200, |A∩B|=100.
        let a = es((0..200).collect());
        let b = es((100..300).collect());
        let est = h.estimate_similarity(&h.signature(&a), &h.signature(&b));
        assert!((est - 1.0 / 3.0).abs() < 0.12, "estimate {est}");
    }

    #[test]
    fn disjoint_sets_rarely_share_bands() {
        let h = MinHasher::new(8, 2, 4);
        let a = es((0..300).collect());
        let b = es((10_000..10_300).collect());
        let ka = h.band_keys(&h.signature(&a));
        let kb = h.band_keys(&h.signature(&b));
        let same = ka.iter().zip(&kb).filter(|(x, y)| x == y).count();
        assert!(same <= 1, "{same} band collisions for disjoint sets");
    }

    #[test]
    fn empty_set_signature_is_sentinel() {
        let h = MinHasher::new(2, 2, 5);
        let sig = h.signature(&ErrorString::empty(4096));
        assert!(sig.iter().all(|&v| v == u64::MAX));
    }

    #[test]
    fn different_seeds_different_buckets() {
        let a = es((0..100).collect());
        let h1 = MinHasher::new(4, 2, 10);
        let h2 = MinHasher::new(4, 2, 11);
        assert_ne!(
            h1.band_keys(&h1.signature(&a)),
            h2.band_keys(&h2.signature(&a))
        );
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_bands_rejected() {
        MinHasher::new(0, 2, 1);
    }
}
