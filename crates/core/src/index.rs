//! A MinHash/LSH index over stored fingerprints, pruning Algorithm 2's
//! linear scan.
//!
//! [`crate::FingerprintDb::identify`] compares a query against every stored
//! fingerprint; at database sizes the ROADMAP targets (10k+ chips) that
//! linear scan is the serving bottleneck. This index reuses the stitching
//! layer's [`MinHasher`]: each fingerprint is signed once at insertion and
//! its band keys are bucketed, so a query pays `weight × bands × rows`
//! hashes (≈21k SplitMix64 rounds for a 328-bit page at 16 × 4, run by the
//! SIMD MinHash kernel in `pc_kernels::simd`) and then full modified-Jaccard
//! distance only against the candidate set that collides with it in at
//! least one band.
//!
//! Recall is probabilistic: a pair with Jaccard similarity `s` collides in
//! at least one band with probability `1 − (1 − s^rows)^bands`. At the
//! defaults used by `pc-service` (16 bands × 4 rows), a same-chip pair at
//! `s ≈ 0.9` is missed with probability ≈ 5×10⁻⁸, while unrelated chips
//! (`s` under 0.01) essentially never collide — that asymmetry is the whole
//! pruning win.
//!
//! The index is deterministic for a given `(bands, rows, seed)` and
//! insertion sequence, and persists via
//! [`crate::persistence::save_index`] / [`crate::persistence::load_index`]
//! so a restarted server recovers its exact bucket layout.

use crate::{ErrorString, MinHasher};
use std::collections::BTreeMap;

/// An LSH bucket index mapping band keys to fingerprint entry ids.
///
/// Entry ids are the caller's (for [`crate::FingerprintDb`] they are
/// insertion-order indices). The index does not own fingerprints; it only
/// routes queries to candidate ids.
///
/// # Example
///
/// ```
/// use probable_cause::{ErrorString, LshIndex};
/// let mut index = LshIndex::new(16, 4, 42);
/// let fp = ErrorString::from_sorted((0..300).map(|i| i * 7).collect(), 32_768)?;
/// index.insert(0, &fp);
/// // A lightly perturbed copy of the fingerprint still collides.
/// let probe = ErrorString::from_sorted((1..300).map(|i| i * 7).collect(), 32_768)?;
/// assert_eq!(index.candidates(&probe), vec![0]);
/// # Ok::<(), probable_cause::BitStringError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LshIndex {
    hasher: MinHasher,
    seed: u64,
    /// Band key → entry ids, canonically ordered for byte-stable persistence.
    buckets: BTreeMap<u64, Vec<u32>>,
    /// Entry id → its band keys, kept for O(bands) removal and re-indexing.
    keys: BTreeMap<u32, Vec<u64>>,
}

impl LshIndex {
    /// Creates an empty index with `bands` bands of `rows_per_band` rows,
    /// seeded by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero (see [`MinHasher::new`]).
    pub fn new(bands: usize, rows_per_band: usize, seed: u64) -> Self {
        Self {
            hasher: MinHasher::new(bands, rows_per_band, seed),
            seed,
            buckets: BTreeMap::new(),
            keys: BTreeMap::new(),
        }
    }

    /// Number of bands.
    pub fn bands(&self) -> usize {
        self.hasher.bands()
    }

    /// Rows per band.
    pub fn rows_per_band(&self) -> usize {
        self.hasher.rows_per_band()
    }

    /// The seed the hash family was derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether no entries are indexed.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Whether the indexed ids are exactly `0..n`, as for a
    /// [`crate::FingerprintDb`] of `n` entries: `n` distinct ids whose
    /// largest is `n - 1`.
    pub fn covers(&self, n: usize) -> bool {
        let last = self.keys.last_key_value().map(|(&id, _)| id as usize);
        self.keys.len() == n && last.is_none_or(|last| last + 1 == n)
    }

    /// Indexes `errors` under `id`, replacing any previous entry for `id`
    /// (re-indexing after a fingerprint was refined).
    pub fn insert(&mut self, id: u32, errors: &ErrorString) {
        let _span = pc_telemetry::time!("core.index.insert");
        pc_telemetry::counter!("core.index.inserts").incr();
        self.remove(id);
        let keys = self.hasher.band_keys(&self.hasher.signature(errors));
        for &k in &keys {
            let bucket = self.buckets.entry(k).or_default();
            // A signature can repeat a band key; ids stay unique per bucket.
            if !bucket.contains(&id) {
                bucket.push(id);
            }
        }
        self.keys.insert(id, keys);
    }

    /// Removes `id` from the index. Returns whether it was present.
    pub fn remove(&mut self, id: u32) -> bool {
        let Some(keys) = self.keys.remove(&id) else {
            return false;
        };
        for k in keys {
            if let Some(bucket) = self.buckets.get_mut(&k) {
                bucket.retain(|&e| e != id);
                if bucket.is_empty() {
                    self.buckets.remove(&k);
                }
            }
        }
        true
    }

    /// The candidate entry ids for a query: every id sharing at least one
    /// band bucket with it, ascending and deduplicated.
    pub fn candidates(&self, errors: &ErrorString) -> Vec<u32> {
        let _span = pc_telemetry::time!("core.index.candidates");
        pc_telemetry::counter!("core.index.probes").incr();
        let keys = self.hasher.band_keys(&self.hasher.signature(errors));
        let mut out: Vec<u32> = keys
            .iter()
            .filter_map(|k| self.buckets.get(k))
            .flatten()
            .copied()
            .collect();
        out.sort_unstable();
        out.dedup();
        pc_telemetry::counter!("core.index.candidates_returned").add(out.len() as u64);
        out
    }

    /// Iterates over `(band_key, ids)` buckets in canonical (ascending key)
    /// order — the persistence layer's view.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, &[u32])> {
        self.buckets.iter().map(|(&k, v)| (k, v.as_slice()))
    }

    /// Rebuilds an index from persisted parts.
    ///
    /// Used by [`crate::persistence::load_index`]; bucket vectors keep their
    /// stored order so a save → load → save cycle is byte-identical.
    ///
    /// # Panics
    ///
    /// Panics if `bands` or `rows_per_band` is zero.
    pub fn from_parts(
        bands: usize,
        rows_per_band: usize,
        seed: u64,
        buckets: BTreeMap<u64, Vec<u32>>,
    ) -> Self {
        let mut keys: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
        for (&k, ids) in &buckets {
            for &id in ids {
                keys.entry(id).or_default().push(k);
            }
        }
        Self {
            hasher: MinHasher::new(bands, rows_per_band, seed),
            seed,
            buckets,
            keys,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn es(bits: Vec<u64>) -> ErrorString {
        ErrorString::from_unsorted(bits, 32_768).unwrap()
    }

    fn chip(seed: u64) -> ErrorString {
        es((0..300).map(|i| (i * 97 + seed * 7919) % 32_768).collect())
    }

    #[test]
    fn insert_then_candidates_finds_self() {
        let mut idx = LshIndex::new(16, 4, 1);
        for id in 0..20 {
            idx.insert(id, &chip(id as u64));
        }
        assert_eq!(idx.len(), 20);
        for id in 0..20 {
            assert!(
                idx.candidates(&chip(id as u64)).contains(&id),
                "entry {id} must be its own candidate"
            );
        }
    }

    #[test]
    fn unrelated_chips_prune_hard() {
        let mut idx = LshIndex::new(16, 4, 2);
        for id in 0..100 {
            idx.insert(id, &chip(id as u64));
        }
        let probe = chip(1_000_000);
        assert!(
            idx.candidates(&probe).len() <= 2,
            "unrelated probe should hit almost no buckets"
        );
    }

    #[test]
    fn covers_only_exactly_the_ids_below_n() {
        let mut idx = LshIndex::new(8, 2, 7);
        assert!(idx.covers(0));
        for id in 0..3 {
            idx.insert(id, &chip(id as u64));
        }
        assert!(idx.covers(3));
        assert!(!idx.covers(2) && !idx.covers(4));
        // Three entries, but id 5 where the database has id 2.
        idx.remove(2);
        idx.insert(5, &chip(2));
        assert!(!idx.covers(3));
    }

    #[test]
    fn remove_unindexes() {
        let mut idx = LshIndex::new(8, 2, 3);
        idx.insert(7, &chip(7));
        assert!(idx.remove(7));
        assert!(!idx.remove(7));
        assert!(idx.is_empty());
        assert!(idx.candidates(&chip(7)).is_empty());
        assert_eq!(idx.buckets().count(), 0, "empty buckets are dropped");
    }

    #[test]
    fn reinsert_replaces() {
        let mut idx = LshIndex::new(8, 2, 4);
        idx.insert(1, &chip(1));
        idx.insert(1, &chip(2)); // refined fingerprint, new signature
        assert_eq!(idx.len(), 1);
        let cands = idx.candidates(&chip(2));
        assert_eq!(cands, vec![1]);
    }

    #[test]
    fn from_parts_reconstructs_reverse_map() {
        let mut idx = LshIndex::new(8, 2, 5);
        for id in 0..10 {
            idx.insert(id, &chip(id as u64));
        }
        let mut rebuilt = LshIndex::from_parts(
            idx.bands(),
            idx.rows_per_band(),
            idx.seed(),
            idx.buckets.clone(),
        );
        assert_eq!(rebuilt.len(), idx.len());
        assert!(rebuilt.remove(3));
        assert!(!rebuilt.candidates(&chip(3)).contains(&3));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let build = || {
            let mut idx = LshIndex::new(16, 4, 6);
            for id in 0..50 {
                idx.insert(id, &chip(id as u64));
            }
            idx.buckets
                .iter()
                .map(|(k, v)| (*k, v.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }
}
