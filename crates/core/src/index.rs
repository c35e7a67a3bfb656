//! The workspace's one LSH family, and the index that prunes Algorithm 2's
//! linear scan with it.
//!
//! [`crate::FingerprintDb::identify`] compares a query against every stored
//! fingerprint; at database sizes the ROADMAP targets (10k+ chips) that
//! linear scan is the serving bottleneck. This index signs each fingerprint
//! once at insertion and files its band keys, so a query pays one hash per
//! error bit plus `bands` table lookups, and then full modified-Jaccard
//! distance only against the candidates that share at least one band key
//! with it. The [`crate::Stitcher`] signs its pages with the same family,
//! at its own bands × rows and seed, and files the keys in its own
//! per-band postings.
//!
//! The signature is one-permutation hashing (OPH) with rotation
//! densification (Shrivastava and Li, "Densifying One Permutation Hashing
//! via Rotation for Fast Near Neighbor Search", ICML 2014). One SplitMix64
//! round per error bit both picks one of `bands × rows` bins
//! (multiply-shift on the hash) and is the value the bin keeps if it is
//! the smallest there. A bin no bit reached takes the nearest filled bin to
//! its right, mixed with the distance, so two sets agree in a bin with
//! probability close to their Jaccard similarity `s`, as with
//! `bands × rows` independent MinHashes at `bands × rows` times the cost.
//! A pair then collides in at least one band
//! with probability close to `1 − (1 − s^rows)^bands`: at the 16 × 4
//! `pc-service` uses, a same-chip pair at `s ≈ 0.9` is almost never missed,
//! while unrelated chips (`s` under 0.01) essentially never collide.
//! `crates/core/tests/index_recall.rs` holds its recall to that of
//! MinHash banding, the family it replaced (written out there as a
//! test-local reference), at the service's 16 × 4 at each distance below
//! the service threshold and at both of the stitcher's bandings.
//!
//! Storage is flat: an array of each id's band keys, ids ascending, beside
//! one open-addressed table of `(band key, id)` pairs. The index is
//! deterministic for a given `(bands, rows, seed)` and set of entries, and
//! persists as its key array via [`crate::persistence::save_index`] /
//! [`crate::persistence::load_index`], so a restarted server recovers it
//! without re-signing.

use crate::ErrorString;
use pc_kernels::{map_chunked, Parallelism};
use pc_stats::mix64;

/// Salt of the per-bit hash, mixed with the seed. Persisted band keys
/// depend on it.
const BIT_SALT: u64 = 0x4F50_4842_6974_7321;

/// The id that marks an empty table slot; no entry may use it.
const EMPTY: u32 = u32::MAX;

/// Entries one build task signs: large enough that claiming a chunk costs
/// nothing next to signing it, small enough to balance a 10k-entry build.
const BUILD_CHUNK: usize = 256;

/// One-permutation signing of error-bit sets into `bands` band keys: the
/// per-bit salt derived from the seed, the multiply-shift bin, rotation
/// densification and the band fold. [`LshIndex`] and
/// [`crate::Stitcher`] both sign with it.
#[derive(Debug, Clone)]
pub(crate) struct OphSigner {
    bands: usize,
    rows: usize,
    seed: u64,
    /// The per-bit hash salt derived from `seed`.
    salt: u64,
}

impl OphSigner {
    /// A signer of `bands` bands of `rows_per_band` rows, seeded by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    pub(crate) fn new(bands: usize, rows_per_band: usize, seed: u64) -> Self {
        assert!(
            bands > 0 && rows_per_band > 0,
            "bands and rows must be positive"
        );
        Self {
            bands,
            rows: rows_per_band,
            seed,
            salt: mix64(seed ^ BIT_SALT),
        }
    }

    /// The band keys of `errors`: its one-permutation signature over
    /// `bands × rows` bins, densified, folded band by band. The empty set
    /// leaves every bin at `u64::MAX`.
    pub(crate) fn band_keys(&self, errors: &ErrorString) -> Vec<u64> {
        let bins = self.bands * self.rows;
        let mut sig = vec![u64::MAX; bins];
        for &bit in errors.positions() {
            let h = mix64(bit ^ self.salt);
            let bin = ((u128::from(h) * bins as u128) >> 64) as usize;
            sig[bin] = sig[bin].min(h);
        }
        densify(&mut sig);
        fold_band_keys(&sig, self.bands, self.rows)
    }
}

/// One `(band key, id)` pair of the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    key: u64,
    id: u32,
}

const VACANT: Slot = Slot { key: 0, id: EMPTY };

/// An LSH index mapping band keys to fingerprint entry ids.
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
    signer: OphSigner,
    /// Indexed ids, strictly ascending; `ids[i] == i` for a database.
    ids: Vec<u32>,
    /// `keys[i * bands..(i + 1) * bands]` are the band keys of `ids[i]`.
    keys: Vec<u64>,
    /// `(band key, id)` pairs under linear probing from the key's
    /// multiply-shift home slot, deleted by backward shift. Each pair is
    /// present once, and at least half the slots are always vacant.
    table: Vec<Slot>,
}

impl LshIndex {
    /// Creates an empty index with `bands` bands of `rows_per_band` rows,
    /// seeded by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    pub fn new(bands: usize, rows_per_band: usize, seed: u64) -> Self {
        Self {
            signer: OphSigner::new(bands, rows_per_band, seed),
            ids: Vec::new(),
            keys: Vec::new(),
            table: vec![VACANT; slots_for(0, bands)],
        }
    }

    /// Number of bands.
    pub fn bands(&self) -> usize {
        self.signer.bands
    }

    /// Rows per band.
    pub fn rows_per_band(&self) -> usize {
        self.signer.rows
    }

    /// The seed the hash family was derived from.
    pub fn seed(&self) -> u64 {
        self.signer.seed
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether no entries are indexed.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Whether the indexed ids are exactly `0..n`, as for a
    /// [`crate::FingerprintDb`] of `n` entries: `n` distinct ids whose
    /// largest is `n - 1`.
    pub fn covers(&self, n: usize) -> bool {
        let last = self.ids.last().map(|&id| id as usize);
        self.ids.len() == n && last.is_none_or(|last| last + 1 == n)
    }

    /// Indexes `errors` under `id`, replacing any previous entry for `id`
    /// (re-indexing after a fingerprint was refined). A refine that leaves
    /// the band keys unchanged changes nothing.
    ///
    /// # Panics
    ///
    /// Panics if `id` is `u32::MAX`, which marks empty table slots.
    pub fn insert(&mut self, id: u32, errors: &ErrorString) {
        let _span = pc_telemetry::time!("core.index.insert");
        pc_telemetry::counter!("core.index.inserts").incr();
        assert_ne!(id, EMPTY, "id u32::MAX is reserved");
        let fresh = self.signer.band_keys(errors);
        let b = self.bands();
        match self.position(id) {
            Ok(at) => {
                let keys = &mut self.keys[at * b..(at + 1) * b];
                if *keys == *fresh {
                    return;
                }
                let stale = keys.to_vec();
                keys.copy_from_slice(&fresh);
                for key in stale {
                    self.remove_pair(key, id);
                }
                for &key in &fresh {
                    self.insert_pair(key, id);
                }
            }
            Err(at) => {
                let need = slots_for(self.ids.len() + 1, b);
                if self.table.len() < need {
                    self.rehash(slots_for(2 * (self.ids.len() + 1), b));
                }
                self.ids.insert(at, id);
                self.keys.splice(at * b..at * b, fresh.iter().copied());
                for &key in &fresh {
                    self.insert_pair(key, id);
                }
            }
        }
    }

    /// Removes `id` from the index. Returns whether it was present.
    pub fn remove(&mut self, id: u32) -> bool {
        let Ok(at) = self.position(id) else {
            return false;
        };
        let b = self.bands();
        let keys: Vec<u64> = self.keys.drain(at * b..(at + 1) * b).collect();
        self.ids.remove(at);
        for key in keys {
            self.remove_pair(key, id);
        }
        true
    }

    /// The candidate entry ids for a query: every id sharing at least one
    /// band key with it, ascending and deduplicated.
    pub fn candidates(&self, errors: &ErrorString) -> Vec<u32> {
        let _span = pc_telemetry::time!("core.index.candidates");
        pc_telemetry::counter!("core.index.probes").incr();
        let mut out = Vec::new();
        for key in self.signer.band_keys(errors) {
            let mut i = self.home(key);
            loop {
                let slot = self.table[i];
                if slot.id == EMPTY {
                    break;
                }
                if slot.key == key {
                    out.push(slot.id);
                }
                i = self.next(i);
            }
        }
        out.sort_unstable();
        out.dedup();
        pc_telemetry::counter!("core.index.candidates_returned").add(out.len() as u64);
        out
    }

    /// Each indexed id with its `bands` band keys, ids ascending — the
    /// persistence layer's view.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (u32, &[u64])> {
        self.ids
            .iter()
            .copied()
            .zip(self.keys.chunks_exact(self.bands()))
    }

    /// An index over `ids` from their band keys, `bands` per id in the same
    /// order: what [`crate::persistence::load_index`] reads back. Nothing is
    /// signed, and both arrays are adopted as they are.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero, if `ids` is not strictly ascending
    /// or holds `u32::MAX`, or if `keys` does not hold `bands` keys per id.
    pub(crate) fn from_entries(
        bands: usize,
        rows_per_band: usize,
        seed: u64,
        ids: Vec<u32>,
        keys: Vec<u64>,
    ) -> Self {
        let mut index = Self::new(bands, rows_per_band, seed);
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]) && ids.last() != Some(&EMPTY),
            "ids must ascend strictly, below u32::MAX"
        );
        assert_eq!(keys.len(), ids.len() * bands, "bands keys per id");
        let slots = slots_for(ids.len(), bands);
        index.ids = ids;
        index.keys = keys;
        index.rehash(slots);
        index
    }

    /// Signs `n` sets, where `set(i)` builds the one for id `i`, across
    /// scoped threads into a new index over ids `0..n`. The result does not
    /// depend on the thread count.
    pub(crate) fn build(
        bands: usize,
        rows_per_band: usize,
        seed: u64,
        n: usize,
        set: impl Fn(usize) -> ErrorString + Sync,
        par: Parallelism,
    ) -> Self {
        let signer = OphSigner::new(bands, rows_per_band, seed);
        let chunks = map_chunked(n.div_ceil(BUILD_CHUNK), 1, par, |c| {
            let ids = c * BUILD_CHUNK..n.min((c + 1) * BUILD_CHUNK);
            let mut keys = Vec::with_capacity(ids.len() * bands);
            for id in ids {
                keys.extend(signer.band_keys(&set(id)));
            }
            keys
        });
        let n = u32::try_from(n).expect("ids are u32");
        Self::from_entries(
            bands,
            rows_per_band,
            seed,
            (0..n).collect(),
            chunks.concat(),
        )
    }

    /// Where `id` sits in `ids`: `Ok(position)`, or `Err(insertion point)`.
    fn position(&self, id: u32) -> Result<usize, usize> {
        match self.ids.get(id as usize) {
            Some(&at) if at == id => Ok(id as usize),
            _ => self.ids.binary_search(&id),
        }
    }

    /// The slot a key's probe starts from.
    fn home(&self, key: u64) -> usize {
        ((u128::from(key) * self.table.len() as u128) >> 64) as usize
    }

    fn next(&self, i: usize) -> usize {
        if i + 1 == self.table.len() {
            0
        } else {
            i + 1
        }
    }

    /// Files `(key, id)` unless it is already present (an id whose
    /// signature repeats a band key is listed once).
    fn insert_pair(&mut self, key: u64, id: u32) {
        let mut i = self.home(key);
        loop {
            let slot = self.table[i];
            if slot.id == EMPTY {
                self.table[i] = Slot { key, id };
                return;
            }
            if slot == (Slot { key, id }) {
                return;
            }
            i = self.next(i);
        }
    }

    /// Deletes `(key, id)` if present, shifting the rest of its probe run
    /// back so every remaining pair stays reachable from its home slot.
    fn remove_pair(&mut self, key: u64, id: u32) {
        let cap = self.table.len();
        let mut hole = self.home(key);
        loop {
            let slot = self.table[hole];
            if slot.id == EMPTY {
                return;
            }
            if slot == (Slot { key, id }) {
                break;
            }
            hole = self.next(hole);
        }
        let mut j = hole;
        loop {
            j = self.next(j);
            let slot = self.table[j];
            if slot.id == EMPTY {
                break;
            }
            // Steps forward from `from` to `to`.
            let steps = |from: usize, to: usize| (to + cap - from) % cap;
            let home = self.home(slot.key);
            if steps(home, hole) < steps(home, j) {
                self.table[hole] = slot;
                hole = j;
            }
        }
        self.table[hole] = VACANT;
    }

    /// Refiles every entry's keys into a table of `slots` slots.
    fn rehash(&mut self, slots: usize) {
        self.table = vec![VACANT; slots];
        let b = self.bands();
        for at in 0..self.ids.len() {
            let id = self.ids[at];
            for k in 0..b {
                self.insert_pair(self.keys[at * b + k], id);
            }
        }
    }
}

/// Table slots for `entries` entries of `bands` keys: twice the most pairs
/// they can file, so the load factor never passes one half.
fn slots_for(entries: usize, bands: usize) -> usize {
    entries.saturating_mul(bands).saturating_mul(2).max(16)
}

/// Folds a signature of `bands × rows` bins into one key per band: band
/// `b` chains SplitMix64 over its `rows` bins from a start that depends on
/// `b`.
fn fold_band_keys(signature: &[u64], bands: usize, rows: usize) -> Vec<u64> {
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

/// Rotation densification: each empty bin (still `u64::MAX`) takes the
/// nearest filled bin to its right, wrapping around, mixed with its
/// distance from it. Two sets agree in a densified bin only when they
/// agree on that filled bin and on the gap. An all-empty signature stays
/// all `u64::MAX`.
fn densify(sig: &mut [u64]) {
    let n = sig.len();
    let Some(last) = sig.iter().rposition(|&v| v != u64::MAX) else {
        return;
    };
    let (mut source, mut gap) = (sig[last], 0u64);
    for step in 1..n {
        let j = (last + n - step) % n;
        if sig[j] == u64::MAX {
            gap += 1;
            sig[j] = mix64(source ^ gap);
        } else {
            (source, gap) = (sig[j], 0);
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

    /// Every filed pair, sorted: the table's contents without its layout.
    fn pairs(idx: &LshIndex) -> Vec<(u64, u32)> {
        let mut out: Vec<(u64, u32)> = idx
            .table
            .iter()
            .filter(|s| s.id != EMPTY)
            .map(|s| (s.key, s.id))
            .collect();
        out.sort_unstable();
        out
    }

    /// The pairs the key array implies, one per distinct key of an id.
    fn expected_pairs(idx: &LshIndex) -> Vec<(u64, u32)> {
        let mut out: Vec<(u64, u32)> = idx
            .entries()
            .flat_map(|(id, keys)| keys.iter().map(move |&k| (k, id)))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
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
        assert!(pairs(&idx).is_empty(), "no pair outlives its id");
    }

    #[test]
    fn reinsert_replaces() {
        let mut idx = LshIndex::new(8, 2, 4);
        idx.insert(1, &chip(1));
        idx.insert(1, &chip(2)); // refined fingerprint, new signature
        assert_eq!(idx.len(), 1);
        let cands = idx.candidates(&chip(2));
        assert_eq!(cands, vec![1]);
        assert!(idx.candidates(&chip(1)).is_empty());
        assert_eq!(pairs(&idx), expected_pairs(&idx));
    }

    #[test]
    fn from_entries_routes_like_the_signed_index() {
        let mut idx = LshIndex::new(8, 2, 5);
        for id in 0..10 {
            idx.insert(id, &chip(id as u64));
        }
        let mut rebuilt = LshIndex::from_entries(
            idx.bands(),
            idx.rows_per_band(),
            idx.seed(),
            idx.ids.clone(),
            idx.keys.clone(),
        );
        assert!(rebuilt.covers(10));
        assert_eq!(pairs(&rebuilt), pairs(&idx));
        for id in 0..10 {
            assert_eq!(rebuilt.candidates(&chip(id)), idx.candidates(&chip(id)));
        }
        assert!(rebuilt.remove(3));
        assert!(!rebuilt.candidates(&chip(3)).contains(&3));
    }

    #[test]
    fn a_repeated_key_of_one_id_is_filed_once() {
        let mut idx = LshIndex::from_entries(3, 1, 12, vec![0, 1], vec![5, 5, 6, 5, 7, 8]);
        assert_eq!(pairs(&idx), vec![(5, 0), (5, 1), (6, 0), (7, 1), (8, 1)]);
        assert!(idx.remove(0));
        assert_eq!(pairs(&idx), vec![(5, 1), (7, 1), (8, 1)]);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let build = || {
            let mut idx = LshIndex::new(16, 4, 6);
            for id in 0..50 {
                idx.insert(id, &chip(id as u64));
            }
            idx.keys
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn build_is_byte_identical_at_1_2_and_4_threads() {
        let sets: Vec<ErrorString> = (0..1000).map(chip).collect();
        let image = |threads| {
            let index = LshIndex::build(
                16,
                4,
                11,
                sets.len(),
                |i| sets[i].clone(),
                Parallelism::new(threads),
            );
            let mut buf = Vec::new();
            crate::persistence::save_index(&index, &mut buf).unwrap();
            (buf, pairs(&index))
        };
        let single = image(1);
        let mut signed = LshIndex::new(16, 4, 11);
        for (id, set) in sets.iter().enumerate() {
            signed.insert(id as u32, set);
        }
        assert_eq!(single.1, pairs(&signed), "build files what insert files");
        for threads in [2, 4] {
            assert!(image(threads) == single, "{threads} threads differ");
        }
    }

    #[test]
    fn empty_set_signs_as_the_sentinel() {
        let signer = OphSigner::new(4, 3, 8);
        let keys = signer.band_keys(&ErrorString::empty(4096));
        assert_eq!(keys, fold_band_keys(&[u64::MAX; 12], 4, 3));
    }

    #[test]
    fn densified_bins_copy_the_nearest_filled_bin_to_the_right() {
        let m = u64::MAX;
        let mut sig = [m, 10, m, m, 20, m];
        densify(&mut sig);
        assert_eq!(
            sig,
            [
                mix64(10 ^ 1),
                10,
                mix64(20 ^ 2),
                mix64(20 ^ 1),
                20,
                mix64(10 ^ 2)
            ]
        );
    }

    #[test]
    fn table_stays_bounded_and_routes_every_id_under_refine_churn() {
        // Built at the full load factor, so probe runs are long enough that
        // a remove-and-refile would move slots.
        let sets: Vec<ErrorString> = (0..64).map(chip).collect();
        let mut idx = LshIndex::build(16, 4, 9, 64, |i| sets[i].clone(), Parallelism::single());
        let capacity = idx.table.len();
        let layout = idx.table.clone();
        // Refines that keep every band key touch nothing, checked after each
        // one: a remove-and-refile can swap slots that a later one swaps back.
        for _ in 0..20 {
            for id in 0..64 {
                idx.insert(id, &sets[id as usize]);
                assert!(idx.table == layout, "refining {id} moved a slot");
            }
        }
        // Refines that change the keys, round after round.
        for round in 1..=20u64 {
            for id in 0..64 {
                idx.insert(id, &chip(u64::from(id) + 1000 * round));
            }
            assert_eq!(idx.table.len(), capacity, "round {round} grew the table");
            assert_eq!(pairs(&idx), expected_pairs(&idx), "round {round}");
        }
        for id in 0..64 {
            assert!(
                idx.candidates(&chip(u64::from(id) + 20_000)).contains(&id),
                "entry {id} is no longer routed"
            );
        }
        let vacant = idx.table.iter().filter(|s| s.id == EMPTY).count();
        assert!(2 * vacant >= idx.table.len(), "load factor passed one half");
    }

    #[test]
    fn growth_keeps_every_pair_reachable() {
        let mut idx = LshIndex::new(4, 2, 10);
        // Out-of-order ids exercise insertion in the middle of the array.
        for id in (0..200).rev().step_by(2).chain((0..200).step_by(2)) {
            idx.insert(id, &chip(u64::from(id)));
        }
        assert!(idx.covers(200));
        assert_eq!(pairs(&idx), expected_pairs(&idx));
        for id in 0..200 {
            assert!(idx.candidates(&chip(u64::from(id))).contains(&id));
        }
        for id in (0..200).step_by(3) {
            assert!(idx.remove(id));
        }
        assert_eq!(pairs(&idx), expected_pairs(&idx));
    }
}
