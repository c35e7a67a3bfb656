//! The fingerprint database and Algorithm 2 (identification).

use crate::batch::{add_comparisons, Parallelism};
use crate::{DistanceMetric, ErrorString, Fingerprint, LshIndex};
use pc_kernels::PackedErrors;

/// A database of labelled device fingerprints with threshold identification —
/// **Algorithm 2**.
///
/// Labels are generic: chip serials, user handles, machine names. Each
/// fingerprint is stored once, packed, and scored in that form;
/// [`entry`](FingerprintDb::entry) and [`iter`](FingerprintDb::iter) unpack
/// owned copies.
///
/// # Example
///
/// ```
/// use probable_cause::{ErrorString, Fingerprint, FingerprintDb, PcDistance};
/// let mut db = FingerprintDb::new(PcDistance::new(), 0.25);
/// let fp = Fingerprint::from_observation(ErrorString::from_sorted(vec![3, 7, 11], 64)?);
/// db.insert("chip-A", fp);
///
/// let output = ErrorString::from_sorted(vec![3, 7, 11, 40], 64)?;
/// assert_eq!(db.identify(&output), Some(&"chip-A"));
/// let stranger = ErrorString::from_sorted(vec![0, 1, 2], 64)?;
/// assert_eq!(db.identify(&stranger), None);
/// # Ok::<(), probable_cause::BitStringError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FingerprintDb<L, M = crate::PcDistance> {
    /// Each entry's label and observation count, in insertion order.
    entries: Vec<(L, u32)>,
    /// Each entry's error string, packed, in the same order: the one stored
    /// copy, which every lookup scores with the popcount kernels.
    packed: Vec<PackedErrors>,
    metric: M,
    threshold: f64,
}

impl<L, M: DistanceMetric> FingerprintDb<L, M> {
    /// Creates an empty database using `metric` with the given matching
    /// `threshold`.
    ///
    /// # Panics
    ///
    /// Panics unless `threshold` is in `(0, 1]`.
    pub fn new(metric: M, threshold: f64) -> Self {
        assert!(
            threshold > 0.0 && threshold <= 1.0,
            "threshold must be in (0, 1], got {threshold}"
        );
        Self {
            entries: Vec::new(),
            packed: Vec::new(),
            metric,
            threshold,
        }
    }

    /// The matching threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The distance metric in use.
    pub fn metric(&self) -> &M {
        &self.metric
    }

    /// Number of fingerprints stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Adds a labelled fingerprint; its positions are stored packed.
    pub fn insert(&mut self, label: L, fingerprint: Fingerprint) {
        self.packed.push(fingerprint.errors().to_packed());
        self.entries.push((label, fingerprint.observations()));
    }

    /// Replaces the fingerprint of entry `id` in place, keeping its label
    /// and re-packing its error string. Returns whether `id` exists; when
    /// it does not, nothing changes.
    pub fn replace(&mut self, id: usize, fingerprint: Fingerprint) -> bool {
        let exists = id < self.len();
        if exists {
            self.entries[id].1 = fingerprint.observations();
            self.packed[id] = fingerprint.errors().to_packed();
        }
        exists
    }

    /// Iterates over `(label, fingerprint)` entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&L, Fingerprint)> {
        (0..self.len()).filter_map(|id| self.entry(id))
    }

    /// The entry with insertion-order id `id`, if it exists, unpacked. Ids
    /// are the coordinates [`LshIndex`] candidates are expressed in.
    pub fn entry(&self, id: usize) -> Option<(&L, Fingerprint)> {
        let (label, observations) = self.entries.get(id)?;
        let errors = ErrorString::from_packed(&self.packed[id]);
        Some((label, Fingerprint::from_parts(errors, *observations)))
    }

    /// The labels in insertion order; nothing is unpacked.
    pub fn labels(&self) -> impl Iterator<Item = &L> {
        self.entries.iter().map(|(label, _)| label)
    }

    /// Builds an [`LshIndex`] over every stored fingerprint (entry id =
    /// insertion order), unpacking and signing each across scoped threads
    /// ([`Parallelism::auto`]); the index does not depend on the thread count.
    pub fn build_index(&self, bands: usize, rows_per_band: usize, seed: u64) -> LshIndex {
        // The tasks borrow only the packed strings: labels need not be `Sync`.
        let packed = &self.packed;
        LshIndex::build(
            bands,
            rows_per_band,
            seed,
            packed.len(),
            |id| ErrorString::from_packed(&packed[id]),
            Parallelism::auto(),
        )
    }

    /// Distances for the entry ids in `ids` (same order) — the candidate-set
    /// shape of indexed identification.
    fn distances_of(&self, ids: &[usize], error_string: &ErrorString) -> Vec<f64> {
        match self.metric.kind() {
            Some(kind) => {
                add_comparisons(kind, ids.len() as u64);
                pc_kernels::score_subset(
                    &self.packed,
                    ids,
                    &error_string.to_packed(),
                    kind,
                    Parallelism::single(),
                )
            }
            None => ids
                .iter()
                .map(|&id| {
                    self.metric
                        .distance(&ErrorString::from_packed(&self.packed[id]), error_string)
                })
                .collect(),
        }
    }
}

impl<L: Ord, M: DistanceMetric> FingerprintDb<L, M> {
    /// **Algorithm 2**: the stored fingerprint closest to `error_string`,
    /// provided its distance is below the threshold; `None` means "failed".
    ///
    /// Selection is deterministic: lowest distance wins, and an exact
    /// distance tie is broken by label order (`Ord`), never by insertion
    /// order. (The paper's pseudocode returns the first sub-threshold match;
    /// that made results depend silently on database construction order.)
    pub fn identify(&self, error_string: &ErrorString) -> Option<&L> {
        self.identify_with_distance(error_string).map(|(l, _)| l)
    }

    /// [`FingerprintDb::identify`], also reporting the winning distance.
    pub fn identify_with_distance(&self, error_string: &ErrorString) -> Option<(&L, f64)> {
        let _span = pc_telemetry::time!("core.db.identify");
        pc_telemetry::counter!("core.db.identify.comparisons").add(self.entries.len() as u64);
        let hit = self
            .identify_best(error_string)
            .filter(|&(_, d)| d < self.threshold);
        if hit.is_some() {
            pc_telemetry::counter!("core.db.identify.hits").incr();
        } else {
            pc_telemetry::counter!("core.db.identify.misses").incr();
        }
        hit
    }

    /// Exhaustive variant: the closest fingerprint and its distance,
    /// regardless of threshold (useful for calibrating thresholds and for
    /// the experiment harnesses). `None` only when the database is empty.
    /// Distance ties break by label order, like
    /// [`identify`](FingerprintDb::identify).
    pub fn identify_best(&self, error_string: &ErrorString) -> Option<(&L, f64)> {
        let all: Vec<usize> = (0..self.entries.len()).collect();
        self.closest_among(&all, error_string)
    }

    /// Identifies every probe: `out[i]` is what
    /// [`identify_with_distance`](FingerprintDb::identify_with_distance)
    /// returns for `probes[i]`, with probes scored across scoped threads in
    /// deterministic chunks — the result is identical for every thread
    /// count. This is the bulk shape of fleet-scale matching (many captured
    /// outputs against one database).
    pub fn identify_batch(&self, probes: &[ErrorString]) -> Vec<Option<(&L, f64)>>
    where
        L: Sync,
        M: Sync,
    {
        self.identify_batch_with(probes, Parallelism::auto())
    }

    /// [`identify_batch`](FingerprintDb::identify_batch) with an explicit
    /// thread budget (for benchmarks and determinism tests).
    pub fn identify_batch_with(
        &self,
        probes: &[ErrorString],
        par: Parallelism,
    ) -> Vec<Option<(&L, f64)>>
    where
        L: Sync,
        M: Sync,
    {
        let _span = pc_telemetry::time!("core.db.identify_batch");
        let all: Vec<usize> = (0..self.entries.len()).collect();
        // One probe per chunk: each item is a full candidate scan (µs–ms of
        // work), so the chunk claim is noise and per-item claims give the
        // threads the best balance — the old fixed chunk of 16 ran small
        // batches (< 16 probes) entirely inline.
        let results = pc_kernels::map_chunked(probes.len(), 1, par, |i| {
            // Each thread scores its probe single-threaded; parallelism
            // lives in the probe dimension.
            self.closest_among(&all, &probes[i])
                .filter(|&(_, d)| d < self.threshold)
        });
        pc_telemetry::counter!("core.db.identify.comparisons")
            .add((self.entries.len() * probes.len()) as u64);
        let hits = results.iter().filter(|r| r.is_some()).count() as u64;
        pc_telemetry::counter!("core.db.identify.hits").add(hits);
        pc_telemetry::counter!("core.db.identify.misses").add(probes.len() as u64 - hits);
        results
    }

    /// The entry among `ids` closest to `error_string`, regardless of
    /// threshold: lowest distance, ties broken by label order, as in
    /// [`identify`](FingerprintDb::identify). `None` when `ids` is empty.
    /// Scoring runs on the calling thread.
    ///
    /// # Panics
    ///
    /// Panics if an id is not an entry of this database.
    pub fn closest_among(&self, ids: &[usize], error_string: &ErrorString) -> Option<(&L, f64)> {
        let distances = self.distances_of(ids, error_string);
        let mut best: Option<(&L, f64)> = None;
        for (&id, &d) in ids.iter().zip(&distances) {
            let label = &self.entries[id].0;
            let better = match best {
                None => true,
                Some((best_label, best_d)) => d < best_d || (d == best_d && label < best_label),
            };
            if better {
                best = Some((label, d));
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PcDistance;

    fn es(bits: &[u64]) -> ErrorString {
        ErrorString::from_sorted(bits.to_vec(), 128).unwrap()
    }

    fn fp(bits: &[u64]) -> Fingerprint {
        Fingerprint::from_observation(es(bits))
    }

    #[test]
    fn identify_picks_lowest_distance() {
        let mut db = FingerprintDb::new(PcDistance::new(), 0.5);
        db.insert("b", fp(&[1, 2, 3, 5])); // distance 0.25 — also sub-threshold
        db.insert("a", fp(&[1, 2, 3, 4])); // distance 0, inserted second
        let probe = es(&[1, 2, 3, 4]);
        assert_eq!(db.identify(&probe), Some(&"a"));
        let (label, d) = db.identify_with_distance(&probe).unwrap();
        assert_eq!((label, d), (&"a", 0.0));
    }

    #[test]
    fn identify_breaks_distance_ties_by_label_order() {
        let mut db = FingerprintDb::new(PcDistance::new(), 0.5);
        // Identical fingerprints: every probe is equidistant from both.
        db.insert("zeta", fp(&[1, 2, 3, 4]));
        db.insert("alpha", fp(&[1, 2, 3, 4]));
        let probe = es(&[1, 2, 3, 40]);
        // Label order decides, not insertion order.
        assert_eq!(db.identify(&probe), Some(&"alpha"));
        assert_eq!(db.identify_best(&probe).unwrap().0, &"alpha");
    }

    #[test]
    fn index_routed_identify_agrees_with_linear_scan() {
        let mut db = FingerprintDb::new(PcDistance::new(), 0.5);
        for chip in 0..16u32 {
            let bits: Vec<u64> = (0..8).map(|i| chip as u64 * 8 + i).collect();
            db.insert(chip, Fingerprint::from_observation(es(&bits)));
        }
        let index = db.build_index(16, 2, 99);
        for chip in 0..16u32 {
            let bits: Vec<u64> = (0..8).map(|i| chip as u64 * 8 + i).collect();
            let probe = es(&bits);
            let ids: Vec<usize> = index
                .candidates(&probe)
                .iter()
                .map(|&id| id as usize)
                .collect();
            let routed = db.closest_among(&ids, &probe);
            assert_eq!(
                routed.filter(|&(_, d)| d < db.threshold()),
                db.identify_with_distance(&probe),
                "chip {chip}"
            );
        }
    }

    #[test]
    fn closest_among_scores_only_the_given_ids() {
        let mut db = FingerprintDb::new(PcDistance::new(), 0.25);
        db.insert("near", fp(&[1, 2, 3, 4]));
        db.insert("far-b", fp(&[1, 2, 90, 91]));
        db.insert("far-a", fp(&[1, 2, 92, 93]));
        let probe = es(&[1, 2, 3, 4]);
        assert_eq!(db.closest_among(&[0, 1], &probe), Some((&"near", 0.0)));
        // Above the threshold, and an exact tie broken by label order.
        assert_eq!(db.closest_among(&[1, 2], &probe), Some((&"far-a", 0.5)));
        assert_eq!(db.closest_among(&[], &probe), None);
    }

    #[test]
    fn replace_rewrites_the_stored_fingerprint() {
        let mut db = FingerprintDb::new(PcDistance::new(), 0.25);
        db.insert("a", fp(&[1, 2, 3, 4]));
        db.insert("b", fp(&[50, 60, 70, 80]));
        let refined = Fingerprint::from_parts(es(&[10, 11, 12, 13]), 3);
        assert!(db.replace(1, refined.clone()));
        assert_eq!(db.entry(1).unwrap(), (&"b", refined));
        // Scoring reads the stored form: the new bits match, the old ones no
        // longer do.
        assert_eq!(db.identify(&es(&[10, 11, 12, 13])), Some(&"b"));
        assert_eq!(db.identify(&es(&[50, 60, 70, 80])), None);
        assert!(!db.replace(2, fp(&[1])));
        assert_eq!(db.len(), 2);
    }

    #[test]
    fn identify_fails_above_threshold() {
        let mut db = FingerprintDb::new(PcDistance::new(), 0.25);
        db.insert("a", fp(&[1, 2, 3, 4]));
        assert_eq!(db.identify(&es(&[50, 60, 70])), None);
    }

    #[test]
    fn identify_best_ranks() {
        let mut db = FingerprintDb::new(PcDistance::new(), 0.25);
        db.insert("far", fp(&[90, 100, 110, 120]));
        db.insert("near", fp(&[1, 2, 3, 4]));
        let (label, d) = db.identify_best(&es(&[1, 2, 3, 40])).unwrap();
        assert_eq!(label, &"near");
        assert!((d - 0.25).abs() < 1e-12);
    }

    #[test]
    fn identify_best_empty_db() {
        let db: FingerprintDb<&str> = FingerprintDb::new(PcDistance::new(), 0.25);
        assert!(db.identify_best(&es(&[1])).is_none());
        assert!(db.is_empty());
    }

    #[test]
    #[should_panic(expected = "threshold must be")]
    fn zero_threshold_rejected() {
        let _: FingerprintDb<u8> = FingerprintDb::new(PcDistance::new(), 0.0);
    }
}
