//! The server's fingerprint store: one [`FingerprintDb`], the [`LshIndex`]
//! that routes identifies, and the online cluster book.
//!
//! Entry ids are the database's insertion order, the coordinate system of
//! the index and of [`probable_cause::persistence`]. The index always
//! covers every entry: [`ShardedStore::open`] adopts a persisted index only
//! when it holds exactly the database's ids and rebuilds it otherwise, and
//! every `characterize` re-signs the entry it writes. An identify asks the
//! index for the ids sharing a band key with the query, so only those
//! pay full modified-Jaccard distance, and scores them through
//! [`FingerprintDb::closest_among`] under the database's read lock, on the
//! dispatcher's thread (see [`crate::pool`]). A cluster-ingest is one
//! [`ClusterBook::ingest`]: the output is expanded to a dense view once and
//! each cluster's bit test stops at the threshold decision. Mutations
//! (characterize, cluster-ingest) are serialized by the dispatcher and take
//! the write locks they need.

use parking_lot::{Mutex, RwLock};
use pc_kernels::MetricKind;
use pc_telemetry::counter;
use probable_cause::persistence::{self, DbIoError};
use probable_cause::{
    Assignment, ClusterBook, DistanceMetric, ErrorString, Fingerprint, FingerprintDb, LshIndex,
    PcDistance,
};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Routing and matching parameters.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Bands of the routing index.
    pub bands: usize,
    /// Rows per band.
    pub rows_per_band: usize,
    /// Seed of the routing index's one-permutation hash.
    pub index_seed: u64,
    /// Matching threshold for identify and cluster-ingest.
    pub threshold: f64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        // 16×4 banding of the one-permutation index: every serving-shaped
        // re-observation (312 enrolled bits, 16 missing, 16 added: Jaccard
        // ≈ 0.9) found its chip in `crates/core/tests/index_recall.rs`, which
        // holds its recall to that of 16×4 MinHash, the family it replaced,
        // at each distance below the threshold; unrelated chips essentially
        // never collide.
        Self {
            bands: 16,
            rows_per_band: 4,
            index_seed: 0x5eed,
            threshold: 0.25,
        }
    }
}

/// A request-path failure inside the store, answered as a typed error so
/// the pool emits an `Error` frame instead of panicking into the
/// `catch_unwind` net.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// A plan group other than the store's one (group 0) was scored.
    MissingShard {
        /// The out-of-range group.
        shard: usize,
    },
    /// A candidate id the database does not hold (index drift).
    MissingEntry {
        /// The missing entry id.
        id: usize,
    },
    /// A refine failed (observation size disagrees with the fingerprint).
    Refine(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::MissingShard { shard } => {
                write!(f, "store plan group {shard} does not exist")
            }
            StoreError::MissingEntry { id } => write!(f, "store has no entry {id}"),
            StoreError::Refine(message) => f.write_str(message),
        }
    }
}

impl std::error::Error for StoreError {}

/// An identify's outcome: `Ok((label, distance))` when the closest
/// candidate clears the threshold, `Err(closest)` otherwise (with the
/// closest candidate scored, if any).
pub type Verdict = Result<(String, f64), Option<(String, f64)>>;

/// Entries a checkpoint copies out per hold of the database read lock.
/// Each hold lasts tens of microseconds; copying one entry per hold
/// instead made the lock traffic itself visible, raising a concurrent
/// `characterize`'s p99 about fourfold while saves ran back to back on a
/// 100k-chip store.
const SAVE_BATCH: usize = 64;

/// The index-routed fingerprint store plus the online cluster book. It is
/// one partition; the name is kept for API compatibility.
#[derive(Debug)]
pub struct ShardedStore {
    config: StoreConfig,
    /// Every fingerprint (id = insertion order), stored packed.
    db: RwLock<FingerprintDb<String, PcDistance>>,
    index: RwLock<LshIndex>,
    /// label → entry id. Held across every `characterize` and every index
    /// rebuild, so the two never interleave.
    labels: Mutex<BTreeMap<String, u32>>,
    /// Algorithm 4 state for `cluster-ingest`.
    clusters: Mutex<ClusterBook>,
    distance_evals: AtomicU64,
    /// Highest router write sequence this store has processed, live or via
    /// replay. Deliberately in-memory only: after a restart it resets to 0,
    /// which is exactly "re-apply everything since my last checkpoint" —
    /// the router's journal holds precisely the entries since this
    /// replica's last acked save.
    applied_wseq: AtomicU64,
}

impl ShardedStore {
    /// Creates an empty store.
    ///
    /// # Panics
    ///
    /// Panics if the banding is zero or the threshold is outside `(0, 1]`.
    pub fn new(config: StoreConfig) -> Self {
        let db = FingerprintDb::new(PcDistance::new(), config.threshold);
        let index = LshIndex::new(config.bands, config.rows_per_band, config.index_seed);
        Self::open(config, db, Some(index))
    }

    /// Builds a store that owns `db` and routes identifies through `index`
    /// when it covers exactly the database's ids `0..n` (see
    /// [`LshIndex::covers`]), taking the index's banding and the database's
    /// threshold; neither is cloned, re-packed or re-signed. Without an
    /// index, or with a stale or mismatched one, the index is rebuilt from
    /// the database with `config`'s banding before this returns, so a store
    /// never serves without a complete index.
    pub fn open(
        config: StoreConfig,
        db: FingerprintDb<String, PcDistance>,
        index: Option<LshIndex>,
    ) -> Self {
        let mut config = config;
        config.threshold = db.threshold();
        let index = match index {
            Some(index) if index.covers(db.len()) => {
                config.bands = index.bands();
                config.rows_per_band = index.rows_per_band();
                config.index_seed = index.seed();
                index
            }
            missing_or_stale => {
                if missing_or_stale.is_some() {
                    counter!("service.recovery.index_mismatch").incr();
                }
                build_index(&db, &config)
            }
        };
        let labels = db
            .labels()
            .enumerate()
            .map(|(id, label)| (label.clone(), id as u32))
            .collect();
        // `PcDistance` always has a packed form; the fallback only keeps
        // this path panic-free.
        let kind = PcDistance::new().kind().unwrap_or(MetricKind::PcJaccard);
        let clusters = ClusterBook::new(kind, config.threshold);
        Self {
            config,
            db: RwLock::new(db),
            index: RwLock::new(index),
            labels: Mutex::new(labels),
            clusters: Mutex::new(clusters),
            distance_evals: AtomicU64::new(0),
            applied_wseq: AtomicU64::new(0),
        }
    }

    /// Builds a store from a copy of `db` and the persisted `index`,
    /// validating that the index covers exactly the database's ids.
    ///
    /// # Errors
    ///
    /// A mismatch error when the index does not cover exactly the ids
    /// `0..db.len()`.
    pub fn from_db_with_index(
        config: StoreConfig,
        db: &FingerprintDb<String, PcDistance>,
        index: LshIndex,
    ) -> Result<Self, DbIoError> {
        if !index.covers(db.len()) {
            return Err(DbIoError::BadFormat {
                line: 0,
                message: format!(
                    "index holds {} entries, not exactly the database's ids 0..{}",
                    index.len(),
                    db.len()
                ),
            });
        }
        Ok(Self::open(config, db.clone(), Some(index)))
    }

    /// The store's configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// The matching threshold.
    pub fn threshold(&self) -> f64 {
        self.config.threshold
    }

    /// Fingerprints stored. Takes only the database read lock, never the
    /// label book.
    pub fn len(&self) -> usize {
        self.db.read().len()
    }

    /// Whether no fingerprints are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clusters formed by [`ShardedStore::cluster_ingest`] so far.
    pub fn cluster_count(&self) -> usize {
        self.clusters.lock().len()
    }

    /// Full distance evaluations paid by scoring since construction.
    pub fn distance_evals(&self) -> u64 {
        self.distance_evals.load(Ordering::Relaxed)
    }

    /// The ids `errors` must be scored against: its LSH candidates.
    fn candidates(&self, errors: &ErrorString) -> Vec<u32> {
        let ids = self.index.read().candidates(errors);
        counter!("service.store.candidates").add(ids.len() as u64);
        ids
    }

    /// The LSH candidate ids for `errors` as plan groups for
    /// [`ShardedStore::score_shard`]: the store is one partition, so one
    /// group (possibly empty). Also returns the total candidate count.
    pub fn plan_identify(&self, errors: &ErrorString) -> (Vec<Vec<u32>>, usize) {
        let ids = self.candidates(errors);
        let total = ids.len();
        (vec![ids], total)
    }

    /// Scores plan group `shard` (the candidate `ids`) against `errors`,
    /// returning the closest candidate as `(label, distance)`: lowest
    /// distance, ties by label order, as [`FingerprintDb::identify`] picks.
    ///
    /// # Errors
    ///
    /// [`StoreError`] when `shard` is not 0 or an id is not in the
    /// database (a bug, but one that must answer an `Error` frame rather
    /// than panic).
    pub fn score_shard(
        &self,
        shard: usize,
        ids: &[u32],
        errors: &ErrorString,
    ) -> Result<Option<(String, f64)>, StoreError> {
        let _span = pc_telemetry::time!("service.store.score");
        if shard != 0 {
            return Err(StoreError::MissingShard { shard });
        }
        let ids: Vec<usize> = ids.iter().map(|&id| id as usize).collect();
        let db = self.db.read();
        if let Some(&id) = ids.iter().find(|&&id| id >= db.len()) {
            return Err(StoreError::MissingEntry { id });
        }
        let best = db
            // pc-allow: C003 — `closest_among` scores on this thread with `Parallelism::single()`, so `map_chunked` runs inline and joins no thread
            .closest_among(&ids, errors)
            .map(|(label, d)| (label.clone(), d));
        self.distance_evals
            .fetch_add(ids.len() as u64, Ordering::Relaxed);
        counter!("service.store.distance_evals").add(ids.len() as u64);
        Ok(best)
    }

    /// The verdict on the closest candidate [`ShardedStore::score_shard`]
    /// found: a match when it clears the threshold. The store is one
    /// partition, so a plan has one group and `partials` at most one entry.
    pub fn merge_verdict(&self, partials: impl IntoIterator<Item = (String, f64)>) -> Verdict {
        let mut partials = partials.into_iter();
        let best = partials.next();
        debug_assert!(partials.next().is_none(), "one plan group, one partial");
        match best {
            Some((label, d)) if d < self.config.threshold => Ok((label, d)),
            other => Err(other),
        }
    }

    /// Answers one identify: plans, scores the candidates, and applies the
    /// threshold.
    ///
    /// # Errors
    ///
    /// [`StoreError`] when a candidate is missing from the database.
    pub fn identify(&self, errors: &ErrorString) -> Result<Verdict, StoreError> {
        let best = self.score_shard(0, &self.candidates(errors), errors)?;
        Ok(self.merge_verdict(best))
    }

    /// Incremental Algorithm 1: refines the labelled fingerprint with one
    /// more observation, creating the label if it is new. Returns
    /// `(weight, observations, created)` for the post-update fingerprint.
    ///
    /// # Errors
    ///
    /// [`StoreError::Refine`] when the observation's size disagrees with
    /// the stored fingerprint.
    pub fn characterize(
        &self,
        label: &str,
        errors: &ErrorString,
    ) -> Result<(u64, u32, bool), StoreError> {
        // The label book is held across the whole mutation so no refine can
        // interleave with an index rebuild (which also holds it): every
        // mutation lands either fully before or fully after the rebuild's
        // snapshot.
        let mut labels = self.labels.lock();
        let mut db = self.db.write();
        let Some(id) = labels.get(label).copied() else {
            let fp = Fingerprint::from_observation(errors.clone());
            let (weight, observations) = (fp.weight(), fp.observations());
            let id = db.len() as u32;
            self.index.write().insert(id, fp.errors());
            db.insert(label.to_string(), fp);
            labels.insert(label.to_string(), id);
            counter!("service.store.characterize.created").incr();
            return Ok((weight, observations, true));
        };
        let Some((_, fp)) = db.entry(id as usize) else {
            return Err(StoreError::MissingEntry { id: id as usize });
        };
        let refined = fp
            .refine(errors)
            .map_err(|e| StoreError::Refine(format!("cannot refine {label:?}: {e}")))?;
        self.index.write().insert(id, refined.errors());
        let (weight, observations) = (refined.weight(), refined.observations());
        db.replace(id as usize, refined);
        counter!("service.store.characterize.refined").incr();
        Ok((weight, observations, false))
    }

    /// Rebuilds the routing index from the database. Holds the label book
    /// for the duration, so mutations queue behind the rebuild while
    /// identifies keep routing through the old index.
    pub fn rebuild_index(&self) {
        let labels = self.labels.lock();
        let index = build_index(&self.db.read(), &self.config);
        *self.index.write() = index;
        drop(labels);
    }

    /// Online Algorithm 4: assigns `errors` to the first cluster within the
    /// threshold (refining it) or seeds a new one, through the store's
    /// [`ClusterBook`]. Returns `(cluster_id, seeded, total_clusters)`.
    ///
    /// First-match semantics follow the paper's pseudocode; ingests are
    /// serialized by the dispatcher, so cluster ids are deterministic for a
    /// given arrival order.
    ///
    /// # Errors
    ///
    /// [`StoreError::Refine`] when the observation's size disagrees with
    /// the matched cluster's fingerprint; the book is left unchanged.
    pub fn cluster_ingest(&self, errors: &ErrorString) -> Result<(u64, bool, u64), StoreError> {
        let _span = pc_telemetry::time!("service.store.cluster_ingest");
        let mut clusters = self.clusters.lock();
        let outcome = clusters.ingest(errors);
        let compared = match &outcome {
            Ok(assigned) => assigned.compared,
            Err(refused) => refused.compared,
        };
        self.distance_evals.fetch_add(compared, Ordering::Relaxed);
        let Assignment {
            cluster, seeded, ..
        } = outcome.map_err(|refused| StoreError::Refine(refused.to_string()))?;
        if seeded {
            counter!("service.store.cluster.seeded").incr();
        } else {
            counter!("service.store.cluster.refined").incr();
        }
        Ok((cluster as u64, seeded, clusters.len() as u64))
    }

    /// Records that a routed write stamped with `wseq` was processed
    /// live, advancing the applied-write watermark. Called by the
    /// dispatcher once the mutation ran (even if it was refused by
    /// validation — the journal entry for it would be refused again).
    pub fn note_routed_write(&self, wseq: u64) {
        self.applied_wseq.fetch_max(wseq, Ordering::AcqRel);
    }

    /// The highest router write sequence this store has processed.
    pub fn applied_wseq(&self) -> u64 {
        self.applied_wseq.load(Ordering::Acquire)
    }

    /// Applies a router journal replay batch in original order, returning
    /// `(applied, skipped)`. Entries at or below the applied-write
    /// watermark were already processed live (the router force-downs a
    /// replica on *any* unacked write, including plain timeouts where no
    /// state was lost) and are skipped — characterize and cluster-ingest
    /// refine weights, so re-applying them would diverge this replica
    /// from its siblings permanently. Entries that fail store validation
    /// (size mismatch against an existing fingerprint) are skipped
    /// rather than aborting the batch: replay must make maximal progress
    /// toward convergence, and the router keeps the journal until a
    /// durability checkpoint anyway.
    pub fn apply_replay(&self, entries: &[crate::protocol::SequencedEntry]) -> (u64, u64) {
        use crate::protocol::ReplayEntry;
        let mut applied = 0u64;
        let mut skipped = 0u64;
        for sequenced in entries {
            // seq 0 predates sequencing (or is a hand-built batch): always
            // apply, since the watermark itself starts at 0.
            if sequenced.seq != 0 && sequenced.seq <= self.applied_wseq() {
                counter!("service.store.replay_skipped").incr();
                skipped = skipped.saturating_add(1);
                continue;
            }
            let ok = match &sequenced.entry {
                ReplayEntry::Characterize { label, errors } => {
                    self.characterize(label, errors).is_ok()
                }
                ReplayEntry::ClusterIngest { errors } => self.cluster_ingest(errors).is_ok(),
            };
            if ok {
                applied = applied.saturating_add(1);
            }
            self.applied_wseq.fetch_max(sequenced.seq, Ordering::AcqRel);
        }
        (applied, skipped)
    }

    /// A copy of the database (id order, the persistence format's
    /// coordinate system).
    pub fn to_db(&self) -> FingerprintDb<String, PcDistance> {
        self.db.read().clone()
    }

    /// Writes the database (id order) to `w`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save_db<W: Write>(&self, w: W) -> std::io::Result<()> {
        self.stream_db(w).map(|_| ())
    }

    /// Streams the database image (id order) into `w`, returning the
    /// entries written: the bytes [`persistence::save_db`] renders for
    /// [`ShardedStore::to_db`], without building that copy.
    ///
    /// Entries are copied out [`SAVE_BATCH`] at a time under the database
    /// read lock, so no store lock is held while the image is rendered or
    /// written and a concurrent `characterize` waits for at most one
    /// batch's copy. The image covers the ids stored when the save began; a
    /// write racing the save lands in it or not batch by batch (router
    /// checkpoints run under the mutation lock, so none race them).
    fn stream_db<W: Write>(&self, w: W) -> std::io::Result<u64> {
        let n = self.len();
        let batches = (0..n).step_by(SAVE_BATCH).map(|start| {
            let db = self.db.read();
            (start..n.min(start + SAVE_BATCH))
                .filter_map(|id| db.entry(id).map(|(l, fp)| (l.clone(), fp)))
                .collect::<Vec<_>>()
        });
        persistence::write_db_image(w, self.config.threshold, batches.flatten())
    }

    /// Writes the routing index to `w`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save_index<W: Write>(&self, w: W) -> std::io::Result<()> {
        persistence::save_index(&self.index.read(), w)
    }

    /// Persists the database and the index crash-safely via
    /// [`persistence::atomic_write`], streaming each image from the live
    /// store into its tmp file: no flat copy of the database is built, the
    /// database image is written with no store lock held, and the index
    /// read lock is released before the fsync. Returns the number of
    /// fingerprints written.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors (including injected `persist.*` faults).
    pub fn save_to_paths(
        &self,
        db_path: Option<&Path>,
        index_path: Option<&Path>,
    ) -> std::io::Result<u64> {
        let mut written = self.len() as u64;
        if let Some(path) = db_path {
            written = persistence::atomic_write(path, |w| self.stream_db(w))?;
        }
        if let Some(path) = index_path {
            persistence::atomic_write(path, |w| self.save_index(w))?;
        }
        Ok(written)
    }
}

/// Signs every entry of `db` into a new index with `config`'s banding: the
/// one build path, counted in `service.store.index_rebuilt`.
fn build_index(db: &FingerprintDb<String, PcDistance>, config: &StoreConfig) -> LshIndex {
    let _span = pc_telemetry::time!("service.store.rebuild_index");
    counter!("service.store.index_rebuilt").incr();
    db.build_index(config.bands, config.rows_per_band, config.index_seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn es(bits: &[u64]) -> ErrorString {
        ErrorString::from_sorted(bits.to_vec(), 4096).unwrap()
    }

    fn chip_bits(chip: u64) -> Vec<u64> {
        (0..40).map(|i| chip * 40 + i).collect()
    }

    fn populated() -> ShardedStore {
        let store = ShardedStore::new(StoreConfig {
            threshold: 0.3,
            ..StoreConfig::default()
        });
        for chip in 0..10u64 {
            store
                .characterize(&format!("chip-{chip:02}"), &es(&chip_bits(chip)))
                .unwrap();
        }
        store
    }

    #[test]
    fn identify_matches_flat_db_reference() {
        let store = populated();
        let db = store.to_db();
        for chip in 0..10u64 {
            let mut bits = chip_bits(chip);
            bits.push(4000 + chip); // one noise bit
            let probe = es(&bits);
            let served = store.identify(&probe).unwrap().ok();
            let flat = db
                .identify_with_distance(&probe)
                .map(|(l, d)| (l.clone(), d));
            assert_eq!(served, flat, "chip {chip}");
            // The plan / score / merge steps compose to the same answer.
            let (plan, total) = store.plan_identify(&probe);
            assert_eq!((plan.len(), plan[0].len()), (1, total));
            let best = store.score_shard(0, &plan[0], &probe).unwrap();
            assert_eq!(store.merge_verdict(best).ok(), flat, "chip {chip}");
            assert_eq!(
                store.score_shard(1, &plan[0], &probe),
                Err(StoreError::MissingShard { shard: 1 })
            );
        }
    }

    #[test]
    fn characterize_refines_and_reroutes() {
        let store = populated();
        let (w1, o1, created) = store
            .characterize("chip-00", &es(&chip_bits(0)[..30]))
            .unwrap();
        assert!(!created);
        assert_eq!(o1, 2);
        assert_eq!(w1, 30);
        // The refined fingerprint must still be found via the index.
        let (label, _) = store.identify(&es(&chip_bits(0)[..30])).unwrap().unwrap();
        assert_eq!(label, "chip-00");
    }

    #[test]
    fn characterize_size_mismatch_is_an_error() {
        let store = populated();
        let wrong = ErrorString::from_sorted(vec![1, 2], 64).unwrap();
        assert!(store.characterize("chip-00", &wrong).is_err());
        // A fresh label with an unusual size is fine: sizes are per-label.
        assert!(store.characterize("other", &wrong).unwrap().2);
    }

    #[test]
    fn cluster_ingest_follows_algorithm_4() {
        let store = ShardedStore::new(StoreConfig {
            threshold: 0.3,
            ..StoreConfig::default()
        });
        let a = es(&[1, 2, 3, 4]);
        let b = es(&[100, 200, 300, 400]);
        assert_eq!(store.cluster_ingest(&a).unwrap(), (0, true, 1));
        assert_eq!(store.cluster_ingest(&b).unwrap(), (1, true, 2));
        assert_eq!(
            store.cluster_ingest(&es(&[1, 2, 3, 9])).unwrap(),
            (0, false, 2)
        );
        assert_eq!(store.cluster_count(), 2);
    }

    #[test]
    fn cluster_ingest_refuses_a_size_mismatched_first_match() {
        let store = ShardedStore::new(StoreConfig {
            threshold: 0.3,
            ..StoreConfig::default()
        });
        store.cluster_ingest(&es(&[1, 2, 3, 4])).unwrap();
        store.cluster_ingest(&es(&[100, 200, 300, 400])).unwrap();
        let before = store.clusters.lock().clusters();
        let evals = store.distance_evals();
        // Positions are compared verbatim, so a wider string can match.
        let wider = ErrorString::from_sorted(vec![100, 200, 300, 400], 8192).unwrap();
        assert_eq!(
            store.cluster_ingest(&wider),
            Err(StoreError::Refine(
                "cannot refine cluster 1: size mismatch: 4096 bits vs 8192 bits".to_string()
            ))
        );
        assert_eq!(store.distance_evals() - evals, 2, "both clusters compared");
        assert_eq!(store.cluster_count(), 2);
        assert_eq!(store.clusters.lock().clusters(), before);
        // The book keeps serving: a matching output refines cluster 1.
        assert_eq!(
            store.cluster_ingest(&es(&[100, 200, 300, 401])).unwrap(),
            (1, false, 2)
        );
    }

    #[test]
    fn unknown_probe_reports_closest_or_nothing() {
        let store = populated();
        // Far from everything and sharing no band: no candidates at all.
        let stranger = es(&[2000, 2100, 2200, 2300]);
        match store.identify(&stranger).unwrap() {
            Err(closest) => {
                if let Some((_, d)) = closest {
                    assert!(d >= store.threshold());
                }
            }
            Ok(hit) => panic!("stranger matched {hit:?}"),
        }
    }

    #[test]
    fn persistence_roundtrip_is_byte_identical() {
        let store = populated();
        let (mut db1, mut idx1) = (Vec::new(), Vec::new());
        store.save_db(&mut db1).unwrap();
        store.save_index(&mut idx1).unwrap();

        let restored = ShardedStore::open(
            StoreConfig::default(),
            persistence::load_db(db1.as_slice()).unwrap(),
            Some(persistence::load_index(idx1.as_slice()).unwrap()),
        );
        assert_eq!(restored.len(), store.len());

        let (mut db2, mut idx2) = (Vec::new(), Vec::new());
        restored.save_db(&mut db2).unwrap();
        restored.save_index(&mut idx2).unwrap();
        assert_eq!(db1, db2, "database save/load/save must be byte-identical");
        assert_eq!(idx1, idx2, "index save/load/save must be byte-identical");

        // And the restored store still identifies.
        let (label, _) = restored.identify(&es(&chip_bits(7))).unwrap().unwrap();
        assert_eq!(label, "chip-07");
    }

    #[test]
    fn saving_writes_with_no_store_lock_held() {
        use std::sync::{mpsc, Arc};
        use std::thread::JoinHandle;
        use std::time::Duration;

        /// On each write, refines a fingerprint from another thread and
        /// waits for it: a store lock held across the write would keep the
        /// refine from finishing (the timeout only ends a failing wait).
        struct Racing {
            store: Arc<ShardedStore>,
            writes: usize,
            blocked: bool,
            refines: Vec<JoinHandle<()>>,
        }
        impl Write for Racing {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.writes += 1;
                if !self.blocked {
                    let store = Arc::clone(&self.store);
                    let (done, finished) = mpsc::channel();
                    self.refines.push(std::thread::spawn(move || {
                        store.characterize("chip-001", &es(&chip_bits(1))).unwrap();
                        let _ = done.send(());
                    }));
                    self.blocked = finished.recv_timeout(Duration::from_secs(10)).is_err();
                }
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        // Enough entries that the image reaches the writer mid-stream.
        let store = Arc::new(ShardedStore::new(StoreConfig::default()));
        for chip in 0..600u64 {
            let label = format!("chip-{chip:03}");
            store
                .characterize(&label, &es(&chip_bits(chip % 100)))
                .unwrap();
        }
        let mut w = Racing {
            store: Arc::clone(&store),
            writes: 0,
            blocked: false,
            refines: Vec::new(),
        };
        store.save_db(&mut w).unwrap();
        for refine in w.refines {
            refine.join().unwrap();
        }
        assert!(w.writes > 1, "the image must arrive in several writes");
        assert!(!w.blocked, "a write waited on a store lock");
    }

    #[test]
    fn open_adopts_only_an_index_covering_exactly_its_ids() {
        let db = populated().to_db();
        let config = StoreConfig::default();
        let image = |index: &LshIndex| {
            let mut out = Vec::new();
            persistence::save_index(index, &mut out).unwrap();
            out
        };
        let saved = |store: &ShardedStore| {
            let mut out = Vec::new();
            store.save_index(&mut out).unwrap();
            out
        };
        let rebuilt = image(&db.build_index(config.bands, config.rows_per_band, config.index_seed));

        // A covering index is adopted as it stands, banding included.
        let covering = db.build_index(8, 2, 7);
        let adopted =
            ShardedStore::from_db_with_index(config.clone(), &db, covering.clone()).unwrap();
        let opened = ShardedStore::open(config.clone(), db.clone(), Some(covering.clone()));
        for store in [&adopted, &opened] {
            assert_eq!(store.config().index_seed, 7);
            assert_eq!(saved(store), image(&covering));
        }

        // Missing, short by one entry, or naming an id the database lacks:
        // refused by `from_db_with_index`, rebuilt by `open`.
        let mut short = covering.clone();
        short.remove(9);
        let mut out_of_range = short.clone();
        out_of_range.insert(10, db.entry(9).unwrap().1.errors());
        assert_eq!(out_of_range.len(), db.len());
        for (case, index) in [
            ("missing", None),
            ("short", Some(short)),
            ("out of range", Some(out_of_range)),
        ] {
            if let Some(index) = &index {
                assert!(
                    ShardedStore::from_db_with_index(config.clone(), &db, index.clone()).is_err(),
                    "{case} index adopted"
                );
            }
            let store = ShardedStore::open(config.clone(), db.clone(), index);
            assert_eq!(saved(&store), rebuilt, "{case} index not rebuilt");
            // The rebuilt index routes the first identify.
            let before = store.distance_evals();
            let (label, _) = store.identify(&es(&chip_bits(9))).unwrap().unwrap();
            assert_eq!(label, "chip-09", "{case}");
            assert!(
                store.distance_evals() - before < db.len() as u64,
                "{case}: identify scanned the store"
            );
        }
    }

    #[test]
    fn distance_evals_counts_scored_candidates() {
        let store = populated();
        let before = store.distance_evals();
        let _ = store.identify(&es(&chip_bits(3)));
        let evals = store.distance_evals() - before;
        assert!(evals >= 1, "the true chip must be scored");
        assert!(
            evals < 10,
            "LSH routing should prune most of the 10 chips, scored {evals}"
        );
    }
}
