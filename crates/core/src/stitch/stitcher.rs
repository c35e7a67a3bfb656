//! The stitching engine.

use crate::index::OphSigner;
use crate::{ErrorString, Fingerprint, PcDistance};
use std::collections::BTreeMap;

/// How a cluster's page fingerprint absorbs a new observation of the same
/// physical page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefineRule {
    /// Intersection (Algorithm 1): keeps only always-failing cells. Right
    /// when outputs charge (approximately) every cell — the paper's
    /// worst-case data and its §7.6 emulation.
    Intersect,
    /// Union: accumulates every observed failure. Right when outputs carry
    /// arbitrary data, so each observation only exposes the volatile cells
    /// its data happened to charge.
    Union,
}

/// Stitcher configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StitchConfig {
    /// Page-match threshold for the distance metric during alignment
    /// verification.
    pub distance_threshold: f64,
    /// Pages with fewer error bits than this are stored but neither indexed
    /// nor counted during verification (low-information pages, e.g. blank
    /// regions of a file).
    pub min_page_weight: u64,
    /// Minimum number of verified page matches for an alignment to be
    /// accepted (the paper stitches on any overlap; raise this to trade
    /// recall for precision).
    pub min_overlap_pages: usize,
    /// Fraction of checked overlap pages that must match for acceptance.
    pub min_agreement: f64,
    /// LSH bands.
    pub bands: usize,
    /// Rows per band: each band folds this many of the `bands × rows`
    /// one-permutation bins the pages are signed into.
    pub rows_per_band: usize,
    /// Candidate alignments (by vote count) verified per observation.
    pub max_candidates: usize,
    /// How page fingerprints absorb repeat observations.
    pub refine: RefineRule,
    /// Seed of the one-permutation hash the pages are signed with.
    pub seed: u64,
}

impl Default for StitchConfig {
    /// Tuned for worst-case-data outputs (every cell charged), the regime of
    /// the paper's §7.6 emulation: same-page observations are near-identical,
    /// so rows-per-band can be high and the threshold tight.
    fn default() -> Self {
        Self {
            distance_threshold: 0.35,
            min_page_weight: 8,
            min_overlap_pages: 1,
            min_agreement: 0.6,
            bands: 8,
            rows_per_band: 2,
            max_candidates: 16,
            refine: RefineRule::Intersect,
            seed: 0x5717_C4E6,
        }
    }
}

impl StitchConfig {
    /// Preset for data-dependent outputs: two observations of one physical
    /// page share only the cells charged by both payloads (Jaccard ≈ 1/3 for
    /// independent data), so banding is shallow, the threshold is loose, and
    /// fingerprints grow by union.
    pub fn data_dependent() -> Self {
        Self {
            distance_threshold: 0.75,
            min_page_weight: 8,
            min_overlap_pages: 1,
            min_agreement: 0.5,
            bands: 16,
            rows_per_band: 1,
            max_candidates: 24,
            refine: RefineRule::Union,
            ..Self::default()
        }
    }
}

type ClusterId = usize;

#[derive(Debug, Clone)]
struct Cluster {
    /// Page fingerprints keyed by cluster-relative page offset.
    pages: BTreeMap<i64, Fingerprint>,
}

/// Assembles whole-memory fingerprints from outputs observed one at a time —
/// the eavesdropping attacker's core data structure (paper §4, Fig. 4).
///
/// Call [`Stitcher::observe`] per output; [`Stitcher::suspected_chips`] is
/// the Fig. 13 y-axis.
///
/// # Example
///
/// ```
/// use probable_cause::{ErrorString, StitchConfig, Stitcher};
///
/// // Two outputs overlapping in one "physical page" with identical errors.
/// let page = |bits: &[u64]| ErrorString::from_unsorted(bits.to_vec(), 4096).unwrap();
/// let shared = page(&[3, 100, 777, 900, 1234, 2000, 2500, 3000, 3500]);
/// let a = vec![page(&[1, 50, 60, 70, 80, 90, 110, 120]), shared.clone()];
/// let b = vec![shared.clone(), page(&[9, 10, 11, 12, 13, 14, 15, 3000])];
///
/// let mut st = Stitcher::new(4096, StitchConfig::default());
/// st.observe(&a);
/// st.observe(&b);
/// assert_eq!(st.suspected_chips(), 1); // the overlap fused them
/// ```
#[derive(Debug)]
pub struct Stitcher {
    config: StitchConfig,
    signer: OphSigner,
    metric: PcDistance,
    clusters: Vec<Option<Cluster>>,
    parent: Vec<ClusterId>,
    /// Per band: bucket key → (cluster, cluster-relative offset) postings.
    index: Vec<BTreeMap<u64, Vec<(ClusterId, i64)>>>,
    live: usize,
    page_bits: u64,
    observations: u64,
}

impl Stitcher {
    /// Creates a stitcher for pages of `page_bits` bits.
    ///
    /// # Panics
    ///
    /// Panics if `page_bits` is zero or the config thresholds are out of
    /// range.
    pub fn new(page_bits: u64, config: StitchConfig) -> Self {
        assert!(page_bits > 0, "page size must be positive");
        assert!(
            config.distance_threshold > 0.0 && config.distance_threshold <= 1.0,
            "distance threshold must be in (0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&config.min_agreement),
            "agreement must be in [0, 1]"
        );
        let signer = OphSigner::new(config.bands, config.rows_per_band, config.seed);
        Self {
            index: (0..config.bands).map(|_| BTreeMap::new()).collect(),
            config,
            signer,
            metric: PcDistance::new(),
            clusters: Vec::new(),
            parent: Vec::new(),
            live: 0,
            page_bits,
            observations: 0,
        }
    }

    /// Page size in bits.
    pub fn page_bits(&self) -> u64 {
        self.page_bits
    }

    /// Number of outputs observed.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Current number of distinct suspected memories — the Fig. 13 metric.
    pub fn suspected_chips(&self) -> usize {
        self.live
    }

    /// Total pages held across live clusters (fingerprint coverage).
    pub fn total_pages(&self) -> usize {
        self.clusters.iter().flatten().map(|c| c.pages.len()).sum()
    }

    /// The canonical id of cluster `id` after merges.
    pub fn canonical(&self, mut id: ClusterId) -> ClusterId {
        while self.parent[id] != id {
            id = self.parent[id];
        }
        id
    }

    /// The page fingerprints of a live cluster, keyed by cluster-relative
    /// offset; `None` if the id was merged away and is not canonical.
    pub fn cluster_pages(&self, id: ClusterId) -> Option<&BTreeMap<i64, Fingerprint>> {
        self.clusters.get(id)?.as_ref().map(|c| &c.pages)
    }

    /// Iterates `(canonical id, page map)` over live clusters.
    pub fn iter_clusters(&self) -> impl Iterator<Item = (ClusterId, &BTreeMap<i64, Fingerprint>)> {
        self.clusters
            .iter()
            .enumerate()
            .filter_map(|(id, c)| c.as_ref().map(|c| (id, &c.pages)))
    }

    /// Validates an output and lists the verified `(cluster, alignment,
    /// matched pages)` candidates, best first.
    fn verified_alignments(&self, pages: &[ErrorString]) -> Vec<(ClusterId, i64, usize)> {
        let _span = pc_telemetry::time!("core.stitch.align");
        assert!(
            !pages.is_empty(),
            "an output must contain at least one page"
        );
        for p in pages {
            assert_eq!(p.size(), self.page_bits, "page size mismatch");
        }
        let usable: Vec<usize> = (0..pages.len())
            .filter(|&i| pages[i].weight() >= self.config.min_page_weight)
            .collect();

        // Phase 1: vote for candidate (cluster, alignment) pairs via LSH.
        let mut votes: BTreeMap<(ClusterId, i64), u32> = BTreeMap::new();
        for &i in &usable {
            for (band, key) in self.signer.band_keys(&pages[i]).into_iter().enumerate() {
                if let Some(postings) = self.index[band].get(&key) {
                    for &(cid, off) in postings {
                        let cid = self.canonical(cid);
                        if self.clusters[cid].is_some() {
                            *votes.entry((cid, off - i as i64)).or_insert(0) += 1;
                        }
                    }
                }
            }
        }

        // Phase 2: verify the top-voted alignments with the distance metric.
        let mut candidates: Vec<((ClusterId, i64), u32)> = votes.into_iter().collect();
        candidates.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        candidates.truncate(self.config.max_candidates);
        pc_telemetry::counter!("core.stitch.candidates").add(candidates.len() as u64);

        // Best accepted alignment per cluster: cid -> (delta, matched pages).
        let mut accepted: BTreeMap<ClusterId, (i64, usize)> = BTreeMap::new();
        for ((cid, delta), _votes) in candidates {
            if accepted.contains_key(&cid) {
                continue;
            }
            let cluster = self.clusters[cid]
                .as_ref()
                .expect("candidate cluster is live");
            let mut pairs: Vec<(&ErrorString, &ErrorString)> = Vec::with_capacity(usable.len());
            for &i in &usable {
                if let Some(fp) = cluster.pages.get(&(delta + i as i64)) {
                    if fp.errors().weight() < self.config.min_page_weight {
                        continue;
                    }
                    pairs.push((fp.errors(), &pages[i]));
                }
            }
            let checked = pairs.len();
            let matched = crate::batch::distance_pairs(&pairs, &self.metric)
                .into_iter()
                .filter(|&d| d < self.config.distance_threshold)
                .count();
            if checked > 0
                && matched >= self.config.min_overlap_pages
                && matched as f64 >= self.config.min_agreement * checked as f64
            {
                accepted.insert(cid, (delta, matched));
            }
        }

        let mut accepted: Vec<(ClusterId, i64, usize)> =
            accepted.into_iter().map(|(c, (d, m))| (c, d, m)).collect();
        accepted.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
        pc_telemetry::counter!("core.stitch.alignments_accepted").add(accepted.len() as u64);
        accepted
    }

    /// *Attributes* an output without ingesting it: which already-assembled
    /// system-level fingerprint (if any) does it come from, at what
    /// alignment, matching how many pages? This is the end goal of the
    /// eavesdropping attack — deciding whether a fresh anonymous output
    /// belongs to a machine already in the database.
    pub fn attribute(&self, pages: &[ErrorString]) -> Option<(ClusterId, i64, usize)> {
        self.verified_alignments(pages).into_iter().next()
    }

    /// Ingests one output (its per-page error strings, in virtual-page
    /// order) and returns the canonical cluster it landed in.
    ///
    /// # Panics
    ///
    /// Panics if `pages` is empty or any page's size differs from
    /// [`Stitcher::page_bits`].
    pub fn observe(&mut self, pages: &[ErrorString]) -> ClusterId {
        let _span = pc_telemetry::time!("core.stitch.observe");
        pc_telemetry::counter!("core.stitch.observations").incr();
        pc_telemetry::counter!("core.stitch.pages_observed").add(pages.len() as u64);
        let accepted = self.verified_alignments(pages);
        self.observations += 1;

        let home = if let Some(&(home, home_delta, _)) = accepted.first() {
            // Fold every other accepted cluster into `home`.
            for &(cid, delta, _) in &accepted[1..] {
                self.merge_clusters(home, cid, home_delta - delta);
            }
            // Absorb the sample's pages at the verified alignment.
            for (i, page) in pages.iter().enumerate() {
                self.absorb_page(home, home_delta + i as i64, page);
            }
            home
        } else {
            // No verified overlap: a brand-new suspected memory.
            pc_telemetry::counter!("core.stitch.clusters_seeded").incr();
            let id = self.clusters.len();
            self.clusters.push(Some(Cluster {
                pages: BTreeMap::new(),
            }));
            self.parent.push(id);
            self.live += 1;
            for (i, page) in pages.iter().enumerate() {
                self.absorb_page(id, i as i64, page);
            }
            id
        };
        home
    }

    /// Absorbs one observed page into `cluster` at `offset`, refreshing the
    /// LSH index for the page's updated fingerprint.
    fn absorb_page(&mut self, cluster: ClusterId, offset: i64, page: &ErrorString) {
        let rule = self.config.refine;
        let c = self.clusters[cluster].as_mut().expect("cluster is live");
        let fp = match c.pages.remove(&offset) {
            Some(existing) => match rule {
                RefineRule::Intersect => existing.refine(page),
                RefineRule::Union => existing.extend(page),
            }
            .expect("page sizes verified at observe()"),
            None => Fingerprint::from_observation(page.clone()),
        };
        self.file_page(cluster, offset, fp);
    }

    /// Merges cluster `other` into `home`; a page at `other` offset `o`
    /// lands at `home` offset `o + shift`.
    fn merge_clusters(&mut self, home: ClusterId, other: ClusterId, shift: i64) {
        if home == other {
            return;
        }
        pc_telemetry::counter!("core.stitch.merges").incr();
        let other_cluster = self.clusters[other].take().expect("merge source is live");
        self.parent[other] = home;
        self.live -= 1;
        let rule = self.config.refine;
        for (o, fp) in other_cluster.pages {
            let target = o + shift;
            let c = self.clusters[home].as_mut().expect("merge target is live");
            let merged = match c.pages.remove(&target) {
                Some(existing) => match rule {
                    RefineRule::Intersect => existing.merge(&fp),
                    RefineRule::Union => existing.merge_union(&fp),
                }
                .expect("page sizes verified at observe()"),
                None => fp,
            };
            self.file_page(home, target, merged);
        }
    }

    /// Puts `fp` at `offset` of `cluster`, first filing `(cluster, offset)`
    /// under each of its band keys unless it is a low-information page.
    fn file_page(&mut self, cluster: ClusterId, offset: i64, fp: Fingerprint) {
        if fp.errors().weight() >= self.config.min_page_weight {
            for (band, key) in self.signer.band_keys(fp.errors()).into_iter().enumerate() {
                let postings = self.index[band].entry(key).or_default();
                if !postings.contains(&(cluster, offset)) {
                    postings.push((cluster, offset));
                }
            }
        }
        let c = self.clusters[cluster].as_mut().expect("cluster is live");
        c.pages.insert(offset, fp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_stats::CellHasher;

    const PAGE: u64 = 4096;

    /// A deterministic fake "physical page": ~40 stable error bits.
    fn phys_page(chip: u64, page: u64) -> ErrorString {
        let h = CellHasher::new(chip * 1_000_003 + page);
        let bits: Vec<u64> = (0..40).map(|i| h.word(i) % PAGE).collect();
        ErrorString::from_unsorted(bits, PAGE).unwrap()
    }

    /// An output spanning physical pages [start, start+len).
    fn output(chip: u64, start: u64, len: u64) -> Vec<ErrorString> {
        (start..start + len).map(|p| phys_page(chip, p)).collect()
    }

    #[test]
    fn disjoint_outputs_form_separate_clusters() {
        let mut st = Stitcher::new(PAGE, StitchConfig::default());
        st.observe(&output(1, 0, 4));
        st.observe(&output(1, 100, 4));
        assert_eq!(st.suspected_chips(), 2);
    }

    #[test]
    fn overlapping_outputs_fuse() {
        let mut st = Stitcher::new(PAGE, StitchConfig::default());
        let a = st.observe(&output(1, 0, 8));
        let b = st.observe(&output(1, 4, 8)); // overlaps pages 4..8
        assert_eq!(st.suspected_chips(), 1);
        assert_eq!(st.canonical(a), st.canonical(b));
        // Coverage: pages 0..12 = 12 pages.
        assert_eq!(st.total_pages(), 12);
    }

    #[test]
    fn bridge_output_merges_two_clusters() {
        let mut st = Stitcher::new(PAGE, StitchConfig::default());
        st.observe(&output(1, 0, 4)); // pages 0..4
        st.observe(&output(1, 8, 4)); // pages 8..12
        assert_eq!(st.suspected_chips(), 2);
        st.observe(&output(1, 2, 8)); // pages 2..10 bridges both
        assert_eq!(st.suspected_chips(), 1);
        assert_eq!(st.total_pages(), 12);
    }

    #[test]
    fn different_chips_never_fuse() {
        let mut st = Stitcher::new(PAGE, StitchConfig::default());
        st.observe(&output(1, 0, 6));
        st.observe(&output(2, 0, 6)); // same offsets, different chip
        st.observe(&output(3, 0, 6));
        assert_eq!(st.suspected_chips(), 3);
    }

    #[test]
    fn alignment_is_relative_not_absolute() {
        // Same physical pages presented at different virtual offsets in the
        // two outputs must still align.
        let mut st = Stitcher::new(PAGE, StitchConfig::default());
        st.observe(&output(1, 10, 6)); // virtual 0..6 = physical 10..16
        st.observe(&output(1, 13, 6)); // virtual 0..6 = physical 13..19
        assert_eq!(st.suspected_chips(), 1);
        assert_eq!(st.total_pages(), 9); // physical 10..19
    }

    #[test]
    fn repeat_observation_refines_fingerprints() {
        let mut st = Stitcher::new(PAGE, StitchConfig::default());
        let id = st.observe(&output(1, 0, 4));
        st.observe(&output(1, 0, 4));
        let pages = st.cluster_pages(st.canonical(id)).unwrap();
        assert_eq!(pages.len(), 4);
        for fp in pages.values() {
            assert_eq!(fp.observations(), 2);
        }
    }

    #[test]
    fn low_information_pages_do_not_match() {
        let mut st = Stitcher::new(PAGE, StitchConfig::default());
        let blank = ErrorString::from_sorted(vec![5], PAGE).unwrap(); // weight 1 < min
        let a = vec![phys_page(1, 0), blank.clone()];
        let b = vec![blank.clone(), phys_page(1, 50)];
        st.observe(&a);
        st.observe(&b);
        // The blank page must not glue the two outputs together.
        assert_eq!(st.suspected_chips(), 2);
    }

    #[test]
    fn union_rule_grows_fingerprints() {
        // Data-dependent regime: two observations of one physical page each
        // expose only the volatile cells their payload charged (here the
        // first/last 30 of 40, overlapping in the middle 20).
        let mut st = Stitcher::new(PAGE, StitchConfig::data_dependent());
        let full = phys_page(1, 0);
        let obs_a = ErrorString::from_unsorted(full.positions()[..30].to_vec(), PAGE).unwrap();
        let obs_b = ErrorString::from_unsorted(full.positions()[10..].to_vec(), PAGE).unwrap();
        let id = st.observe(std::slice::from_ref(&obs_a));
        st.observe(std::slice::from_ref(&obs_b));
        assert_eq!(st.suspected_chips(), 1);
        let pages = st.cluster_pages(st.canonical(id)).unwrap();
        let fp = pages.get(&0).unwrap();
        // Union refinement accumulated the full volatile set.
        assert_eq!(fp.errors().weight(), full.weight());
    }

    #[test]
    fn attribute_matches_without_mutating() {
        let mut st = Stitcher::new(PAGE, StitchConfig::default());
        st.observe(&output(1, 0, 8));
        let before = st.suspected_chips();
        // A fresh output overlapping the cluster attributes to it...
        let hit = st.attribute(&output(1, 4, 4));
        assert!(hit.is_some(), "overlapping output not attributed");
        let (cid, delta, matched) = hit.unwrap();
        assert_eq!(st.canonical(cid), cid);
        assert_eq!(delta, 4);
        assert!(matched >= 1);
        // ...a stranger's output does not...
        assert!(st.attribute(&output(2, 0, 4)).is_none());
        // ...and neither call changed the database.
        assert_eq!(st.suspected_chips(), before);
        assert_eq!(st.observations(), 1);
    }

    #[test]
    fn trial_noise_tolerated() {
        // Perturb ~5% of the bits between observations of the same page.
        let base = phys_page(9, 3);
        let mut noisy_bits: Vec<u64> = base.positions().to_vec();
        noisy_bits.pop();
        noisy_bits.pop();
        noisy_bits.push(4000);
        noisy_bits.push(4001);
        let noisy = ErrorString::from_unsorted(noisy_bits, PAGE).unwrap();
        let mut st = Stitcher::new(PAGE, StitchConfig::default());
        st.observe(&[base]);
        st.observe(&[noisy]);
        assert_eq!(st.suspected_chips(), 1);
    }

    #[test]
    #[should_panic(expected = "page size mismatch")]
    fn size_mismatch_rejected() {
        let mut st = Stitcher::new(PAGE, StitchConfig::default());
        st.observe(&[ErrorString::empty(PAGE * 2)]);
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn empty_output_rejected() {
        let mut st = Stitcher::new(PAGE, StitchConfig::default());
        st.observe(&[]);
    }
}
