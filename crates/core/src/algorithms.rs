//! Algorithms 1 and 4: characterization and clustering.
//! (Algorithm 2, identification, lives on [`crate::FingerprintDb`].)

use crate::batch::add_comparisons;
use crate::{BitStringError, DistanceMetric, ErrorString, Fingerprint};
use pc_kernels::{first_within, MetricKind, PackedErrors};
use std::fmt;

/// Error from [`characterize`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CharacterizeError {
    /// No observations were supplied.
    NoObservations,
    /// Observations have differing sizes.
    SizeMismatch,
}

impl fmt::Display for CharacterizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CharacterizeError::NoObservations => write!(f, "no observations to characterize"),
            CharacterizeError::SizeMismatch => {
                write!(f, "observations must share one bit-string size")
            }
        }
    }
}

impl std::error::Error for CharacterizeError {}

/// **Algorithm 1** — characterization: the device fingerprint is the
/// intersection of the error bits across all observed approximate results.
///
/// Intersection keeps only the most volatile (always-failing) cells, which
/// minimizes noise, keeps fingerprints applicable to lightly approximated
/// systems, and makes matching fast (§5.1).
///
/// # Errors
///
/// [`CharacterizeError::NoObservations`] for an empty slice,
/// [`CharacterizeError::SizeMismatch`] if observations differ in size.
///
/// # Example
///
/// ```
/// use probable_cause::{characterize, ErrorString};
/// let runs = vec![
///     ErrorString::from_sorted(vec![2, 5, 7, 11], 32)?,
///     ErrorString::from_sorted(vec![2, 5, 9, 11], 32)?,
///     ErrorString::from_sorted(vec![2, 5, 11, 30], 32)?,
/// ];
/// let fp = characterize(&runs)?;
/// assert_eq!(fp.errors().positions(), &[2, 5, 11]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn characterize(observations: &[ErrorString]) -> Result<Fingerprint, CharacterizeError> {
    let _span = pc_telemetry::time!("core.characterize");
    pc_telemetry::counter!("core.characterize.observations").add(observations.len() as u64);
    let (first, rest) = observations
        .split_first()
        .ok_or(CharacterizeError::NoObservations)?;
    let mut fp = Fingerprint::from_observation(first.clone());
    for obs in rest {
        fp = fp
            .refine(obs)
            .map_err(|_| CharacterizeError::SizeMismatch)?;
    }
    Ok(fp)
}

/// The result of **Algorithm 4** — clustering approximate results by origin
/// device.
#[derive(Debug, Clone)]
pub struct Clustering {
    clusters: Vec<Fingerprint>,
    assignments: Vec<usize>,
}

impl Clustering {
    /// The per-cluster fingerprints (cluster id = index).
    pub fn clusters(&self) -> &[Fingerprint] {
        &self.clusters
    }

    /// `assignments[i]` is the cluster id of input observation `i`.
    pub fn assignments(&self) -> &[usize] {
        &self.assignments
    }

    /// Number of clusters found (suspected devices).
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// Whether no clusters were formed (no input).
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }
}

/// **Algorithm 4** — clustering: each output's error string is compared to
/// the existing cluster fingerprints; a match (distance below `threshold`)
/// refines that cluster's fingerprint by intersection, otherwise the output
/// seeds a new cluster.
///
/// Built-in metrics (those with a [`DistanceMetric::kind`]) run through one
/// [`ClusterBook`], whose first-match scan expands each output to a dense
/// view once and stops each cluster's bit test at the threshold decision;
/// other metrics call [`DistanceMetric::distance`] per cluster. Both give
/// the same clusters.
///
/// Note: the paper's pseudocode augments `fingerprintDB[i]` on line 7; the
/// surrounding text makes clear the *matched cluster* `fingerprintDB[j]` is
/// intended, which is what this implementation does.
///
/// # Panics
///
/// Panics if observations have mismatched sizes (they come from one pipeline
/// in practice; the mismatch is a programming error).
///
/// # Example
///
/// ```
/// use probable_cause::{cluster, ErrorString, PcDistance};
/// let outs = vec![
///     ErrorString::from_sorted(vec![1, 2, 3, 4], 64)?,   // device A
///     ErrorString::from_sorted(vec![40, 41, 42, 43], 64)?, // device B
///     ErrorString::from_sorted(vec![1, 2, 3, 4, 9], 64)?, // device A again
/// ];
/// let c = cluster(&outs, &PcDistance::new(), 0.25);
/// assert_eq!(c.len(), 2);
/// assert_eq!(c.assignments(), &[0, 1, 0]);
/// # Ok::<(), probable_cause::BitStringError>(())
/// ```
pub fn cluster<M: DistanceMetric + ?Sized>(
    observations: &[ErrorString],
    metric: &M,
    threshold: f64,
) -> Clustering {
    let _span = pc_telemetry::time!("core.cluster");
    match metric.kind() {
        Some(kind) => cluster_packed(observations, kind, threshold),
        None => cluster_scalar(observations, metric, threshold),
    }
}

/// Algorithm 4 over a [`ClusterBook`], whose first-match decisions are
/// exactly those of [`cluster_scalar`]'s distances against the threshold.
fn cluster_packed(observations: &[ErrorString], kind: MetricKind, threshold: f64) -> Clustering {
    let mut book = ClusterBook::new(kind, threshold);
    let assignments = observations
        .iter()
        .map(|obs| {
            let assigned = book
                .ingest(obs)
                .map_err(|e| e.error)
                .expect("clustered observations must share a size");
            if assigned.seeded {
                pc_telemetry::counter!("core.cluster.seeded").incr();
            } else {
                pc_telemetry::counter!("core.cluster.refined").incr();
            }
            assigned.cluster
        })
        .collect();
    Clustering {
        clusters: book.clusters(),
        assignments,
    }
}

/// **Algorithm 4** as online state, for outputs that arrive one at a time:
/// the cluster fingerprints of a built-in metric, each stored once, packed,
/// beside its observation count (the shape of a database entry).
/// [`cluster`] runs its packed path through one, and `pc-service` keeps one
/// for `cluster-ingest`.
///
/// An ingest packs the output once and finds the first cluster within the
/// threshold with [`pc_kernels::first_within`]: the output is expanded to a
/// dense view once, and each cluster's bit test stops as soon as the
/// threshold decision is known. The answers equal a per-cluster distance
/// loop, bit for bit.
///
/// # Example
///
/// ```
/// use probable_cause::{ClusterBook, ErrorString, MetricKind};
/// let mut book = ClusterBook::new(MetricKind::PcJaccard, 0.25);
/// let a = ErrorString::from_sorted(vec![1, 2, 3, 4], 64)?;
/// let b = ErrorString::from_sorted(vec![40, 41, 42, 43], 64)?;
/// assert!(book.ingest(&a).unwrap().seeded);
/// assert!(book.ingest(&b).unwrap().seeded);
/// let again = book.ingest(&ErrorString::from_sorted(vec![1, 2, 3, 4, 9], 64)?).unwrap();
/// assert_eq!((again.cluster, again.seeded, again.compared), (0, false, 1));
/// assert_eq!(book.len(), 2);
/// # Ok::<(), probable_cause::BitStringError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ClusterBook {
    kind: MetricKind,
    threshold: f64,
    /// `packed[j]` is cluster `j`'s error string, re-packed on refine.
    packed: Vec<PackedErrors>,
    /// `observations[j]` is cluster `j`'s observation count.
    observations: Vec<u32>,
}

/// Where [`ClusterBook::ingest`] put an output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assignment {
    /// The cluster id: its position in the book.
    pub cluster: usize,
    /// Whether the output seeded a new cluster rather than refining one.
    pub seeded: bool,
    /// Clusters compared before the decision: up to the match, or all.
    pub compared: u64,
}

/// An output whose first-matched cluster it cannot refine, because their
/// sizes differ. The book is left unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterRefineError {
    /// The first cluster within the threshold.
    pub cluster: usize,
    /// Clusters compared, the match included.
    pub compared: u64,
    /// Why the refine failed.
    pub error: BitStringError,
}

impl fmt::Display for ClusterRefineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot refine cluster {}: {}", self.cluster, self.error)
    }
}

impl std::error::Error for ClusterRefineError {}

impl ClusterBook {
    /// An empty book matching with `kind` below `threshold`.
    pub fn new(kind: MetricKind, threshold: f64) -> Self {
        Self {
            kind,
            threshold,
            packed: Vec::new(),
            observations: Vec::new(),
        }
    }

    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.packed.len()
    }

    /// Whether no output has been ingested.
    pub fn is_empty(&self) -> bool {
        self.packed.is_empty()
    }

    /// Cluster `j`'s fingerprint, unpacked.
    fn cluster(&self, j: usize) -> Fingerprint {
        Fingerprint::from_parts(
            ErrorString::from_packed(&self.packed[j]),
            self.observations[j],
        )
    }

    /// The cluster fingerprints (cluster id = index), unpacked.
    pub fn clusters(&self) -> Vec<Fingerprint> {
        (0..self.len()).map(|j| self.cluster(j)).collect()
    }

    /// Assigns `observation` to the first cluster within the threshold,
    /// refining that cluster's fingerprint by intersection, or seeds a new
    /// cluster with it. Records the comparisons on the metric's distance
    /// counter (`core.distance.*`), refused or not.
    ///
    /// # Errors
    ///
    /// [`ClusterRefineError`] when the first match has a different size
    /// than `observation`; the book is unchanged.
    pub fn ingest(&mut self, observation: &ErrorString) -> Result<Assignment, ClusterRefineError> {
        let probe = observation.to_packed();
        let (hit, compared) = first_within(&self.packed, &probe, self.kind, self.threshold);
        add_comparisons(self.kind, compared);
        let Some(cluster) = hit else {
            self.packed.push(probe);
            self.observations.push(1);
            return Ok(Assignment {
                cluster: self.len() - 1,
                seeded: true,
                compared,
            });
        };
        let refined =
            self.cluster(cluster)
                .refine(observation)
                .map_err(|error| ClusterRefineError {
                    cluster,
                    compared,
                    error,
                })?;
        self.packed[cluster] = refined.errors().to_packed();
        self.observations[cluster] = refined.observations();
        Ok(Assignment {
            cluster,
            seeded: false,
            compared,
        })
    }
}

/// Algorithm 4 via per-pair [`DistanceMetric::distance`] calls — the path
/// for custom metrics with no packed form, and the reference the
/// [`ClusterBook`] path is tested against.
fn cluster_scalar<M: DistanceMetric + ?Sized>(
    observations: &[ErrorString],
    metric: &M,
    threshold: f64,
) -> Clustering {
    let mut clusters: Vec<Fingerprint> = Vec::new();
    let mut assignments = Vec::with_capacity(observations.len());
    for obs in observations {
        let mut assigned = None;
        for (j, fp) in clusters.iter_mut().enumerate() {
            if metric.distance(fp.errors(), obs) < threshold {
                *fp = fp
                    .refine(obs)
                    .expect("clustered observations must share a size");
                assigned = Some(j);
                break;
            }
        }
        let id = assigned.unwrap_or_else(|| {
            clusters.push(Fingerprint::from_observation(obs.clone()));
            clusters.len() - 1
        });
        if assigned.is_some() {
            pc_telemetry::counter!("core.cluster.refined").incr();
        } else {
            pc_telemetry::counter!("core.cluster.seeded").incr();
        }
        assignments.push(id);
    }
    Clustering {
        clusters,
        assignments,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PcDistance;

    fn es(bits: &[u64]) -> ErrorString {
        ErrorString::from_sorted(bits.to_vec(), 256).unwrap()
    }

    #[test]
    fn characterize_is_intersection() {
        let fp = characterize(&[es(&[1, 2, 3]), es(&[2, 3, 4]), es(&[0, 2, 3])]).unwrap();
        assert_eq!(fp.errors().positions(), &[2, 3]);
        assert_eq!(fp.observations(), 3);
    }

    #[test]
    fn characterize_single_observation() {
        let fp = characterize(&[es(&[9])]).unwrap();
        assert_eq!(fp.errors().positions(), &[9]);
    }

    #[test]
    fn characterize_empty_fails() {
        assert_eq!(
            characterize(&[]).unwrap_err(),
            CharacterizeError::NoObservations
        );
    }

    #[test]
    fn characterize_size_mismatch_fails() {
        let a = es(&[1]);
        let b = ErrorString::from_sorted(vec![1], 512).unwrap();
        assert_eq!(
            characterize(&[a, b]).unwrap_err(),
            CharacterizeError::SizeMismatch
        );
    }

    #[test]
    fn cluster_groups_same_device() {
        // Two devices, three outputs each, with mild noise.
        let dev_a = [
            es(&[1, 5, 9, 13]),
            es(&[1, 5, 9, 14]),
            es(&[1, 5, 9, 13, 20]),
        ];
        let dev_b = [es(&[2, 6, 10, 50]), es(&[2, 6, 10, 51]), es(&[2, 6, 10])];
        let mut all = Vec::new();
        all.extend(dev_a.iter().cloned());
        all.extend(dev_b.iter().cloned());
        let c = cluster(&all, &PcDistance::new(), 0.3);
        assert_eq!(c.len(), 2);
        assert_eq!(c.assignments()[..3], [0, 0, 0]);
        assert_eq!(c.assignments()[3..], [1, 1, 1]);
    }

    #[test]
    fn cluster_fingerprints_are_refined() {
        let outs = vec![es(&[1, 2, 3, 4]), es(&[1, 2, 3, 5])];
        let c = cluster(&outs, &PcDistance::new(), 0.5);
        assert_eq!(c.len(), 1);
        assert_eq!(c.clusters()[0].errors().positions(), &[1, 2, 3]);
        assert_eq!(c.clusters()[0].observations(), 2);
    }

    #[test]
    fn cluster_empty_input() {
        let c = cluster(&[], &PcDistance::new(), 0.3);
        assert!(c.is_empty());
        assert!(c.assignments().is_empty());
    }

    #[test]
    fn size_mismatched_first_match_leaves_the_book_unchanged() {
        let mut book = ClusterBook::new(MetricKind::PcJaccard, 0.3);
        book.ingest(&es(&[1, 2, 3, 4])).unwrap();
        book.ingest(&es(&[100, 150, 200, 250])).unwrap();
        let (packed, observations) = (book.packed.clone(), book.observations.clone());
        // Positions are compared verbatim, so a wider string can match.
        let wider = ErrorString::from_sorted(vec![100, 150, 200, 250], 512).unwrap();
        let refused = book.ingest(&wider).unwrap_err();
        assert_eq!((refused.cluster, refused.compared), (1, 2));
        assert_eq!(
            refused.to_string(),
            "cannot refine cluster 1: size mismatch: 256 bits vs 512 bits"
        );
        assert_eq!((book.packed, book.observations), (packed, observations));
    }

    #[test]
    #[should_panic(expected = "clustered observations must share a size")]
    fn cluster_panics_on_a_size_mismatched_match() {
        let wider = ErrorString::from_sorted(vec![1, 2, 3], 512).unwrap();
        cluster(&[es(&[1, 2, 3]), wider], &PcDistance::new(), 0.3);
    }

    #[test]
    fn tight_threshold_splits_everything() {
        let outs = vec![es(&[1, 2, 3]), es(&[1, 2, 4]), es(&[1, 2, 5])];
        // Each pair differs in 1/3 of fingerprint bits; threshold below that
        // keeps them apart.
        let c = cluster(&outs, &PcDistance::new(), 0.2);
        assert_eq!(c.len(), 3);
    }
}
