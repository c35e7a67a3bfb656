//! **Probable Cause** — deanonymizing approximate-DRAM systems from the error
//! patterns imprinted on their outputs (Rahmati, Hicks, Holcomb, Fu;
//! ISCA 2015).
//!
//! Approximate DRAM lets the most volatile cells decay; *which* cells are most
//! volatile is decided by manufacturing variation and is therefore a stable,
//! chip-unique fingerprint. This crate implements the paper's attacker
//! toolkit over the simulated substrates of the companion crates:
//!
//! - [`ErrorString`]: the set of bit errors in one approximate output
//!   (`approx XOR exact`).
//! - [`characterize`] (Algorithm 1): fingerprint = intersection of error
//!   strings.
//! - [`FingerprintDb`] + [`identify`](FingerprintDb::identify) (Algorithm 2):
//!   match an output against known fingerprints.
//! - [`PcDistance`] (Algorithm 3): the modified Jaccard distance that stays
//!   meaningful when fingerprint and output were collected at different
//!   approximation levels (unlike Hamming distance, also provided as a
//!   baseline).
//! - [`cluster`] (Algorithm 4): online clustering of outputs from unknown
//!   devices; [`ClusterBook`] holds its state when outputs arrive one at a
//!   time (the `cluster-ingest` path of `pc-service`).
//! - [`LshIndex`]: one-permutation LSH pruning of identification — route a
//!   query to the few fingerprints it could plausibly match before paying
//!   full distance computation (the serving path of `pc-service`).
//! - [`batch`]: packed-bitset batch scoring (`pc-kernels`) — the popcount
//!   fast path under [`FingerprintDb`], clustering, stitching, and the
//!   experiment pipelines, bit-for-bit equal to the scalar metrics.
//! - [`Stitcher`] (Section 4 / Fig. 4): align and merge page-level
//!   fingerprints of overlapping outputs into whole-memory fingerprints,
//!   backed by an LSH page index, signed with [`LshIndex`]'s hash family, so
//!   matching scales.
//! - [`SupplyChainAttacker`] and [`Eavesdropper`]: the two end-to-end attack
//!   pipelines of the threat model (Fig. 3).
//! - [`defense`]: the countermeasures discussed in §8.2 (noise injection,
//!   data segregation policy; page-level ASLR lives in `pc_os` placement).
//! - [`localize`]: recovering error positions without ground truth (§8.3).
//!
//! # Quickstart
//!
//! ```
//! use pc_approx::{AccuracyTarget, ApproxMemory, DecayMedium};
//! use pc_dram::{ChipId, ChipProfile, DramChip};
//! use probable_cause::{characterize, ErrorString, FingerprintDb, PcDistance};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The victim's chip, approximated to 99% accuracy.
//! let chip = DramChip::new(ChipProfile::km41464a(), ChipId(7));
//! let mut mem = ApproxMemory::with_target(chip, 40.0, AccuracyTarget::percent(99.0)?)?;
//! let data = mem.medium().worst_case_pattern();
//! let size = data.len() as u64 * 8;
//!
//! // Attacker characterizes the chip from three outputs...
//! let outs: Vec<ErrorString> = (0..3)
//!     .map(|_| ErrorString::from_sorted(mem.store_errors(0, &data), size))
//!     .collect::<Result<_, _>>()?;
//! let fp = characterize(&outs)?;
//!
//! // ...and later identifies a fresh output as coming from that chip.
//! let mut db = FingerprintDb::new(PcDistance::new(), 0.25);
//! db.insert("victim", fp);
//! let fresh = ErrorString::from_sorted(mem.store_errors(0, &data), size)?;
//! assert_eq!(db.identify(&fresh), Some(&"victim"));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod algorithms;
pub mod batch;
mod bits;
mod db;
pub mod defense;
mod distance;
mod fingerprint;
mod index;
pub mod localize;
pub mod persistence;
pub mod related;
mod stitch;
mod threshold;

pub mod attacker;

pub use algorithms::{
    characterize, cluster, Assignment, CharacterizeError, ClusterBook, ClusterRefineError,
    Clustering,
};
pub use attacker::{Eavesdropper, SupplyChainAttacker};
pub use batch::{MetricKind, Parallelism};
pub use bits::{BitStringError, ErrorString};
pub use db::FingerprintDb;
pub use distance::{DistanceMetric, HammingDistance, JaccardDistance, PcDistance};
pub use fingerprint::Fingerprint;
pub use index::LshIndex;
pub use stitch::{ReferenceStitcher, RefineRule, StitchConfig, Stitcher};
pub use threshold::SeparationReport;
