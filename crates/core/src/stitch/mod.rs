//! Fingerprint stitching (paper §4, Fig. 4): assembling whole-memory
//! fingerprints from overlapping page-level fingerprints.
//!
//! Each published output is a contiguous run of pages at an unknown physical
//! offset. The [`Stitcher`] treats every output as a puzzle piece: an LSH
//! index over its pages, signed with the one-permutation hash the identify
//! index uses ([`crate::LshIndex`]), proposes which known cluster (and at
//! what alignment) a new piece might belong to, the alignment is verified
//! page-by-page with the distance metric, and verified pieces are merged —
//! growing the cluster's fingerprint and collapsing clusters that an output
//! proves to be the same memory.

mod reference;
mod stitcher;

pub use reference::ReferenceStitcher;
pub use stitcher::{RefineRule, StitchConfig, Stitcher};
