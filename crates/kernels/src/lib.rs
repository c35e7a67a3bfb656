//! Packed-bitset compute kernels for error-string scoring.
//!
//! Every identification in the reproduction reduces to one question: how many
//! error positions do two bit strings share? The sparse sorted-`Vec<u64>`
//! representation in `probable-cause` answers it with a scalar two-pointer
//! merge — fine for a handful of comparisons, a bottleneck when a query is
//! scored against thousands of stored fingerprints (the fleet-scale workload
//! of FP-Rowhammer/Centauri-style matchers).
//!
//! This crate is the compute layer under that hot path:
//!
//! - [`PackedErrors`]: a hybrid container over 4 KiB-page blocks (32768 bits).
//!   Each block stores its positions either as sorted 16-bit offsets (sparse)
//!   or as a 512-word bitmap (dense), chosen Roaring-style by population so
//!   the paper's 1–10% error densities get whichever form is smaller.
//! - Popcount kernels: [`PackedErrors::intersect_count`],
//!   [`PackedErrors::difference_count`], [`PackedErrors::union_count`] — and
//!   [`DenseView`], a bitmap expansion of one probe that turns
//!   sparse-versus-probe scoring into branchless bit tests.
//! - [`MetricKind`] + [`score_batch`]: one probe against many stored strings,
//!   bit-for-bit equal to the scalar metrics in `probable-cause`.
//! - [`first_within`]: Algorithm 4's first-match scan over cluster
//!   fingerprints. One dense view per probe; each cluster's bit test
//!   ([`PackedErrors::intersects_at_least`]) stops once its count reaches
//!   the exact threshold bound [`MetricKind::min_intersection`] or can no
//!   longer reach it. [`distance_packed`], the pairwise merge, is for
//!   one-off pairs.
//! - [`pool`]: deterministic chunked parallelism over scoped threads that
//!   live only while a call runs; results are independent of the thread
//!   count by construction.
//! - [`simd`]: runtime-dispatched AVX2+POPCNT / portable-`u64x4` word
//!   kernels under the dense-block counts, bit-for-bit equal to scalar.
//!
//! The crate depends on nothing above `std`, so every layer of the workspace
//! (core, service, experiments, benches) can sit on top of it.
//!
//! `unsafe` is denied crate-wide except in `simd`, whose feature-gated
//! intrinsics are its job; every site carries a `SAFETY:` comment and
//! `pc analyze` lint U003 holds the allowlist.

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![deny(unused_must_use)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod packed;
pub mod pool;
pub mod sched;
mod score;
#[allow(unsafe_code)]
pub mod simd;

pub use packed::{DenseView, PackedErrors, BLOCK_BITS, DENSE_THRESHOLD};
pub use pool::{chunk_size_for, map_chunked, set_auto_thread_override, Parallelism};
pub use score::{distance_packed, first_within, score_batch, score_subset, MetricKind};
