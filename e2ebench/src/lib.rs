//! End-to-end serving benchmark for `pc serve` and `pc route`.
//!
//! One run generates a workload's inputs from a seed, persists the database
//! and index with the public savers, starts the shipped servers on them,
//! drives a closed-loop load from this process, checks every answer against
//! a linear-scan oracle, and reports its metrics. See `README.md` next to
//! this crate for the workloads, the metrics and which layer should move
//! which end-to-end number.

#![forbid(unsafe_code)]

pub mod cluster;
pub mod gen;
pub mod layers;
pub mod load;
pub mod metrics;
pub mod spans;
pub mod stats;
pub mod workload;
