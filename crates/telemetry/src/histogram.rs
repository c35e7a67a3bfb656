//! Lock-free log-linear histograms.
//!
//! Values are bucketed HDR-style: exact buckets for `0..16`, then 16 linear
//! sub-buckets per power of two. Relative bucket width is therefore at most
//! 1/16 (~6.25%) everywhere, which is plenty for latency and count
//! distributions, and the whole `u64` range is covered with
//! [`BUCKETS`] = 976 buckets.
//!
//! Recording is a single relaxed `fetch_add` plus min/max updates;
//! [`HistogramSnapshot`]s are plain data that merge exactly (bucket-wise
//! integer addition), so merging is associative and commutative — the
//! property tests in `tests/properties.rs` pin this down.

use crate::json::{JsonObject, JsonValue};
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: 16 exact + 60 octaves × 16 sub-buckets.
pub const BUCKETS: usize = 976;

/// Index of the bucket holding `v`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < 16 {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros() as usize; // >= 4
        let sub = ((v >> (exp - 4)) & 0xF) as usize;
        (exp - 3) * 16 + sub
    }
}

/// Smallest value landing in bucket `idx`.
#[inline]
pub fn bucket_lower(idx: usize) -> u64 {
    debug_assert!(idx < BUCKETS);
    if idx < 32 {
        idx as u64
    } else {
        let exp = idx / 16 + 3;
        let sub = (idx % 16) as u64;
        (16 + sub) << (exp - 4)
    }
}

/// Largest value landing in bucket `idx`.
#[inline]
pub fn bucket_upper(idx: usize) -> u64 {
    if idx + 1 >= BUCKETS {
        u64::MAX
    } else {
        bucket_lower(idx + 1) - 1
    }
}

/// A concurrent log-linear histogram over `u64` values.
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation of `v`.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the histogram's state.
    ///
    /// Individual loads are relaxed, so a snapshot taken concurrently with
    /// writers may be torn by a few in-flight observations; totals are exact
    /// once writers quiesce.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .finish_non_exhaustive()
    }
}

/// Plain-data copy of a [`Histogram`]; mergeable and queryable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// An empty snapshot (the merge identity).
    pub fn empty() -> Self {
        Self {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations (wrapping at `u64::MAX`).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean observation, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Merges `other` into `self` — exact bucket-wise addition, so merging
    /// is associative and commutative.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += *b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Merged copy of two snapshots.
    #[must_use]
    pub fn merged(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        let mut out = self.clone();
        out.merge(other);
        out
    }

    /// Quantile estimate: the upper bound of the bucket containing the
    /// `ceil(q·count)`-th smallest observation, so the true quantile lies
    /// within that bucket (at most one bucket width below the estimate).
    /// Returns `None` if the snapshot is empty; `q` is clamped to `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(bucket_upper(idx).min(self.max));
            }
        }
        Some(self.max)
    }

    /// Compact JSON summary (count, sum, min/mean/max, p50/p90/p99).
    pub fn summary_json(&self) -> JsonObject {
        let mut obj = JsonObject::new();
        obj.set("count", self.count);
        obj.set("sum", self.sum);
        match (self.min(), self.max(), self.mean()) {
            (Some(min), Some(max), Some(mean)) => {
                obj.set("min", min);
                obj.set("mean", mean);
                obj.set("max", max);
                obj.set("p50", self.quantile(0.50).unwrap_or(max));
                obj.set("p90", self.quantile(0.90).unwrap_or(max));
                obj.set("p99", self.quantile(0.99).unwrap_or(max));
            }
            _ => {
                obj.set("min", JsonValue::Null);
                obj.set("mean", JsonValue::Null);
                obj.set("max", JsonValue::Null);
            }
        }
        obj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_are_consistent() {
        for v in (0..4096).chain([u64::MAX / 3, u64::MAX - 1, u64::MAX]) {
            let idx = bucket_index(v);
            assert!(bucket_lower(idx) <= v, "lower({idx}) > {v}");
            assert!(v <= bucket_upper(idx), "{v} > upper({idx})");
        }
    }

    #[test]
    fn bucket_index_is_monotone_at_boundaries() {
        for idx in 0..BUCKETS {
            assert_eq!(bucket_index(bucket_lower(idx)), idx);
            assert_eq!(bucket_index(bucket_upper(idx)), idx);
        }
    }

    #[test]
    fn empty_snapshot_summary_is_panic_free() {
        let s = HistogramSnapshot::empty();
        let obj = s.summary_json();
        assert_eq!(obj.get("count").and_then(JsonValue::as_u64), Some(0));
        assert!(matches!(obj.get("min"), Some(JsonValue::Null)));
        assert!(matches!(obj.get("mean"), Some(JsonValue::Null)));
        assert!(matches!(obj.get("max"), Some(JsonValue::Null)));
        assert!(obj.get("p50").is_none(), "no quantiles for empty data");
    }

    #[test]
    fn single_observation_summary_reports_quantiles() {
        let h = Histogram::new();
        h.record(42);
        let obj = h.snapshot().summary_json();
        assert_eq!(obj.get("count").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(obj.get("p50").and_then(JsonValue::as_u64), Some(42));
        assert_eq!(obj.get("p99").and_then(JsonValue::as_u64), Some(42));
    }

    #[test]
    fn quantiles_bound_simple_data() {
        let h = Histogram::new();
        for v in 1..=100 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 100);
        let p50 = s.quantile(0.5).unwrap();
        assert!((50..=53).contains(&p50), "p50 {p50}");
        assert_eq!(
            s.quantile(0.0).unwrap(),
            bucket_upper(bucket_index(1)).min(100)
        );
        assert_eq!(s.quantile(1.0).unwrap(), 100);
    }
}
