//! Allocation traces — the reproduction of the paper's Valgrind
//! instrumentation (§7.6).
//!
//! The paper ran its edge-detection program under Valgrind and "analyzed the
//! report to uncover the physical pages the program used to store its
//! approximate outputs", observing that (1) outputs occupy contiguous
//! physical page runs, (2) the run's location varies between runs (which is
//! what makes stitching possible), and (3) pages are not remapped during a
//! run. [`AllocationTrace`] records the same information from the simulated
//! system and exposes those three observations as queries.

use std::collections::BTreeSet;

/// One traced output: which physical pages backed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Sequence number of the output (the system's trial id).
    pub output_id: u64,
    /// Physical page per virtual page, in order.
    pub pages: Vec<u64>,
}

impl TraceRecord {
    /// Whether the record's pages form one contiguous ascending run.
    pub fn is_contiguous(&self) -> bool {
        self.pages.windows(2).all(|w| w[1] == w[0] + 1)
    }

    /// First physical page.
    ///
    /// # Panics
    ///
    /// Panics on an empty record (never produced by the system).
    pub fn start(&self) -> u64 {
        *self.pages.first().expect("trace records are non-empty")
    }
}

/// A recording of every output's physical placement.
///
/// # Example
///
/// ```
/// use pc_os::{ApproxSystem, SystemConfig};
/// let mut sys = ApproxSystem::emulated(SystemConfig {
///     total_pages: 256,
///     seed: 1,
///     ..SystemConfig::default()
/// });
/// sys.enable_trace();
/// sys.publish_worst_case(8);
/// sys.publish_worst_case(8);
/// let trace = sys.trace().expect("tracing enabled");
/// assert_eq!(trace.len(), 2);
/// assert!(trace.fraction_contiguous() == 1.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AllocationTrace {
    records: Vec<TraceRecord>,
}

impl AllocationTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one output's placement.
    pub fn record(&mut self, output_id: u64, pages: Vec<u64>) {
        assert!(!pages.is_empty(), "cannot trace an empty allocation");
        pc_telemetry::counter!("os.trace.records").incr();
        self.records.push(TraceRecord { output_id, pages });
    }

    /// Number of traced outputs.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing was traced.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The raw records, oldest first.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Paper observation 1: fraction of outputs stored in one contiguous
    /// physical run (1.0 under the observed OS behaviour).
    pub fn fraction_contiguous(&self) -> f64 {
        if self.records.is_empty() {
            return 1.0;
        }
        self.records.iter().filter(|r| r.is_contiguous()).count() as f64 / self.records.len() as f64
    }

    /// Paper observation 2: the number of distinct start pages across runs —
    /// close to the run count when the OS maps each run somewhere new.
    pub fn distinct_starts(&self) -> usize {
        self.records
            .iter()
            .map(TraceRecord::start)
            .collect::<BTreeSet<_>>()
            .len()
    }

    /// Fraction of physical pages covered by at least one traced output —
    /// how much of the memory the attacker could eventually fingerprint.
    pub fn coverage(&self, total_pages: u64) -> f64 {
        let covered: BTreeSet<u64> = self
            .records
            .iter()
            .flat_map(|r| r.pages.iter().copied())
            .collect();
        covered.len() as f64 / total_pages as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ApproxSystem, PlacementPolicy, SystemConfig};

    fn traced_system(placement: PlacementPolicy) -> ApproxSystem {
        let mut sys = ApproxSystem::emulated(SystemConfig {
            total_pages: 512,
            error_rate: 0.01,
            seed: 9,
            placement,
        });
        sys.enable_trace();
        sys
    }

    #[test]
    fn reproduces_the_papers_valgrind_observations() {
        let mut sys = traced_system(PlacementPolicy::ContiguousRandom);
        for _ in 0..30 {
            sys.publish_worst_case(16);
        }
        let trace = sys.trace().expect("tracing enabled");
        // (1) contiguous physical runs,
        assert_eq!(trace.fraction_contiguous(), 1.0);
        // (2) placement varies across runs,
        assert!(
            trace.distinct_starts() > 20,
            "starts: {}",
            trace.distinct_starts()
        );
        // (3) no remapping within a run (contiguity per record implies the
        // virtual->physical map held for the run's duration).
        for r in trace.records() {
            assert_eq!(r.pages.len(), 16);
        }
    }

    #[test]
    fn scrambled_placement_shows_in_the_trace() {
        let mut sys = traced_system(PlacementPolicy::PageScrambled);
        for _ in 0..10 {
            sys.publish_worst_case(16);
        }
        let trace = sys.trace().expect("tracing enabled");
        assert!(trace.fraction_contiguous() < 0.2);
    }

    #[test]
    fn coverage_accumulates() {
        let mut sys = traced_system(PlacementPolicy::ContiguousRandom);
        sys.publish_worst_case(16);
        let c1 = sys.trace().expect("enabled").coverage(512);
        for _ in 0..20 {
            sys.publish_worst_case(16);
        }
        let c2 = sys.trace().expect("enabled").coverage(512);
        assert!(c2 > c1);
        assert!(c2 <= 1.0);
    }

    #[test]
    fn trace_disabled_by_default() {
        let mut sys = ApproxSystem::emulated(SystemConfig {
            total_pages: 64,
            seed: 2,
            ..SystemConfig::default()
        });
        sys.publish_worst_case(4);
        assert!(sys.trace().is_none());
    }

    #[test]
    #[should_panic(expected = "empty allocation")]
    fn empty_record_rejected() {
        AllocationTrace::new().record(0, vec![]);
    }
}
