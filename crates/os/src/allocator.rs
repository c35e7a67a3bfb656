//! OS page-placement policies.

use pc_stats::StreamRng;
use rand::RngExt;

/// Where the OS places an output's pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// The behaviour the paper observed via Valgrind (§7.6): each run lands
    /// in a *contiguous* run of physical pages whose start is effectively
    /// random, and stays put for the duration of the run.
    ContiguousRandom,
    /// Contiguous placement at a fixed start page — the degenerate case where
    /// the OS always reuses the same frames (makes every pair of outputs
    /// fully overlapping).
    ContiguousFixed(u64),
    /// Page-granular scrambling: every page of the output is placed
    /// independently at random. This is the §8.2.3 ASLR defense — no
    /// contiguous overlap survives for the attacker to stitch.
    PageScrambled,
}

/// The physical placement of one output: `pages[v]` is the physical page
/// backing virtual page `v`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allocation {
    pages: Vec<u64>,
}

impl Allocation {
    /// Physical page backing each virtual page, in order.
    pub fn pages(&self) -> &[u64] {
        &self.pages
    }

    /// Number of pages in the output.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// Whether the allocation is empty.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Whether the physical pages form one contiguous ascending run.
    pub fn is_contiguous(&self) -> bool {
        self.pages.windows(2).all(|w| w[1] == w[0] + 1)
    }
}

/// A deterministic page allocator implementing a [`PlacementPolicy`].
///
/// # Example
///
/// ```
/// use pc_os::{Allocator, PlacementPolicy};
/// let mut alloc = Allocator::new(PlacementPolicy::ContiguousRandom, 256, 9);
/// let a = alloc.allocate(16);
/// assert_eq!(a.len(), 16);
/// assert!(a.is_contiguous());
/// ```
#[derive(Debug, Clone)]
pub struct Allocator {
    policy: PlacementPolicy,
    total_pages: u64,
    rng: StreamRng,
}

impl Allocator {
    /// Creates an allocator over `total_pages` physical pages.
    ///
    /// # Panics
    ///
    /// Panics if `total_pages` is zero or a fixed start is out of range.
    pub fn new(policy: PlacementPolicy, total_pages: u64, seed: u64) -> Self {
        assert!(total_pages > 0, "allocator needs at least one page");
        if let PlacementPolicy::ContiguousFixed(start) = policy {
            assert!(start < total_pages, "fixed start {start} out of range");
        }
        Self {
            policy,
            total_pages,
            rng: StreamRng::new(seed ^ 0xA110_CA7E),
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> PlacementPolicy {
        self.policy
    }

    /// Places an output of `run_pages` pages.
    ///
    /// # Panics
    ///
    /// Panics if the run does not fit in physical memory.
    pub fn allocate(&mut self, run_pages: usize) -> Allocation {
        pc_telemetry::counter!("os.allocations").incr();
        pc_telemetry::counter!("os.pages_allocated").add(run_pages as u64);
        assert!(
            run_pages as u64 <= self.total_pages,
            "run of {run_pages} pages exceeds memory of {} pages",
            self.total_pages
        );
        assert!(run_pages > 0, "cannot allocate an empty run");
        let pages = match self.policy {
            PlacementPolicy::ContiguousRandom => {
                let start = self
                    .rng
                    .random_range(0..=self.total_pages - run_pages as u64);
                (start..start + run_pages as u64).collect()
            }
            PlacementPolicy::ContiguousFixed(start) => {
                assert!(
                    start + run_pages as u64 <= self.total_pages,
                    "fixed run exceeds memory"
                );
                (start..start + run_pages as u64).collect()
            }
            PlacementPolicy::PageScrambled => (0..run_pages)
                .map(|_| self.rng.random_range(0..self.total_pages))
                .collect(),
        };
        Allocation { pages }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_random_varies_start() {
        let mut a = Allocator::new(PlacementPolicy::ContiguousRandom, 4096, 1);
        let starts: Vec<u64> = (0..16).map(|_| a.allocate(8).pages()[0]).collect();
        let distinct: std::collections::BTreeSet<_> = starts.iter().collect();
        assert!(distinct.len() > 8, "starts should vary: {starts:?}");
    }

    #[test]
    fn contiguous_random_stays_in_bounds() {
        let mut a = Allocator::new(PlacementPolicy::ContiguousRandom, 64, 2);
        for _ in 0..100 {
            let alloc = a.allocate(16);
            assert!(alloc.is_contiguous());
            assert!(*alloc.pages().last().unwrap() < 64);
        }
    }

    #[test]
    fn fixed_always_same() {
        let mut a = Allocator::new(PlacementPolicy::ContiguousFixed(5), 64, 3);
        assert_eq!(a.allocate(4).pages(), &[5, 6, 7, 8]);
        assert_eq!(a.allocate(4).pages(), &[5, 6, 7, 8]);
    }

    #[test]
    fn scrambled_not_contiguous() {
        let mut a = Allocator::new(PlacementPolicy::PageScrambled, 1 << 20, 4);
        let alloc = a.allocate(64);
        assert!(!alloc.is_contiguous(), "scrambled run came out contiguous");
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = Allocator::new(PlacementPolicy::ContiguousRandom, 1024, 9);
        let mut b = Allocator::new(PlacementPolicy::ContiguousRandom, 1024, 9);
        for _ in 0..5 {
            assert_eq!(a.allocate(10), b.allocate(10));
        }
    }

    #[test]
    #[should_panic(expected = "exceeds memory")]
    fn oversized_run_rejected() {
        Allocator::new(PlacementPolicy::ContiguousRandom, 8, 1).allocate(9);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fixed_start_validated() {
        Allocator::new(PlacementPolicy::ContiguousFixed(99), 10, 1);
    }
}
