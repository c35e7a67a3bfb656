//! The victim system: memory + allocator + publish.

use crate::{Allocator, EmulatedMemory, PageDecay, PlacementPolicy, PAGE_BYTES};

/// Configuration of an emulated victim system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// Physical memory size in 4 KB pages (the paper's platform: 1 GB =
    /// 262,144 pages).
    pub total_pages: u64,
    /// Worst-case error rate the approximate-memory controller maintains.
    pub error_rate: f64,
    /// Machine identity: seeds the DRAM variation (and, derived, the OS
    /// allocator).
    pub seed: u64,
    /// OS placement policy.
    pub placement: PlacementPolicy,
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self {
            total_pages: 262_144,
            error_rate: 0.01,
            seed: 0,
            placement: PlacementPolicy::ContiguousRandom,
        }
    }
}

/// One published approximate output, carrying both the attacker's view and
/// the evaluation-only ground truth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublishedOutput {
    /// Attacker-visible: error bit positions per virtual page of the output
    /// (what error localization, §8.3, recovers from the published file).
    pub page_errors: Vec<Vec<u32>>,
    /// Ground truth, hidden from the attacker: the physical placement.
    pub placement: Vec<u64>,
    /// Ground truth: which trial (noise realization) produced the output.
    pub trial: u64,
}

impl PublishedOutput {
    /// Number of pages in the output.
    pub fn len_pages(&self) -> usize {
        self.page_errors.len()
    }

    /// Total error bits across the output.
    pub fn total_errors(&self) -> usize {
        self.page_errors.iter().map(Vec::len).sum()
    }
}

/// A victim machine with approximate memory: publishes outputs whose error
/// patterns carry the machine's fingerprint.
///
/// # Example
///
/// ```
/// use pc_os::{ApproxSystem, SystemConfig};
/// let mut sys = ApproxSystem::emulated(SystemConfig {
///     total_pages: 512,
///     seed: 3,
///     ..SystemConfig::default()
/// });
/// let a = sys.publish_worst_case(8);
/// let b = sys.publish_worst_case(8);
/// // Different runs land at different physical pages...
/// assert_ne!(a.placement, b.placement);
/// // ...and each output carries errors.
/// assert!(a.total_errors() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct ApproxSystem<M = EmulatedMemory> {
    memory: M,
    allocator: Allocator,
    next_trial: u64,
    trace: Option<crate::AllocationTrace>,
}

impl ApproxSystem<EmulatedMemory> {
    /// Builds the default emulated system from a config.
    pub fn emulated(config: SystemConfig) -> Self {
        let memory = EmulatedMemory::new(config.seed, config.total_pages, config.error_rate);
        Self::with_memory(memory, config.placement, config.seed)
    }
}

impl<M: PageDecay> ApproxSystem<M> {
    /// Builds a system over any page-decay backend.
    pub fn with_memory(memory: M, placement: PlacementPolicy, seed: u64) -> Self {
        let allocator = Allocator::new(placement, memory.total_pages(), seed);
        Self {
            memory,
            allocator,
            next_trial: 0,
            trace: None,
        }
    }

    /// Turns on allocation tracing (the Valgrind-equivalent recording of
    /// §7.6); every subsequent publish is recorded.
    pub fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(crate::AllocationTrace::new());
        }
    }

    /// The allocation trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&crate::AllocationTrace> {
        self.trace.as_ref()
    }

    /// The decay backend.
    pub fn memory(&self) -> &M {
        &self.memory
    }

    /// Number of outputs published so far.
    pub fn outputs_published(&self) -> u64 {
        self.next_trial
    }

    /// Publishes `data` (padded to whole pages with zeros): the OS places it,
    /// the approximate memory imprints its error pattern, and the resulting
    /// per-page error view plus ground-truth placement are returned.
    pub fn publish(&mut self, data: &[u8]) -> PublishedOutput {
        assert!(!data.is_empty(), "cannot publish an empty output");
        let run_pages = data.len().div_ceil(PAGE_BYTES);
        let allocation = self.allocator.allocate(run_pages);
        let trial = self.next_trial;
        self.next_trial += 1;
        if let Some(trace) = &mut self.trace {
            trace.record(trial, allocation.pages().to_vec());
        }

        let mut page_errors = Vec::with_capacity(run_pages);
        let mut padded = Vec::new();
        for (v, &phys) in allocation.pages().iter().enumerate() {
            let start = v * PAGE_BYTES;
            let end = ((v + 1) * PAGE_BYTES).min(data.len());
            let page_data: &[u8] = if end - start == PAGE_BYTES {
                &data[start..end]
            } else {
                padded.clear();
                padded.extend_from_slice(&data[start..end]);
                padded.resize(PAGE_BYTES, 0);
                &padded
            };
            page_errors.push(self.memory.page_errors(phys, page_data, trial));
        }
        PublishedOutput {
            page_errors,
            placement: allocation.pages().to_vec(),
            trial,
        }
    }

    /// Publishes a `run_pages`-page output of worst-case data (every cell
    /// charged). This mirrors the paper's §7.6 emulation, which models error
    /// patterns directly rather than simulating file contents.
    pub fn publish_worst_case(&mut self, run_pages: usize) -> PublishedOutput {
        let allocation = self.allocator.allocate(run_pages);
        let trial = self.next_trial;
        self.next_trial += 1;
        if let Some(trace) = &mut self.trace {
            trace.record(trial, allocation.pages().to_vec());
        }
        let page_errors = allocation
            .pages()
            .iter()
            .map(|&phys| self.memory.page_errors_worst_case(phys, trial))
            .collect();
        PublishedOutput {
            page_errors,
            placement: allocation.pages().to_vec(),
            trial,
        }
    }

    /// Applies a published output's errors to the exact bytes, producing the
    /// corrupted bytes a recipient would download.
    pub fn corrupt(&self, data: &[u8], output: &PublishedOutput) -> Vec<u8> {
        let mut out = data.to_vec();
        for (v, errs) in output.page_errors.iter().enumerate() {
            for &bit in errs {
                let byte = v * PAGE_BYTES + (bit / 8) as usize;
                if byte < out.len() {
                    out[byte] ^= 1 << (bit % 8);
                }
            }
        }
        out
    }

    /// Ground-truth helper for evaluation: the physical allocation the *next*
    /// publish would receive is unknown, but re-running placement with the
    /// same policy/seed is possible via [`crate::Allocation`]; exposed for tests.
    pub fn allocator(&self) -> &Allocator {
        &self.allocator
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys(seed: u64) -> ApproxSystem {
        ApproxSystem::emulated(SystemConfig {
            total_pages: 256,
            error_rate: 0.01,
            seed,
            placement: PlacementPolicy::ContiguousRandom,
        })
    }

    #[test]
    fn publish_pads_partial_pages() {
        let mut s = sys(1);
        let out = s.publish(&vec![0xFF; PAGE_BYTES + 100]);
        assert_eq!(out.len_pages(), 2);
    }

    #[test]
    fn trials_advance() {
        let mut s = sys(2);
        let a = s.publish_worst_case(4);
        let b = s.publish_worst_case(4);
        assert_eq!(a.trial, 0);
        assert_eq!(b.trial, 1);
        assert_eq!(s.outputs_published(), 2);
    }

    #[test]
    fn same_physical_page_same_errors_modulo_noise() {
        let mut s = ApproxSystem::emulated(SystemConfig {
            total_pages: 256,
            error_rate: 0.01,
            seed: 3,
            placement: PlacementPolicy::ContiguousFixed(10),
        });
        let a = s.publish_worst_case(1);
        let b = s.publish_worst_case(1);
        assert_eq!(a.placement, b.placement);
        let ea = &a.page_errors[0];
        let eb = &b.page_errors[0];
        let common = ea.iter().filter(|c| eb.binary_search(c).is_ok()).count();
        assert!(common as f64 > 0.9 * ea.len() as f64);
    }

    #[test]
    fn corrupt_flips_exactly_the_error_bits() {
        let mut s = sys(4);
        let data = vec![0xFFu8; PAGE_BYTES];
        let out = s.publish(&data);
        let corrupted = s.corrupt(&data, &out);
        let flips: usize = data
            .iter()
            .zip(&corrupted)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum();
        assert_eq!(flips, out.total_errors());
    }

    #[test]
    fn different_machines_different_errors() {
        let mut a = ApproxSystem::emulated(SystemConfig {
            total_pages: 256,
            seed: 10,
            placement: PlacementPolicy::ContiguousFixed(0),
            ..SystemConfig::default()
        });
        let mut b = ApproxSystem::emulated(SystemConfig {
            total_pages: 256,
            seed: 11,
            placement: PlacementPolicy::ContiguousFixed(0),
            ..SystemConfig::default()
        });
        assert_ne!(
            a.publish_worst_case(1).page_errors,
            b.publish_worst_case(1).page_errors
        );
    }

    #[test]
    #[should_panic(expected = "empty output")]
    fn empty_publish_rejected() {
        sys(1).publish(&[]);
    }
}
