//! Quantile-based decay emulation for system-scale memories.

use pc_stats::{probit, CellHasher};

const TAG_ORDER: u64 = 11;
const TAG_NOISE: u64 = 12;

/// A page-oriented decay emulator for memories too large to simulate
/// cell-by-cell (the paper's 1 GB iMac experiment).
///
/// The model captures the paper's central empirical finding directly: **cells
/// fail in a stable, chip-specific order** (§7.4). Each page has a
/// deterministic *failure order* over its cells; the cell at rank `r` carries
/// volatility quantile `q = (r + 0.5) / page_bits`, and a charged cell fails
/// at error rate `p` iff its per-trial jittered quantile is below `p`:
/// `q · (1 + σ·z(trial, cell)) < p`.
///
/// Consequences, all matching the paper:
/// - error sets at increasing error rates are nested (Fig. 10's ⊂ relation);
/// - errors repeat across trials except near the threshold (Fig. 8's ~98%);
/// - the pattern is unique per memory seed (Fig. 7).
///
/// Evaluating a page costs O(p · page_bits) — only the volatile head of the
/// failure order is walked — so 1 GB memories emulate in reasonable time.
///
/// # Example
///
/// ```
/// use pc_model::QuantileMemory;
/// let mem = QuantileMemory::new(42);
/// let e99 = mem.page_errors(7, 0.01, 0);
/// let e90 = mem.page_errors(7, 0.10, 0);
/// // Same trial: the 1%-error set nests inside the 10%-error set.
/// assert!(e99.iter().all(|c| e90.binary_search(c).is_ok()));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileMemory {
    order_plane: CellHasher,
    noise_plane: CellHasher,
    page_bits: u32,
    noise_sigma: f64,
}

impl QuantileMemory {
    /// Creates an emulated memory with 4 KB pages (32768 bits) and the
    /// default noise level.
    pub fn new(seed: u64) -> Self {
        Self::with_params(seed, 32_768, 0.002)
    }

    /// Creates an emulated memory with explicit page size (bits) and relative
    /// quantile jitter `noise_sigma`.
    ///
    /// # Panics
    ///
    /// Panics if `page_bits` is zero or `noise_sigma` is negative/non-finite.
    pub fn with_params(seed: u64, page_bits: u32, noise_sigma: f64) -> Self {
        assert!(page_bits > 0, "page_bits must be positive");
        assert!(
            noise_sigma.is_finite() && noise_sigma >= 0.0,
            "noise sigma must be non-negative"
        );
        let h = CellHasher::new(seed);
        Self {
            order_plane: h.derive(TAG_ORDER),
            noise_plane: h.derive(TAG_NOISE),
            page_bits,
            noise_sigma,
        }
    }

    /// Bits per page.
    pub fn page_bits(&self) -> u32 {
        self.page_bits
    }

    /// Per-trial quantile jitter.
    pub fn noise_sigma(&self) -> f64 {
        self.noise_sigma
    }

    /// The first `count` cells of page `page`'s failure order (most volatile
    /// first). Deterministic per memory seed.
    ///
    /// # Panics
    ///
    /// Panics if `count > page_bits`.
    pub fn failure_order(&self, page: u64, count: usize) -> Vec<u32> {
        assert!(
            count <= self.page_bits as usize,
            "cannot order more cells than a page holds"
        );
        let h = self.order_plane.derive(page);
        let mut seen = vec![0u64; (self.page_bits as usize).div_ceil(64)];
        let mut order = Vec::with_capacity(count);
        let mut i = 0u64;
        while order.len() < count {
            let cell = (h.word(i) % self.page_bits as u64) as u32;
            i += 1;
            let (w, b) = ((cell / 64) as usize, cell % 64);
            if seen[w] & (1 << b) == 0 {
                seen[w] |= 1 << b;
                order.push(cell);
            }
        }
        order
    }

    /// Error bit positions (sorted ascending) in page `page` when held at
    /// worst-case data (every cell charged) with error rate `error_rate`, in
    /// noise realization `trial`.
    ///
    /// # Panics
    ///
    /// Panics unless `error_rate` is in `[0, 1]`.
    pub fn page_errors(&self, page: u64, error_rate: f64, trial: u64) -> Vec<u32> {
        assert!(
            (0.0..=1.0).contains(&error_rate),
            "error rate must be in [0,1], got {error_rate}"
        );
        if error_rate == 0.0 {
            return Vec::new();
        }
        // Walk the failure order a little past the nominal cut so jittered
        // cells on either side of the threshold are considered.
        let margin = 1.0 + 8.0 * self.noise_sigma;
        let horizon = ((self.page_bits as f64 * error_rate * margin).ceil() as usize + 8)
            .min(self.page_bits as usize);
        let order = self.failure_order(page, horizon);
        let mut errors: Vec<u32> = Vec::with_capacity((horizon as f64 / margin) as usize + 8);
        for (rank, &cell) in order.iter().enumerate() {
            let q = (rank as f64 + 0.5) / self.page_bits as f64;
            let q_eff = if self.noise_sigma > 0.0 {
                let z = probit(
                    self.noise_plane
                        .uniform2(trial, page * self.page_bits as u64 + cell as u64),
                );
                q * (1.0 + self.noise_sigma * z).max(1e-6)
            } else {
                q
            };
            if q_eff < error_rate {
                errors.push(cell);
            }
        }
        errors.sort_unstable();
        errors
    }

    /// The *noiseless* error set of a page — the ground-truth fingerprint an
    /// omniscient observer would assign (used to validate attacker output in
    /// tests and experiments).
    pub fn page_ground_truth(&self, page: u64, error_rate: f64) -> Vec<u32> {
        assert!(
            (0.0..=1.0).contains(&error_rate),
            "error rate must be in [0,1], got {error_rate}"
        );
        let count = (self.page_bits as f64 * error_rate).round() as usize;
        let mut cells = self.failure_order(page, count.min(self.page_bits as usize));
        cells.sort_unstable();
        cells
    }

    /// Error positions of `page` when holding `data` (one page of bytes):
    /// only *charged* cells can decay, where cell `c` is charged iff its data
    /// bit differs from `default_bit(c)`.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly one page.
    pub fn page_errors_for_data(
        &self,
        page: u64,
        data: &[u8],
        default_bit: impl Fn(u32) -> bool,
        error_rate: f64,
        trial: u64,
    ) -> Vec<u32> {
        assert_eq!(
            data.len() * 8,
            self.page_bits as usize,
            "data must be exactly one page"
        );
        self.page_errors(page, error_rate, trial)
            .into_iter()
            .filter(|&c| {
                let bit = data[(c / 8) as usize] & (1 << (c % 8)) != 0;
                bit != default_bit(c)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_order_deterministic_and_distinct() {
        let m = QuantileMemory::new(1);
        let a = m.failure_order(3, 500);
        let b = m.failure_order(3, 500);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 500, "failure order must not repeat cells");
    }

    #[test]
    fn pages_have_independent_orders() {
        let m = QuantileMemory::new(1);
        assert_ne!(m.failure_order(0, 100), m.failure_order(1, 100));
    }

    #[test]
    fn seeds_have_independent_orders() {
        let a = QuantileMemory::new(1);
        let b = QuantileMemory::new(2);
        assert_ne!(a.failure_order(0, 100), b.failure_order(0, 100));
    }

    #[test]
    fn error_count_tracks_rate() {
        let m = QuantileMemory::new(7);
        for &p in &[0.01, 0.05, 0.10] {
            let e = m.page_errors(11, p, 0);
            let want = 32_768.0 * p;
            assert!(
                (e.len() as f64 - want).abs() < want * 0.25 + 8.0,
                "rate {p}: got {} want ~{want}",
                e.len()
            );
        }
    }

    #[test]
    fn subset_across_rates_same_trial() {
        let m = QuantileMemory::new(9);
        for trial in 0..3 {
            let e99 = m.page_errors(5, 0.01, trial);
            let e95 = m.page_errors(5, 0.05, trial);
            let e90 = m.page_errors(5, 0.10, trial);
            assert!(e99.iter().all(|c| e95.binary_search(c).is_ok()));
            assert!(e95.iter().all(|c| e90.binary_search(c).is_ok()));
        }
    }

    #[test]
    fn trials_mostly_agree() {
        let m = QuantileMemory::new(13);
        let e0 = m.page_errors(2, 0.01, 0);
        let e1 = m.page_errors(2, 0.01, 1);
        let common = e0.iter().filter(|c| e1.binary_search(c).is_ok()).count();
        assert!(
            common as f64 > 0.9 * e0.len() as f64,
            "only {common}/{} repeated",
            e0.len()
        );
        assert_ne!(e0, e1, "noise should move at least one borderline cell");
    }

    #[test]
    fn ground_truth_is_noiseless_core() {
        let m = QuantileMemory::new(21);
        let gt = m.page_ground_truth(4, 0.01);
        assert_eq!(gt.len(), 328);
        let observed = m.page_errors(4, 0.01, 3);
        // The stable core of any observation is the ground truth; overlap
        // must be large.
        let common = gt
            .iter()
            .filter(|c| observed.binary_search(c).is_ok())
            .count();
        assert!(common as f64 > 0.9 * gt.len() as f64);
    }

    #[test]
    fn zero_rate_no_errors() {
        let m = QuantileMemory::new(3);
        assert!(m.page_errors(0, 0.0, 0).is_empty());
    }

    #[test]
    fn zero_noise_is_exactly_ground_truth() {
        let m = QuantileMemory::with_params(5, 32_768, 0.0);
        let e = m.page_errors(8, 0.01, 42);
        let gt = m.page_ground_truth(8, 0.01);
        assert_eq!(e, gt);
    }

    #[test]
    fn data_filter_restricts_to_charged_cells() {
        let m = QuantileMemory::with_params(5, 64, 0.0);
        let data = vec![0xFFu8; 8]; // all ones
                                    // Default 1 everywhere -> nothing charged -> no errors.
        let none = m.page_errors_for_data(0, &data, |_| true, 0.5, 0);
        assert!(none.is_empty());
        // Default 0 everywhere -> everything charged -> full error set.
        let all = m.page_errors_for_data(0, &data, |_| false, 0.5, 0);
        assert_eq!(all, m.page_errors(0, 0.5, 0));
    }

    #[test]
    #[should_panic(expected = "exactly one page")]
    fn data_filter_checks_length() {
        let m = QuantileMemory::new(1);
        m.page_errors_for_data(0, &[0u8; 7], |_| false, 0.01, 0);
    }

    #[test]
    #[should_panic(expected = "error rate")]
    fn bad_rate_rejected() {
        QuantileMemory::new(1).page_errors(0, 1.5, 0);
    }
}
