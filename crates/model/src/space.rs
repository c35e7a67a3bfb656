//! Equations 1–4: the fingerprint state space, log domain throughout.

use pc_stats::{ln_binomial, log_sum_exp};

const LN_10: f64 = std::f64::consts::LN_10;
const LN_2: f64 = std::f64::consts::LN_2;

/// The combinatorial model of Section 7.1: a memory of `M` bits holding
/// fingerprints of `A` error bits, matched with a noise threshold of `T`
/// bits.
///
/// All quantities are returned as `log10` (or bits, for entropy) because the
/// raw values overflow `f64` by hundreds of orders of magnitude.
///
/// # Example
///
/// ```
/// use pc_model::FingerprintSpace;
/// let s = FingerprintSpace::new(32_768, 328, 32);
/// let (lo, hi) = s.log10_distinguishable_bounds();
/// assert!(lo <= hi);
/// // Paper: max unique fingerprints >= 1.07e590.
/// assert!(lo > 580.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FingerprintSpace {
    memory_bits: u64,
    error_bits: u64,
    threshold_bits: u64,
}

impl FingerprintSpace {
    /// Creates a model for a memory of `memory_bits` (M) with `error_bits`
    /// (A) errors tolerated and a matching threshold of `threshold_bits` (T).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < T < A <= M` (the paper assumes `A > T`).
    pub fn new(memory_bits: u64, error_bits: u64, threshold_bits: u64) -> Self {
        assert!(error_bits <= memory_bits, "A must not exceed M");
        assert!(
            threshold_bits < error_bits,
            "the model requires T < A (noise below signal)"
        );
        assert!(threshold_bits > 0, "T must be positive");
        Self {
            memory_bits,
            error_bits,
            threshold_bits,
        }
    }

    /// Table 1's configuration: one 4 KB page (`M = 32768`), 1% error
    /// (`A = 328`), threshold 10% of A (`T = 32`).
    pub fn paper_page() -> Self {
        Self::new(32_768, 328, 32)
    }

    /// The same page at a different accuracy (Table 2 rows): `A` becomes
    /// `round(M * error_rate)` and `T` stays 10% of `A`.
    ///
    /// # Panics
    ///
    /// Panics if the resulting parameters violate `0 < T < A <= M`.
    pub fn page_at_error_rate(error_rate: f64) -> Self {
        let m = 32_768u64;
        let a = ((m as f64) * error_rate).round() as u64;
        let t = ((a as f64) * 0.1).round() as u64;
        Self::new(m, a, t.max(1))
    }

    /// Memory size `M` in bits.
    pub fn memory_bits(&self) -> u64 {
        self.memory_bits
    }

    /// Tolerated error bits `A`.
    pub fn error_bits(&self) -> u64 {
        self.error_bits
    }

    /// Matching threshold `T` in bits.
    pub fn threshold_bits(&self) -> u64 {
        self.threshold_bits
    }

    /// ln Σ_{i=lo}^{hi} C(M, i), computed stably.
    fn ln_binomial_sum(&self, lo: u64, hi: u64) -> f64 {
        let terms: Vec<f64> = (lo..=hi.min(self.memory_bits))
            .map(|i| ln_binomial(self.memory_bits, i))
            .collect();
        log_sum_exp(&terms)
    }

    /// Equation 1: `log10 C(M, A)` — the maximum number of distinct
    /// fingerprints a memory could express.
    pub fn log10_max_fingerprints(&self) -> f64 {
        ln_binomial(self.memory_bits, self.error_bits) / LN_10
    }

    /// Equation 2 (Hamming bound): `log10` lower and upper bounds on the
    /// number of *distinguishable* fingerprints under a `T`-bit noise
    /// threshold:
    /// `C(M,A) / Σ_{i=0}^{2T} C(M,i) ≤ X ≤ C(M,A) / Σ_{i=0}^{T} C(M,i)`.
    pub fn log10_distinguishable_bounds(&self) -> (f64, f64) {
        let ln_total = ln_binomial(self.memory_bits, self.error_bits);
        let lo = (ln_total - self.ln_binomial_sum(0, 2 * self.threshold_bits)) / LN_10;
        let hi = (ln_total - self.ln_binomial_sum(0, self.threshold_bits)) / LN_10;
        (lo, hi)
    }

    /// Equation 3: `log10` bounds on the chance of two fingerprints being
    /// mistakenly matched:
    /// `Σ_{i=1}^{T} C(M,i) / C(M,A) ≤ p ≤ Σ_{i=1}^{2T} C(M,i) / C(M,A)`.
    pub fn log10_mismatch_bounds(&self) -> (f64, f64) {
        let ln_total = ln_binomial(self.memory_bits, self.error_bits);
        let lo = (self.ln_binomial_sum(1, self.threshold_bits) - ln_total) / LN_10;
        let hi = (self.ln_binomial_sum(1, 2 * self.threshold_bits) - ln_total) / LN_10;
        (lo, hi)
    }

    /// Equation 4 (total form): the entropy lower bound in bits,
    /// `log2 C(M, A − T)`.
    pub fn entropy_bits(&self) -> f64 {
        ln_binomial(self.memory_bits, self.error_bits - self.threshold_bits) / LN_2
    }

    /// Equation 4: entropy per memory bit, `log2 C(M, A−T) / M`.
    pub fn entropy_per_bit(&self) -> f64 {
        self.entropy_bits() / self.memory_bits as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values_match_paper() {
        // Table 1: M=32768, A=1% (328 bits), T=32 bits. The paper prints
        // 8.70e795 / >=1.07e590 / <=9.29e-591 / 2423 bits; exact log-domain
        // evaluation of its own formulas gives 10^795.94 / 10^596.1 /
        // 10^-596.1 / 2429.7 bits — identical to the paper's leading term and
        // within ~6 orders (out of ~600) on the bound terms, i.e. the paper
        // rounded its binomial sums. We assert agreement at that granularity.
        let s = FingerprintSpace::paper_page();
        let l10 = s.log10_max_fingerprints();
        assert!((l10 - 795.94).abs() < 0.1, "log10 max = {l10}");
        let (lo, _hi) = s.log10_distinguishable_bounds();
        assert!(
            (589.0..=601.0).contains(&lo),
            "log10 distinguishable lower = {lo}"
        );
        let (_mlo, mhi) = s.log10_mismatch_bounds();
        assert!(
            (-601.0..=-589.0).contains(&mhi),
            "log10 mismatch upper = {mhi}"
        );
        let e = s.entropy_bits();
        assert!((e - 2423.0).abs() < 10.0, "entropy = {e}");
    }

    #[test]
    fn table2_mismatch_shrinks_with_accuracy() {
        // Table 2: 99% -> <= 9.29e-591; 95% -> <= 8.78e-2028; 90% -> <= 4.76e-3232.
        // Exact evaluation: -596.1, -2026.6, -3229.8 — within a few orders of
        // the printed values, same shape (exponential growth of the space).
        let p99 = FingerprintSpace::page_at_error_rate(0.01);
        let p95 = FingerprintSpace::page_at_error_rate(0.05);
        let p90 = FingerprintSpace::page_at_error_rate(0.10);
        let (_l1, h99) = p99.log10_mismatch_bounds();
        let (_l2, h95) = p95.log10_mismatch_bounds();
        let (_l3, h90) = p90.log10_mismatch_bounds();
        assert!(h99 > h95 && h95 > h90, "{h99} {h95} {h90}");
        assert!((h95 + 2027.0).abs() < 5.0, "95% bound = {h95}");
        assert!((h90 + 3231.0).abs() < 5.0, "90% bound = {h90}");
    }

    #[test]
    fn bounds_are_ordered() {
        let s = FingerprintSpace::new(4096, 40, 4);
        let (lo, hi) = s.log10_distinguishable_bounds();
        assert!(lo < hi);
        let (mlo, mhi) = s.log10_mismatch_bounds();
        assert!(mlo < mhi);
        assert!(mhi < 0.0, "mismatch probability must be < 1");
    }

    #[test]
    fn entropy_positive_and_bounded_by_memory() {
        let s = FingerprintSpace::new(4096, 40, 4);
        assert!(s.entropy_bits() > 0.0);
        assert!(s.entropy_bits() < 4096.0);
        assert!(s.entropy_per_bit() > 0.0 && s.entropy_per_bit() < 1.0);
    }

    #[test]
    #[should_panic(expected = "T < A")]
    fn threshold_must_be_below_signal() {
        FingerprintSpace::new(1024, 10, 10);
    }

    #[test]
    #[should_panic(expected = "A must not exceed M")]
    fn errors_bounded_by_memory() {
        FingerprintSpace::new(64, 100, 5);
    }
}
