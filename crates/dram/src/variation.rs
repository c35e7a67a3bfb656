//! Process-variation mixing: mask-dependent vs. chip-random components.

/// Relative weights of the two manufacturing-variation sources the paper
/// identifies (§2):
///
/// 1. **capacitance variation** — potentially *mask-dependent*, i.e. partially
///    replicated across chips fabricated from the same mask set;
/// 2. **leakage-current variation** — caused by random dopant fluctuation in
///    the access transistor, *independent per chip*, and expected to dominate.
///
/// The simulator composes a cell's standard-normal variation score as
/// `z = (w_m · z_mask + w_c · z_chip) / √(w_m² + w_c²)`, which stays standard
/// normal, so the marginal retention distribution is unaffected by the split —
/// only the cross-chip correlation structure changes.
///
/// # Example
///
/// ```
/// use pc_dram::VariationMix;
/// let m = VariationMix::leakage_dominant();
/// assert!(m.chip_weight() > m.mask_weight());
/// let z = m.combine(1.0, -1.0);
/// assert!(z.abs() <= 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationMix {
    mask_weight: f64,
    chip_weight: f64,
}

impl VariationMix {
    /// Creates a mix with the given non-negative weights (at least one must
    /// be positive).
    ///
    /// # Panics
    ///
    /// Panics on negative, non-finite, or all-zero weights.
    pub fn new(mask_weight: f64, chip_weight: f64) -> Self {
        assert!(
            mask_weight.is_finite() && mask_weight >= 0.0,
            "mask weight must be non-negative"
        );
        assert!(
            chip_weight.is_finite() && chip_weight >= 0.0,
            "chip weight must be non-negative"
        );
        assert!(
            mask_weight + chip_weight > 0.0,
            "at least one weight must be positive"
        );
        Self {
            mask_weight,
            chip_weight,
        }
    }

    /// The paper's expectation: leakage (chip-random) dominates. 15% of the
    /// variance is mask-shared, 85% chip-unique.
    pub fn leakage_dominant() -> Self {
        // Weights are standard deviations; variance split is w².
        Self::new(0.15f64.sqrt(), 0.85f64.sqrt())
    }

    /// Fully chip-random variation (no mask component).
    pub fn chip_only() -> Self {
        Self::new(0.0, 1.0)
    }

    /// Mask-component weight (standard-deviation units).
    pub fn mask_weight(&self) -> f64 {
        self.mask_weight
    }

    /// Chip-component weight (standard-deviation units).
    pub fn chip_weight(&self) -> f64 {
        self.chip_weight
    }

    /// Fraction of retention variance shared between chips of the same mask.
    pub fn mask_variance_fraction(&self) -> f64 {
        let m2 = self.mask_weight * self.mask_weight;
        let c2 = self.chip_weight * self.chip_weight;
        m2 / (m2 + c2)
    }

    /// Combines standard-normal mask and chip scores into a standard-normal
    /// cell score.
    pub fn combine(&self, z_mask: f64, z_chip: f64) -> f64 {
        let norm =
            (self.mask_weight * self.mask_weight + self.chip_weight * self.chip_weight).sqrt();
        (self.mask_weight * z_mask + self.chip_weight * z_chip) / norm
    }
}

impl Default for VariationMix {
    fn default() -> Self {
        Self::leakage_dominant()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combine_preserves_unit_variance() {
        // Var(combine) = (w_m² + w_c²)/norm² = 1 by construction; spot-check
        // with a moment estimate.
        let m = VariationMix::new(0.6, 0.8);
        let h = pc_stats::CellHasher::new(1);
        let g = pc_stats::CellHasher::new(2);
        let n = 50_000u64;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for i in 0..n {
            let z = m.combine(
                pc_stats::probit(h.uniform(i)),
                pc_stats::probit(g.uniform(i)),
            );
            sum += z;
            sumsq += z * z;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean={mean}");
        assert!((var - 1.0).abs() < 0.03, "var={var}");
    }

    #[test]
    fn chip_only_ignores_mask() {
        let m = VariationMix::chip_only();
        assert_eq!(m.combine(123.0, 0.5), 0.5);
        assert_eq!(m.mask_variance_fraction(), 0.0);
    }

    #[test]
    fn leakage_dominant_split() {
        let m = VariationMix::leakage_dominant();
        assert!((m.mask_variance_fraction() - 0.15).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one weight")]
    fn all_zero_rejected() {
        VariationMix::new(0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_rejected() {
        VariationMix::new(-1.0, 1.0);
    }
}
