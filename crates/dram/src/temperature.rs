//! Temperature dependence of cell retention.

/// Exponential temperature acceleration of DRAM charge decay.
///
/// Retention time is known to drop sharply with temperature (paper §7.3,
/// citing Hamamoto et al. \[10\]); a standard engineering approximation —
/// consistent with the Arrhenius behaviour of junction leakage — is that
/// retention halves for every ~10 °C of heating. Crucially, the acceleration
/// is (to first order) *common to all cells*, so the relative ordering of
/// cell volatilities is temperature-invariant. That invariance is exactly
/// what the paper measures in Fig. 9 and what makes fingerprints robust.
///
/// # Example
///
/// ```
/// use pc_dram::TemperatureModel;
/// let m = TemperatureModel::new(40.0, 10.0);
/// let t40 = m.scale(40.0);
/// let t50 = m.scale(50.0);
/// assert!((t40 - 1.0).abs() < 1e-12);
/// assert!((t50 - 0.5).abs() < 1e-12); // retention halves at +10 °C
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TemperatureModel {
    reference_c: f64,
    halving_interval_c: f64,
}

impl TemperatureModel {
    /// Creates a model with reference temperature `reference_c` (°C) and
    /// retention halving every `halving_interval_c` degrees.
    ///
    /// # Panics
    ///
    /// Panics if `halving_interval_c` is not positive and finite.
    pub fn new(reference_c: f64, halving_interval_c: f64) -> Self {
        assert!(
            halving_interval_c.is_finite() && halving_interval_c > 0.0,
            "halving interval must be positive"
        );
        assert!(
            reference_c.is_finite(),
            "reference temperature must be finite"
        );
        Self {
            reference_c,
            halving_interval_c,
        }
    }

    /// JEDEC-flavoured default: reference 40 °C, halving every 10 °C.
    pub fn jedec_like() -> Self {
        Self::new(40.0, 10.0)
    }

    /// Reference temperature in °C.
    pub fn reference_c(&self) -> f64 {
        self.reference_c
    }

    /// Multiplicative retention scale at `temperature_c`.
    ///
    /// 1.0 at the reference temperature, 0.5 at reference + halving interval,
    /// 2.0 at reference − halving interval.
    pub fn scale(&self, temperature_c: f64) -> f64 {
        ((self.reference_c - temperature_c) / self.halving_interval_c).exp2()
    }

    /// Retention time at `temperature_c` given retention `t_ref` at the
    /// reference temperature.
    pub fn retention_at(&self, t_ref_seconds: f64, temperature_c: f64) -> f64 {
        t_ref_seconds * self.scale(temperature_c)
    }
}

impl Default for TemperatureModel {
    fn default() -> Self {
        Self::jedec_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_monotone_decreasing_in_temperature() {
        let m = TemperatureModel::jedec_like();
        assert!(m.scale(40.0) > m.scale(50.0));
        assert!(m.scale(50.0) > m.scale(60.0));
    }

    #[test]
    fn twenty_degrees_quarters_retention() {
        let m = TemperatureModel::new(40.0, 10.0);
        assert!((m.retention_at(8.0, 60.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn cooling_extends_retention() {
        let m = TemperatureModel::new(40.0, 10.0);
        assert!((m.retention_at(8.0, 30.0) - 16.0).abs() < 1e-12);
    }

    #[test]
    fn scale_preserves_cell_ordering() {
        // The scale is cell-independent, so any two retention times keep
        // their order at any temperature.
        let m = TemperatureModel::jedec_like();
        let (a, b) = (3.0, 5.0);
        for t in [0.0, 25.0, 40.0, 85.0] {
            assert!(m.retention_at(a, t) < m.retention_at(b, t));
        }
    }

    #[test]
    #[should_panic(expected = "halving interval")]
    fn rejects_zero_interval() {
        TemperatureModel::new(40.0, 0.0);
    }
}
