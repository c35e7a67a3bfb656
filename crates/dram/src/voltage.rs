//! Supply-voltage scaling — the second approximation knob (paper §2: energy
//! schemes "lower the input voltage \[3\] or decrease the refresh rate").

/// Maps supply voltage to a multiplicative retention scale.
///
/// Charge stored is proportional to `(V − V_retain)`, and the time to drain
/// below the sense threshold scales roughly with the square of the stored
/// margin; below `V_retain` cells cannot hold data at all. The exact exponent
/// is part-specific — what matters for Probable Cause is that the scale is
/// **common to all cells**, so voltage scaling exposes the *same* volatility
/// ordering as refresh scaling (verified by the `knobs` experiment).
///
/// # Example
///
/// ```
/// use pc_dram::VoltageModel;
/// let m = VoltageModel::ddr2_like();
/// assert!((m.retention_scale(m.nominal_v()) - 1.0).abs() < 1e-12);
/// assert!(m.retention_scale(1.2) < 0.2); // undervolting hurts retention fast
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoltageModel {
    nominal_v: f64,
    retain_v: f64,
    exponent: f64,
}

impl VoltageModel {
    /// Creates a model: retention scale = `((v − retain) / (nominal − retain))^exponent`.
    ///
    /// # Panics
    ///
    /// Panics unless `retain_v < nominal_v` and the exponent is positive.
    pub fn new(nominal_v: f64, retain_v: f64, exponent: f64) -> Self {
        assert!(
            retain_v.is_finite() && nominal_v.is_finite() && retain_v < nominal_v,
            "need retain_v < nominal_v"
        );
        assert!(
            exponent.is_finite() && exponent > 0.0,
            "exponent must be positive"
        );
        Self {
            nominal_v,
            retain_v,
            exponent,
        }
    }

    /// A DDR2-flavoured default: nominal 1.8 V, retention floor 1.0 V,
    /// quadratic margin.
    pub fn ddr2_like() -> Self {
        Self::new(1.8, 1.0, 2.0)
    }

    /// Nominal supply voltage.
    pub fn nominal_v(&self) -> f64 {
        self.nominal_v
    }

    /// The voltage below which cells cannot retain data.
    pub fn retain_v(&self) -> f64 {
        self.retain_v
    }

    /// Retention scale at supply voltage `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is at or below the retention floor.
    pub fn retention_scale(&self, v: f64) -> f64 {
        assert!(
            v > self.retain_v,
            "supply {v} V at or below the retention floor {} V",
            self.retain_v
        );
        ((v - self.retain_v) / (self.nominal_v - self.retain_v)).powf(self.exponent)
    }

    /// The supply voltage producing a given retention scale — the inverse of
    /// [`VoltageModel::retention_scale`], used by voltage calibration.
    ///
    /// # Panics
    ///
    /// Panics unless `scale` is positive and finite.
    pub fn voltage_for_scale(&self, scale: f64) -> f64 {
        assert!(scale.is_finite() && scale > 0.0, "scale must be positive");
        self.retain_v + (self.nominal_v - self.retain_v) * scale.powf(1.0 / self.exponent)
    }

    /// A rough dynamic-power proxy relative to nominal: `(v / nominal)²`.
    pub fn relative_power(&self, v: f64) -> f64 {
        (v / self.nominal_v).powi(2)
    }
}

impl Default for VoltageModel {
    fn default() -> Self {
        Self::ddr2_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_voltage_is_identity_scale() {
        let m = VoltageModel::ddr2_like();
        assert!((m.retention_scale(1.8) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scale_monotone_in_voltage() {
        let m = VoltageModel::ddr2_like();
        assert!(m.retention_scale(1.6) > m.retention_scale(1.4));
        assert!(m.retention_scale(1.4) > m.retention_scale(1.1));
    }

    #[test]
    fn voltage_for_scale_inverts() {
        let m = VoltageModel::ddr2_like();
        for &s in &[1.0, 0.5, 0.1, 0.003] {
            let v = m.voltage_for_scale(s);
            assert!((m.retention_scale(v) - s).abs() < 1e-9, "scale {s}");
        }
    }

    #[test]
    fn power_drops_with_voltage() {
        let m = VoltageModel::ddr2_like();
        assert!(m.relative_power(1.4) < 1.0);
        assert!((m.relative_power(1.8) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "retention floor")]
    fn below_floor_rejected() {
        VoltageModel::ddr2_like().retention_scale(0.9);
    }

    #[test]
    #[should_panic(expected = "retain_v < nominal_v")]
    fn bad_bounds_rejected() {
        VoltageModel::new(1.0, 1.8, 2.0);
    }
}
