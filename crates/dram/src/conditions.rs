//! Operating conditions of a decay experiment.

/// The environment a buffer experiences while resident in approximate DRAM:
/// ambient temperature, the time charged cells go unrefreshed, and a trial
/// number that selects the per-run noise realization.
///
/// `Conditions` is a value object; the builder-style setters return `self` so
/// conditions read naturally at call sites.
///
/// # Example
///
/// ```
/// use pc_dram::Conditions;
/// let c = Conditions::new(50.0, 4.0).trial(3);
/// assert_eq!(c.temperature_c(), 50.0);
/// assert_eq!(c.refresh_interval_s(), 4.0);
/// assert_eq!(c.trial_id(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Conditions {
    temperature_c: f64,
    refresh_interval_s: f64,
    trial: u64,
    retention_scale: f64,
}

impl Conditions {
    /// Creates conditions at `temperature_c` °C with charged cells left
    /// unrefreshed for `refresh_interval_s` seconds (trial 0).
    ///
    /// # Panics
    ///
    /// Panics if the refresh interval is negative or either value is
    /// non-finite.
    pub fn new(temperature_c: f64, refresh_interval_s: f64) -> Self {
        assert!(temperature_c.is_finite(), "temperature must be finite");
        assert!(
            refresh_interval_s.is_finite() && refresh_interval_s >= 0.0,
            "refresh interval must be non-negative, got {refresh_interval_s}"
        );
        Self {
            temperature_c,
            refresh_interval_s,
            trial: 0,
            retention_scale: 1.0,
        }
    }

    /// Selects the trial (noise realization) number.
    pub fn trial(mut self, trial: u64) -> Self {
        self.trial = trial;
        self
    }

    /// Replaces the refresh interval, keeping temperature and trial.
    pub fn with_refresh_interval(mut self, refresh_interval_s: f64) -> Self {
        assert!(
            refresh_interval_s.is_finite() && refresh_interval_s >= 0.0,
            "refresh interval must be non-negative"
        );
        self.refresh_interval_s = refresh_interval_s;
        self
    }

    /// Applies a multiplicative retention scale — how *supply-voltage
    /// scaling* enters the model. Lowering the supply drains capacitors
    /// faster, shrinking every cell's retention by a common factor (see
    /// [`crate::VoltageModel`]); because the factor is common, the failure
    /// *order* of cells is untouched.
    ///
    /// # Panics
    ///
    /// Panics unless the scale is positive and finite.
    pub fn with_retention_scale(mut self, scale: f64) -> Self {
        assert!(
            scale.is_finite() && scale > 0.0,
            "retention scale must be positive, got {scale}"
        );
        self.retention_scale = scale;
        self
    }

    /// Ambient temperature in °C.
    pub fn temperature_c(&self) -> f64 {
        self.temperature_c
    }

    /// Multiplicative retention scale (1.0 = nominal supply voltage).
    pub fn retention_scale(&self) -> f64 {
        self.retention_scale
    }

    /// Seconds a charged cell goes without refresh.
    pub fn refresh_interval_s(&self) -> f64 {
        self.refresh_interval_s
    }

    /// Trial (noise realization) number.
    pub fn trial_id(&self) -> u64 {
        self.trial
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_roundtrip() {
        let c = Conditions::new(60.0, 2.5)
            .trial(9)
            .with_refresh_interval(1.25);
        assert_eq!(c.temperature_c(), 60.0);
        assert_eq!(c.refresh_interval_s(), 1.25);
        assert_eq!(c.trial_id(), 9);
        assert_eq!(c.retention_scale(), 1.0);
    }

    #[test]
    fn retention_scale_builder() {
        let c = Conditions::new(40.0, 0.064).with_retention_scale(0.01);
        assert_eq!(c.retention_scale(), 0.01);
    }

    #[test]
    #[should_panic(expected = "retention scale")]
    fn zero_scale_rejected() {
        Conditions::new(40.0, 1.0).with_retention_scale(0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_interval_rejected() {
        Conditions::new(40.0, -1.0);
    }
}
