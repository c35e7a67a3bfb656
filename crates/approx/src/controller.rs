//! The approximate-memory controller.

use crate::{calibrate_measured, AccuracyTarget, CalibrationConfig, CalibrationError, DecayMedium};
use pc_dram::Conditions;

/// An approximate memory: a decay medium plus a controller that holds a
/// target accuracy by tuning the refresh interval, recalibrating whenever the
/// environment changes.
///
/// Each store/readback cycle consumes a fresh trial number, so successive
/// outputs see independent realizations of the near-threshold noise — just
/// like successive runs on the paper's platform.
///
/// # Example
///
/// ```
/// use pc_approx::{AccuracyTarget, ApproxMemory};
/// use pc_dram::{ChipId, ChipProfile, DramChip};
///
/// let chip = DramChip::new(ChipProfile::km41464a(), ChipId(1));
/// let mut mem = ApproxMemory::with_target(chip, 40.0, AccuracyTarget::percent(95.0)?)?;
///
/// let exact = vec![0x5Au8; 1024];
/// let approx = mem.store_readback(0, &exact);
/// let errors: u32 = exact.iter().zip(&approx).map(|(a, b)| (a ^ b).count_ones()).sum();
/// // Roughly 5% of the *charged* bits decay; some error is expected.
/// assert!(approx.len() == exact.len());
/// # let _ = errors;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ApproxMemory<M> {
    medium: M,
    temperature_c: f64,
    target: AccuracyTarget,
    refresh_interval_s: f64,
    config: CalibrationConfig,
    next_trial: u64,
}

impl<M: DecayMedium> ApproxMemory<M> {
    /// Builds a controller over `medium` at `temperature_c`, calibrated to
    /// `target` accuracy with the default calibration configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`CalibrationError`] if the target cannot be reached.
    pub fn with_target(
        medium: M,
        temperature_c: f64,
        target: AccuracyTarget,
    ) -> Result<Self, CalibrationError> {
        Self::with_config(medium, temperature_c, target, CalibrationConfig::default())
    }

    /// Like [`ApproxMemory::with_target`] with an explicit calibration
    /// configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`CalibrationError`] if the target cannot be reached.
    pub fn with_config(
        medium: M,
        temperature_c: f64,
        target: AccuracyTarget,
        config: CalibrationConfig,
    ) -> Result<Self, CalibrationError> {
        let refresh_interval_s = calibrate_measured(&medium, temperature_c, target, &config)?;
        Ok(Self {
            medium,
            temperature_c,
            target,
            refresh_interval_s,
            config,
            next_trial: 0,
        })
    }

    /// Builds a controller with an explicit refresh interval, skipping
    /// calibration (for experiments that sweep the interval directly).
    pub fn with_interval(medium: M, temperature_c: f64, refresh_interval_s: f64) -> Self {
        // The target recorded here is nominal; no calibration is performed.
        Self {
            medium,
            temperature_c,
            target: AccuracyTarget::fraction(0.5).expect("0.5 is a valid accuracy"),
            refresh_interval_s,
            config: CalibrationConfig::default(),
            next_trial: 0,
        }
    }

    /// The underlying medium.
    pub fn medium(&self) -> &M {
        &self.medium
    }

    /// Configured accuracy target.
    pub fn target(&self) -> AccuracyTarget {
        self.target
    }

    /// Current ambient temperature in °C.
    pub fn temperature_c(&self) -> f64 {
        self.temperature_c
    }

    /// The calibrated refresh interval in seconds.
    pub fn refresh_interval_s(&self) -> f64 {
        self.refresh_interval_s
    }

    /// Changes the ambient temperature and recalibrates so the error rate
    /// stays at the target — the compensation loop of §7.3.
    ///
    /// # Errors
    ///
    /// Propagates [`CalibrationError`] if recalibration fails; the previous
    /// interval and temperature are left untouched in that case.
    pub fn set_temperature(&mut self, temperature_c: f64) -> Result<(), CalibrationError> {
        let interval = calibrate_measured(&self.medium, temperature_c, self.target, &self.config)?;
        self.temperature_c = temperature_c;
        self.refresh_interval_s = interval;
        Ok(())
    }

    /// Changes the accuracy target and recalibrates.
    ///
    /// # Errors
    ///
    /// Propagates [`CalibrationError`] if recalibration fails.
    pub fn set_target(&mut self, target: AccuracyTarget) -> Result<(), CalibrationError> {
        let interval = calibrate_measured(&self.medium, self.temperature_c, target, &self.config)?;
        self.target = target;
        self.refresh_interval_s = interval;
        Ok(())
    }

    /// The conditions the *next* store/readback will run under (without
    /// consuming the trial).
    pub fn next_conditions(&self) -> Conditions {
        Conditions::new(self.temperature_c, self.refresh_interval_s).trial(self.next_trial)
    }

    /// Stores `data` at byte offset `offset_bytes`, lets it sit for one
    /// refresh interval, and reads it back. Consumes one trial.
    pub fn store_readback(&mut self, offset_bytes: usize, data: &[u8]) -> Vec<u8> {
        let cond = self.advance_trial();
        self.medium.readback_at(offset_bytes, data, &cond)
    }

    /// Stores `data` and returns the *error cell indices* instead of the
    /// corrupted bytes. Consumes one trial.
    pub fn store_errors(&mut self, offset_bytes: usize, data: &[u8]) -> Vec<u64> {
        let cond = self.advance_trial();
        self.medium.errors_at(offset_bytes, data, &cond)
    }

    /// Number of store/readback cycles performed so far.
    pub fn trials_used(&self) -> u64 {
        self.next_trial
    }

    fn advance_trial(&mut self) -> Conditions {
        pc_telemetry::counter!("approx.trials").incr();
        let cond = self.next_conditions();
        self.next_trial += 1;
        cond
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_dram::{ChipGeometry, ChipId, ChipProfile, DramChip};

    fn chip() -> DramChip {
        DramChip::new(
            ChipProfile::km41464a().with_geometry(ChipGeometry::new(64, 1024, 2)),
            ChipId(11),
        )
    }

    fn mem(pct: f64) -> ApproxMemory<DramChip> {
        let cfg = CalibrationConfig {
            sample_cells: None,
            ..CalibrationConfig::default()
        };
        ApproxMemory::with_config(chip(), 40.0, AccuracyTarget::percent(pct).unwrap(), cfg).unwrap()
    }

    #[test]
    fn achieves_target_error_rate() {
        let mut m = mem(99.0);
        let data = m.medium().worst_case_pattern();
        let approx = m.store_readback(0, &data);
        let flipped: u32 = data
            .iter()
            .zip(&approx)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        let rate = flipped as f64 / (data.len() * 8) as f64;
        assert!((rate - 0.01).abs() < 0.004, "rate={rate}");
    }

    #[test]
    fn trials_advance_per_operation() {
        let mut m = mem(95.0);
        assert_eq!(m.trials_used(), 0);
        let data = vec![0xFF; 64];
        m.store_readback(0, &data);
        m.store_errors(0, &data);
        assert_eq!(m.trials_used(), 2);
    }

    #[test]
    fn successive_outputs_differ_only_slightly() {
        let mut m = mem(99.0);
        let data = m.medium().worst_case_pattern();
        let e1 = m.store_errors(0, &data);
        let e2 = m.store_errors(0, &data);
        assert!(!e1.is_empty());
        let common = e1.iter().filter(|c| e2.binary_search(c).is_ok()).count();
        assert!(
            common as f64 > 0.9 * e1.len() as f64,
            "only {common}/{} errors repeated",
            e1.len()
        );
    }

    #[test]
    fn temperature_change_keeps_rate() {
        let mut m = mem(95.0);
        let i40 = m.refresh_interval_s();
        m.set_temperature(60.0).unwrap();
        assert!(m.refresh_interval_s() < i40);
        let data = m.medium().worst_case_pattern();
        let approx = m.store_readback(0, &data);
        let flipped: u32 = data
            .iter()
            .zip(&approx)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        let rate = flipped as f64 / (data.len() * 8) as f64;
        assert!((rate - 0.05).abs() < 0.01, "rate={rate}");
    }

    #[test]
    fn set_target_changes_error_level() {
        let mut m = mem(99.0);
        let data = m.medium().worst_case_pattern();
        let e99 = m.store_errors(0, &data).len();
        m.set_target(AccuracyTarget::percent(90.0).unwrap())
            .unwrap();
        let e90 = m.store_errors(0, &data).len();
        assert!(e90 > 5 * e99, "e99={e99} e90={e90}");
    }

    #[test]
    fn with_interval_skips_calibration() {
        let m = ApproxMemory::with_interval(chip(), 40.0, 3.5);
        assert_eq!(m.refresh_interval_s(), 3.5);
        assert_eq!(m.temperature_c(), 40.0);
    }
}
