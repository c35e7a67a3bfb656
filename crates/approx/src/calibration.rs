//! Refresh-interval calibration: finding the interval that yields a target
//! worst-case error rate at the current temperature.

use crate::{AccuracyTarget, DecayMedium};
use pc_dram::{ChipProfile, Conditions};
use std::fmt;

/// How the measured calibration samples the medium and when it stops.
///
/// # Example
///
/// ```
/// use pc_approx::CalibrationConfig;
/// let cfg = CalibrationConfig::default();
/// assert!(cfg.max_iterations >= 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationConfig {
    /// Maximum bisection steps before giving up.
    pub max_iterations: u32,
    /// Acceptable relative deviation of the measured error rate from the
    /// target (e.g. 0.05 = within ±5% of the target rate).
    pub relative_tolerance: f64,
    /// Number of cells to sample when measuring the error rate; `None` scans
    /// every cell. Sampling uses a fixed stride so it is deterministic.
    pub sample_cells: Option<u64>,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        Self {
            max_iterations: 48,
            relative_tolerance: 0.03,
            sample_cells: Some(65_536),
        }
    }
}

/// Calibration failure.
#[derive(Debug, Clone, PartialEq)]
pub enum CalibrationError {
    /// Bisection exhausted its iteration budget without bracketing the target
    /// rate to the requested tolerance.
    DidNotConverge {
        /// Target error rate.
        target: f64,
        /// Error rate measured at the last probed interval.
        achieved: f64,
    },
    /// The upper search bound could not produce even the target error rate —
    /// the medium is too reliable for the requested approximation level in
    /// this environment.
    TargetUnreachable {
        /// Target error rate.
        target: f64,
    },
}

impl fmt::Display for CalibrationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CalibrationError::DidNotConverge { target, achieved } => write!(
                f,
                "calibration did not converge: target error rate {target}, achieved {achieved}"
            ),
            CalibrationError::TargetUnreachable { target } => {
                write!(
                    f,
                    "target error rate {target} unreachable in this environment"
                )
            }
        }
    }
}

impl std::error::Error for CalibrationError {}

/// Closed-form refresh interval for a *profile* whose retention distribution
/// has an analytic quantile: the interval at which a fraction
/// `target.error_rate()` of cells decay at `temperature_c`.
///
/// Returns `None` for distributions without a closed-form quantile (the
/// skewed DDR2 shape) — use [`calibrate_measured`] there.
///
/// # Example
///
/// ```
/// use pc_approx::{analytic_interval, AccuracyTarget};
/// use pc_dram::ChipProfile;
/// let t = analytic_interval(
///     &ChipProfile::km41464a(),
///     40.0,
///     AccuracyTarget::percent(99.0)?,
/// ).unwrap();
/// assert!(t > 0.0 && t < 60.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn analytic_interval(
    profile: &ChipProfile,
    temperature_c: f64,
    target: AccuracyTarget,
) -> Option<f64> {
    let t_ref = profile.retention().quantile(target.error_rate())?;
    Some(profile.temperature().retention_at(t_ref, temperature_c))
}

/// Measures the worst-case error rate of `medium` at the given conditions,
/// optionally on a strided subsample of cells.
///
/// The measurement charges the sampled cells (worst-case data) and counts how
/// many decay. It is deterministic given the conditions' trial id.
pub fn measure_error_rate<M: DecayMedium>(
    medium: &M,
    cond: &Conditions,
    sample_cells: Option<u64>,
) -> f64 {
    let total = medium.capacity_bits();
    let pattern = medium.worst_case_pattern();
    match sample_cells {
        Some(k) if k < total => {
            let stride = (total / k).max(1) as usize;
            // Sample whole bytes with a byte stride so we can reuse errors_at.
            let byte_stride = (stride / 8).max(1);
            let mut sampled = 0u64;
            let mut errors = 0u64;
            let mut offset = 0usize;
            let nbytes = pattern.len();
            while offset < nbytes && sampled < k {
                let end = (offset + 1).min(nbytes);
                let errs = medium.errors_at(offset, &pattern[offset..end], cond);
                errors += errs.len() as u64;
                sampled += 8;
                offset += byte_stride;
            }
            errors as f64 / sampled as f64
        }
        _ => {
            let errs = medium.errors_at(0, &pattern, cond);
            errs.len() as f64 / total as f64
        }
    }
}

/// Empirically calibrates a refresh interval so that the medium's worst-case
/// error rate at `temperature_c` matches `target` — the control loop the
/// paper's platform runs to hold a desired accuracy across temperature
/// changes (§7.3).
///
/// # Errors
///
/// Returns [`CalibrationError`] when the target rate cannot be reached or
/// bracketed within the configured iteration budget.
pub fn calibrate_measured<M: DecayMedium>(
    medium: &M,
    temperature_c: f64,
    target: AccuracyTarget,
    config: &CalibrationConfig,
) -> Result<f64, CalibrationError> {
    let _span = pc_telemetry::time!("approx.calibrate");
    pc_telemetry::counter!("approx.calibrations").incr();
    let want = target.error_rate();
    let rate_at = |interval: f64| {
        pc_telemetry::counter!("approx.calibration.probes").incr();
        measure_error_rate(
            medium,
            &Conditions::new(temperature_c, interval).trial(u64::MAX), // calibration trial
            config.sample_cells,
        )
    };

    // Bracket the target: grow `hi` until its rate exceeds the target.
    let mut lo = 0.0f64;
    let mut hi = 1.0f64;
    let mut hi_rate = rate_at(hi);
    let mut growth = 0;
    while hi_rate < want {
        hi *= 2.0;
        hi_rate = rate_at(hi);
        growth += 1;
        if growth > 24 {
            pc_telemetry::counter!("approx.calibration.failures").incr();
            return Err(CalibrationError::TargetUnreachable { target: want });
        }
    }

    let mut best = hi;
    let mut best_rate = hi_rate;
    for _ in 0..config.max_iterations {
        let mid = 0.5 * (lo + hi);
        let rate = rate_at(mid);
        if (rate - want).abs() < (best_rate - want).abs() {
            best = mid;
            best_rate = rate;
        }
        if (rate - want).abs() <= config.relative_tolerance * want {
            return Ok(mid);
        }
        if rate < want {
            lo = mid;
        } else {
            hi = mid;
        }
    }

    if (best_rate - want).abs() <= 2.0 * config.relative_tolerance * want {
        Ok(best)
    } else {
        pc_telemetry::counter!("approx.calibration.failures").incr();
        Err(CalibrationError::DidNotConverge {
            target: want,
            achieved: best_rate,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_dram::{ChipGeometry, ChipId, DramChip};

    fn chip() -> DramChip {
        // 64 Kbit chip: big enough for a stable 1% rate, fast to scan.
        DramChip::new(
            ChipProfile::km41464a().with_geometry(ChipGeometry::new(64, 1024, 2)),
            ChipId(42),
        )
    }

    #[test]
    fn analytic_interval_hits_target_rate() {
        let c = chip();
        let target = AccuracyTarget::percent(99.0).unwrap();
        let t = analytic_interval(c.profile(), 40.0, target).unwrap();
        let rate = measure_error_rate(&c, &Conditions::new(40.0, t), None);
        assert!(
            (rate - 0.01).abs() < 0.004,
            "analytic interval produced rate {rate}"
        );
    }

    #[test]
    fn analytic_interval_shrinks_with_heat() {
        let p = ChipProfile::km41464a();
        let t = AccuracyTarget::percent(99.0).unwrap();
        let cold = analytic_interval(&p, 40.0, t).unwrap();
        let hot = analytic_interval(&p, 60.0, t).unwrap();
        assert!(
            (cold / hot - 4.0).abs() < 1e-9,
            "20 °C should quarter the interval"
        );
    }

    #[test]
    fn analytic_interval_none_for_skewed() {
        let p = ChipProfile::ddr2_test_window();
        assert_eq!(
            analytic_interval(&p, 40.0, AccuracyTarget::percent(99.0).unwrap()),
            None
        );
    }

    #[test]
    fn measured_calibration_converges_gaussian() {
        let c = chip();
        let target = AccuracyTarget::percent(99.0).unwrap();
        let cfg = CalibrationConfig {
            sample_cells: None,
            ..CalibrationConfig::default()
        };
        let interval = calibrate_measured(&c, 40.0, target, &cfg).unwrap();
        let rate = measure_error_rate(&c, &Conditions::new(40.0, interval), None);
        assert!((rate - 0.01).abs() <= 0.01 * 0.1, "rate {rate}");
    }

    #[test]
    fn measured_calibration_compensates_temperature() {
        let c = chip();
        let target = AccuracyTarget::percent(95.0).unwrap();
        let cfg = CalibrationConfig {
            sample_cells: None,
            ..CalibrationConfig::default()
        };
        let i40 = calibrate_measured(&c, 40.0, target, &cfg).unwrap();
        let i60 = calibrate_measured(&c, 60.0, target, &cfg).unwrap();
        assert!(i60 < i40, "hotter must refresh faster: {i40} vs {i60}");
        // Both intervals must realize the same error rate.
        let r40 = measure_error_rate(&c, &Conditions::new(40.0, i40), None);
        let r60 = measure_error_rate(&c, &Conditions::new(60.0, i60), None);
        assert!((r40 - r60).abs() < 0.01, "r40={r40} r60={r60}");
    }

    #[test]
    fn measured_calibration_works_on_skewed_ddr2() {
        let p = ChipProfile::ddr2_test_window().with_geometry(ChipGeometry::new(64, 1024, 4));
        let c = DramChip::new(p, ChipId(9));
        let target = AccuracyTarget::percent(95.0).unwrap();
        let cfg = CalibrationConfig {
            sample_cells: None,
            ..CalibrationConfig::default()
        };
        let interval = calibrate_measured(&c, 40.0, target, &cfg).unwrap();
        let rate = measure_error_rate(&c, &Conditions::new(40.0, interval), None);
        assert!((rate - 0.05).abs() < 0.006, "rate {rate}");
    }

    #[test]
    fn sampled_measurement_tracks_full_scan() {
        let c = chip();
        let cond = Conditions::new(40.0, 8.0);
        let full = measure_error_rate(&c, &cond, None);
        let sampled = measure_error_rate(&c, &cond, Some(16_384));
        assert!(
            (full - sampled).abs() < 0.01,
            "full={full} sampled={sampled}"
        );
    }

    #[test]
    fn errors_display() {
        let e = CalibrationError::TargetUnreachable { target: 0.01 };
        assert!(e.to_string().contains("unreachable"));
        let e = CalibrationError::DidNotConverge {
            target: 0.01,
            achieved: 0.5,
        };
        assert!(e.to_string().contains("converge"));
    }
}
