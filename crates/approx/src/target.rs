//! Accuracy targets.

use std::fmt;

/// A storage accuracy target: the fraction of worst-case (all-charged) bits
/// that must survive a refresh interval.
///
/// The paper evaluates 99%, 95%, and 90% (§7); [`AccuracyTarget`] validates
/// the value once at the boundary so downstream code never re-checks.
///
/// # Example
///
/// ```
/// use pc_approx::AccuracyTarget;
/// let t = AccuracyTarget::percent(99.0)?;
/// assert!((t.error_rate() - 0.01).abs() < 1e-12);
/// assert!(AccuracyTarget::percent(100.0).is_err()); // exact storage is not approximate
/// # Ok::<(), pc_approx::TargetError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct AccuracyTarget {
    accuracy: f64,
}

/// Error constructing an [`AccuracyTarget`].
#[derive(Debug, Clone, PartialEq)]
pub struct TargetError {
    value: f64,
}

impl fmt::Display for TargetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "accuracy must be in (0, 1) exclusive, got {}",
            self.value
        )
    }
}

impl std::error::Error for TargetError {}

impl AccuracyTarget {
    /// Creates a target from a fraction in the open interval `(0, 1)`.
    ///
    /// # Errors
    ///
    /// Returns [`TargetError`] for values outside `(0, 1)` — accuracy 1.0 is
    /// exact storage (no refresh relaxation) and 0.0 keeps no data at all.
    pub fn fraction(accuracy: f64) -> Result<Self, TargetError> {
        if accuracy.is_finite() && accuracy > 0.0 && accuracy < 1.0 {
            Ok(Self { accuracy })
        } else {
            Err(TargetError { value: accuracy })
        }
    }

    /// Creates a target from a percentage, e.g. `AccuracyTarget::percent(99.0)`.
    ///
    /// # Errors
    ///
    /// Returns [`TargetError`] for percentages outside `(0, 100)`.
    pub fn percent(accuracy_pct: f64) -> Result<Self, TargetError> {
        Self::fraction(accuracy_pct / 100.0)
    }

    /// The accuracy fraction in `(0, 1)`.
    pub fn accuracy(&self) -> f64 {
        self.accuracy
    }

    /// The tolerated worst-case error rate, `1 − accuracy`.
    pub fn error_rate(&self) -> f64 {
        1.0 - self.accuracy
    }
}

impl fmt::Display for AccuracyTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}%", self.accuracy * 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_targets() {
        for pct in [99.0, 95.0, 90.0, 50.0, 0.5] {
            let t = AccuracyTarget::percent(pct).unwrap();
            assert!((t.accuracy() - pct / 100.0).abs() < 1e-12);
            assert!((t.accuracy() + t.error_rate() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn invalid_targets_rejected() {
        assert!(AccuracyTarget::percent(0.0).is_err());
        assert!(AccuracyTarget::percent(100.0).is_err());
        assert!(AccuracyTarget::percent(-3.0).is_err());
        assert!(AccuracyTarget::fraction(f64::NAN).is_err());
        assert!(AccuracyTarget::fraction(1.5).is_err());
    }

    #[test]
    fn error_display_mentions_value() {
        let e = AccuracyTarget::fraction(2.0).unwrap_err();
        assert!(e.to_string().contains('2'));
    }

    #[test]
    fn display_shows_percent() {
        let t = AccuracyTarget::percent(95.0).unwrap();
        assert_eq!(t.to_string(), "95%");
    }
}
