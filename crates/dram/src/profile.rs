//! Chip profiles: the parameter bundles describing a DRAM part.

use crate::{ChipGeometry, TemperatureModel, VariationMix};
use pc_stats::VolatilityDistribution;

/// Everything that characterizes a DRAM *part* (as opposed to an individual
/// chip): geometry, retention-time distribution, variation mix, temperature
/// behaviour, and trial-noise magnitude.
///
/// Two stock profiles mirror the paper's platforms:
/// [`ChipProfile::km41464a`] (the 32 KB parts of §6) and
/// [`ChipProfile::ddr2`] (the Micron 256 MB part of §8.1, with volatility
/// skewed high).
///
/// # Example
///
/// ```
/// use pc_dram::ChipProfile;
/// let p = ChipProfile::km41464a();
/// assert_eq!(p.geometry().capacity_bytes(), 32 * 1024);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ChipProfile {
    name: String,
    geometry: ChipGeometry,
    retention: VolatilityDistribution,
    variation: VariationMix,
    temperature: TemperatureModel,
    noise_sigma: f64,
    transient_flip_rate: f64,
}

impl ChipProfile {
    /// Creates a custom profile.
    ///
    /// `noise_sigma` is the relative standard deviation of the per-trial
    /// retention jitter; see [`crate::DramChip::decays`].
    ///
    /// # Panics
    ///
    /// Panics if `noise_sigma` is negative or non-finite.
    pub fn new(
        name: impl Into<String>,
        geometry: ChipGeometry,
        retention: VolatilityDistribution,
        variation: VariationMix,
        temperature: TemperatureModel,
        noise_sigma: f64,
    ) -> Self {
        assert!(
            noise_sigma.is_finite() && noise_sigma >= 0.0,
            "noise sigma must be non-negative"
        );
        Self {
            name: name.into(),
            geometry,
            retention,
            variation,
            temperature,
            noise_sigma,
            transient_flip_rate: 1e-6,
        }
    }

    /// The paper's evaluation part: Samsung KM41464A, 64K × 4 bits = 32 KB,
    /// modelled as 256 rows × 1024 bits. Retention variation is Gaussian
    /// (paper §2 citing \[27\]): mean 20 s, σ 6 s at 40 °C, floored at 50 ms
    /// ("some cells decay in less than a tenth of a second, the majority hold
    /// for tens of seconds", §2).
    pub fn km41464a() -> Self {
        Self::new(
            "KM41464A",
            ChipGeometry::new(256, 1024, 2),
            VolatilityDistribution::Gaussian {
                mean: 20.0,
                sd: 6.0,
                floor: 0.05,
            },
            VariationMix::leakage_dominant(),
            TemperatureModel::jedec_like(),
            0.002,
        )
    }

    /// The §8.1 DDR2 part (Micron MT4HTF3264HY-class, 256 MB): volatility
    /// distribution skewed toward *higher* volatility, as the paper observed.
    /// Full-density geometry; prefer [`ChipProfile::ddr2_test_window`] for
    /// experiments that scan every cell.
    pub fn ddr2() -> Self {
        Self::new(
            "DDR2-256MB",
            ChipGeometry::new(32_768, 65_536, 4),
            Self::ddr2_retention(),
            VariationMix::leakage_dominant(),
            TemperatureModel::jedec_like(),
            0.002,
        )
    }

    /// A 4 MB window of the DDR2 part — the simulated analogue of the paper
    /// exercising the FPGA platform through a scratchpad rather than the full
    /// array. Same retention physics, scan-friendly size.
    pub fn ddr2_test_window() -> Self {
        Self::new(
            "DDR2-window",
            ChipGeometry::new(4_096, 8_192, 4),
            Self::ddr2_retention(),
            VariationMix::leakage_dominant(),
            TemperatureModel::jedec_like(),
            0.002,
        )
    }

    fn ddr2_retention() -> VolatilityDistribution {
        // ln-retention located at ln(30 s) with negative skew: most cells are
        // long-lived but the volatile tail is heavier than Gaussian.
        VolatilityDistribution::SkewedLogNormal {
            xi: 30.0f64.ln(),
            omega: 0.7,
            alpha: -3.0,
        }
    }

    /// Part name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Chip geometry.
    pub fn geometry(&self) -> &ChipGeometry {
        &self.geometry
    }

    /// Retention-time distribution at the reference temperature.
    pub fn retention(&self) -> &VolatilityDistribution {
        &self.retention
    }

    /// Variation mix (mask vs. chip randomness).
    pub fn variation(&self) -> &VariationMix {
        &self.variation
    }

    /// Temperature model.
    pub fn temperature(&self) -> &TemperatureModel {
        &self.temperature
    }

    /// Relative per-trial retention jitter (standard deviation).
    pub fn noise_sigma(&self) -> f64 {
        self.noise_sigma
    }

    /// Probability that a charged, non-decayed cell still reads wrong in one
    /// readout — transient read upsets (the additive noise floor behind the
    /// paper's rare subset-relation outliers in Fig. 10). Default `1e-6`.
    pub fn transient_flip_rate(&self) -> f64 {
        self.transient_flip_rate
    }

    /// Returns a copy with a different transient-upset rate.
    ///
    /// # Panics
    ///
    /// Panics unless the rate is in `[0, 1]`.
    pub fn with_transient_flip_rate(mut self, rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "transient flip rate must be in [0,1]"
        );
        self.transient_flip_rate = rate;
        self
    }

    /// Returns a copy with a different noise level (used by the noise
    /// ablation bench).
    pub fn with_noise_sigma(mut self, noise_sigma: f64) -> Self {
        assert!(
            noise_sigma.is_finite() && noise_sigma >= 0.0,
            "noise sigma must be non-negative"
        );
        self.noise_sigma = noise_sigma;
        self
    }

    /// Returns a copy with a different geometry (used to build scaled-down
    /// variants for tests).
    pub fn with_geometry(mut self, geometry: ChipGeometry) -> Self {
        self.geometry = geometry;
        self
    }

    /// Returns a copy with a different variation mix.
    pub fn with_variation(mut self, variation: VariationMix) -> Self {
        self.variation = variation;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn km41464a_matches_datasheet_capacity() {
        let p = ChipProfile::km41464a();
        // 64K 4-bit words = 256 Kbit = 32 KB.
        assert_eq!(p.geometry().capacity_bits(), 262_144);
        assert_eq!(p.geometry().capacity_bytes(), 32 * 1024);
        assert_eq!(p.name(), "KM41464A");
    }

    #[test]
    fn ddr2_full_density() {
        let p = ChipProfile::ddr2();
        assert_eq!(p.geometry().capacity_bytes(), 256 * 1024 * 1024);
    }

    #[test]
    fn with_noise_sigma_overrides() {
        let p = ChipProfile::km41464a().with_noise_sigma(0.5);
        assert_eq!(p.noise_sigma(), 0.5);
    }

    #[test]
    #[should_panic(expected = "noise sigma")]
    fn negative_noise_rejected() {
        ChipProfile::km41464a().with_noise_sigma(-0.1);
    }
}
