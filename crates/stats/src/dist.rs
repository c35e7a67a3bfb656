//! Probability distributions for retention-time modelling.
//!
//! The paper reports that DRAM cell decay variation follows a Gaussian
//! distribution (\[27\], §2) on the old KM41464A parts, while the DDR2 part's
//! volatility distribution is "skewed toward higher volatility" (§8.1).
//! [`VolatilityDistribution`] captures all the shapes the simulator needs;
//! each shape exposes both ordinary `Rng` sampling and *quantile-based*
//! deterministic evaluation (feed in a per-cell uniform from
//! [`crate::CellHasher`] and get that cell's locked-in draw).

use crate::special::{normal_cdf, probit};
use rand::{Rng, RngExt};

/// Normal distribution `N(mean, sd²)`.
///
/// # Example
///
/// ```
/// use pc_stats::Normal;
/// let n = Normal::new(10.0, 2.0);
/// assert!((n.quantile(0.5) - 10.0).abs() < 1e-6);
/// assert!((n.cdf(10.0) - 0.5).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    sd: f64,
}

impl Normal {
    /// Creates `N(mean, sd²)`.
    ///
    /// # Panics
    ///
    /// Panics if `sd` is not finite and positive.
    pub fn new(mean: f64, sd: f64) -> Self {
        assert!(sd.is_finite() && sd > 0.0, "sd must be positive, got {sd}");
        assert!(mean.is_finite(), "mean must be finite");
        Self { mean, sd }
    }

    /// The standard normal `N(0, 1)`.
    pub fn standard() -> Self {
        Self { mean: 0.0, sd: 1.0 }
    }

    /// Distribution mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Distribution standard deviation.
    pub fn sd(&self) -> f64 {
        self.sd
    }

    /// Quantile function: the value at cumulative probability `p ∈ (0,1)`.
    pub fn quantile(&self, p: f64) -> f64 {
        self.mean + self.sd * probit(p)
    }

    /// Cumulative distribution function.
    pub fn cdf(&self, x: f64) -> f64 {
        normal_cdf((x - self.mean) / self.sd)
    }

    /// Draws a sample using Box–Muller.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.random();
        let r = (-2.0 * u1.ln()).sqrt();
        self.mean + self.sd * r * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

/// Log-normal distribution: `exp(N(mu, sigma²))`.
///
/// DRAM retention-time measurements (Hamamoto et al., cited as \[10\]/\[27\]) are
/// better described as log-normal; the simulator offers this shape alongside
/// the paper's Gaussian idealization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    log: Normal,
}

impl LogNormal {
    /// Creates a log-normal whose logarithm is `N(mu, sigma²)`.
    pub fn new(mu: f64, sigma: f64) -> Self {
        Self {
            log: Normal::new(mu, sigma),
        }
    }

    /// Creates a log-normal from the *median* of the distribution and the
    /// multiplicative spread `sigma` of its logarithm.
    pub fn from_median(median: f64, sigma: f64) -> Self {
        assert!(median > 0.0, "median must be positive");
        Self::new(median.ln(), sigma)
    }

    /// Quantile function.
    pub fn quantile(&self, p: f64) -> f64 {
        self.log.quantile(p).exp()
    }

    /// Cumulative distribution function (0 for non-positive `x`).
    pub fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            self.log.cdf(x.ln())
        }
    }

    /// Draws a sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.log.sample(rng).exp()
    }
}

/// Skew-normal distribution (Azzalini) with location `xi`, scale `omega`, and
/// shape `alpha`. Negative `alpha` skews mass toward lower values — the DDR2
/// "skewed toward higher volatility" case maps to retention skewed low.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkewNormal {
    xi: f64,
    omega: f64,
    alpha: f64,
}

impl SkewNormal {
    /// Creates a skew-normal with location `xi`, scale `omega > 0`, shape
    /// `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `omega` is not positive and finite.
    pub fn new(xi: f64, omega: f64, alpha: f64) -> Self {
        assert!(omega.is_finite() && omega > 0.0, "omega must be positive");
        Self { xi, omega, alpha }
    }

    /// Shape parameter.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// CDF via Owen's T is overkill here; we use the sampling identity
    /// instead and expose only quantile evaluation through its inverse
    /// transform on a fine grid. For the simulator's needs (deterministic
    /// per-cell draws) we use the conditioning representation directly:
    /// given two independent uniforms, produce a skew-normal deviate.
    pub fn sample_from_uniforms(&self, u0: f64, u1: f64) -> f64 {
        // Azzalini's representation: if (z0, z1) are iid N(0,1), then
        //   z = delta*|z0| + sqrt(1-delta^2)*z1
        // is skew-normal with shape alpha, delta = alpha/sqrt(1+alpha^2).
        let delta = self.alpha / (1.0 + self.alpha * self.alpha).sqrt();
        let z0 = probit(u0);
        let z1 = probit(u1);
        let z = delta * z0.abs() + (1.0 - delta * delta).sqrt() * z1;
        self.xi + self.omega * z
    }

    /// Draws a sample with an ordinary RNG.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.sample_from_uniforms(rng.random(), rng.random())
    }
}

/// The volatility (retention-time) distribution shapes the DRAM simulator
/// understands.
///
/// All variants are evaluated *deterministically per cell* from one or two
/// uniform hashes, so the full retention map of a chip never has to be stored.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VolatilityDistribution {
    /// Gaussian retention time (paper's model for the KM41464A): seconds at
    /// the reference temperature, truncated below at `floor` seconds.
    Gaussian {
        /// Mean retention time in seconds at the reference temperature.
        mean: f64,
        /// Standard deviation in seconds.
        sd: f64,
        /// Hard lower truncation (the fastest physically plausible decay).
        floor: f64,
    },
    /// Log-normal retention time (Hamamoto-style), parameterized by median
    /// seconds and log-domain sigma.
    LogNormal {
        /// Median retention time in seconds.
        median: f64,
        /// Standard deviation of `ln(t_ret)`.
        sigma: f64,
    },
    /// Skew-normal in log-retention: the DDR2 case (§8.1) — probability mass
    /// skewed toward higher volatility, i.e. shorter retention.
    SkewedLogNormal {
        /// Location of `ln(t_ret)`.
        xi: f64,
        /// Scale of `ln(t_ret)`.
        omega: f64,
        /// Shape; negative values skew retention low (volatility high).
        alpha: f64,
    },
}

impl VolatilityDistribution {
    /// Retention-time draw (seconds at reference temperature) for a cell whose
    /// primary uniform is `u0` and secondary uniform is `u1`.
    ///
    /// `u1` is only consulted by the skewed shape; symmetric shapes are pure
    /// quantile transforms of `u0`, which keeps the *rank order* of cells
    /// identical across shape parameter tweaks.
    pub fn retention_seconds(&self, u0: f64, u1: f64) -> f64 {
        match *self {
            VolatilityDistribution::Gaussian { mean, sd, floor } => {
                Normal::new(mean, sd).quantile(u0).max(floor)
            }
            VolatilityDistribution::LogNormal { median, sigma } => {
                LogNormal::from_median(median, sigma).quantile(u0)
            }
            VolatilityDistribution::SkewedLogNormal { xi, omega, alpha } => {
                SkewNormal::new(xi, omega, alpha)
                    .sample_from_uniforms(u0, u1)
                    .exp()
            }
        }
    }

    /// Fraction of cells with retention below `t` seconds, when available in
    /// closed form (`None` for the skewed shape, which callers estimate by
    /// sampling).
    pub fn cdf(&self, t: f64) -> Option<f64> {
        match *self {
            VolatilityDistribution::Gaussian { mean, sd, floor } => {
                if t <= floor {
                    Some(0.0)
                } else {
                    Some(Normal::new(mean, sd).cdf(t))
                }
            }
            VolatilityDistribution::LogNormal { median, sigma } => {
                Some(LogNormal::from_median(median, sigma).cdf(t))
            }
            VolatilityDistribution::SkewedLogNormal { .. } => None,
        }
    }

    /// Retention time below which a fraction `p` of cells fall, when available
    /// in closed form.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        match *self {
            VolatilityDistribution::Gaussian { mean, sd, floor } => {
                Some(Normal::new(mean, sd).quantile(p).max(floor))
            }
            VolatilityDistribution::LogNormal { median, sigma } => {
                Some(LogNormal::from_median(median, sigma).quantile(p))
            }
            VolatilityDistribution::SkewedLogNormal { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::StreamRng;

    #[test]
    fn normal_quantile_cdf_roundtrip() {
        let n = Normal::new(5.0, 2.0);
        for &p in &[0.01, 0.2, 0.5, 0.8, 0.99] {
            let x = n.quantile(p);
            assert!((n.cdf(x) - p).abs() < 1e-9, "p={p}");
        }
    }

    #[test]
    fn normal_sampling_moments() {
        let n = Normal::new(-3.0, 0.5);
        let mut rng = StreamRng::new(1);
        let k = 200_000;
        let xs: Vec<f64> = (0..k).map(|_| n.sample(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / k as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / k as f64;
        assert!((mean + 3.0).abs() < 0.01, "mean={mean}");
        assert!((var - 0.25).abs() < 0.01, "var={var}");
    }

    #[test]
    #[should_panic(expected = "sd must be positive")]
    fn normal_rejects_bad_sd() {
        Normal::new(0.0, 0.0);
    }

    #[test]
    fn lognormal_median() {
        let ln = LogNormal::from_median(8.0, 0.7);
        // probit/erfc are rational approximations (~1e-7 absolute), so the
        // median only round-trips to that precision.
        assert!((ln.quantile(0.5) - 8.0).abs() < 1e-5);
        assert!((ln.cdf(8.0) - 0.5).abs() < 1e-6);
        assert_eq!(ln.cdf(-1.0), 0.0);
    }

    #[test]
    fn skewnormal_reduces_to_normal_at_alpha_zero() {
        let sn = SkewNormal::new(1.0, 2.0, 0.0);
        // With alpha=0, delta=0 and only z1 contributes.
        let v = sn.sample_from_uniforms(0.123, 0.5);
        assert!((v - 1.0).abs() < 1e-6, "v={v}");
    }

    #[test]
    fn skewnormal_negative_alpha_skews_low() {
        let sym = SkewNormal::new(0.0, 1.0, 0.0);
        let neg = SkewNormal::new(0.0, 1.0, -4.0);
        let mut rng = StreamRng::new(2);
        let k = 50_000;
        let mean_sym: f64 = (0..k).map(|_| sym.sample(&mut rng)).sum::<f64>() / k as f64;
        let mean_neg: f64 = (0..k).map(|_| neg.sample(&mut rng)).sum::<f64>() / k as f64;
        assert!(mean_neg < mean_sym - 0.3, "sym={mean_sym} neg={mean_neg}");
    }

    #[test]
    fn volatility_gaussian_floor_applies() {
        let d = VolatilityDistribution::Gaussian {
            mean: 10.0,
            sd: 3.0,
            floor: 0.1,
        };
        // A ridiculously small quantile would go negative without the floor.
        let t = d.retention_seconds(1e-12, 0.5);
        assert!(t >= 0.1);
        assert_eq!(d.cdf(0.05), Some(0.0));
    }

    #[test]
    fn volatility_quantile_cdf_agree() {
        let d = VolatilityDistribution::LogNormal {
            median: 12.0,
            sigma: 0.6,
        };
        let t = d.quantile(0.01).unwrap();
        assert!((d.cdf(t).unwrap() - 0.01).abs() < 1e-9);
    }

    #[test]
    fn volatility_rank_order_preserved_for_symmetric_shapes() {
        let d = VolatilityDistribution::Gaussian {
            mean: 10.0,
            sd: 3.0,
            floor: 0.01,
        };
        // Monotone in u0.
        assert!(d.retention_seconds(0.1, 0.0) < d.retention_seconds(0.2, 0.0));
        assert!(d.retention_seconds(0.5, 0.0) < d.retention_seconds(0.9, 0.0));
    }

    #[test]
    fn volatility_skewed_produces_finite_positive() {
        let d = VolatilityDistribution::SkewedLogNormal {
            xi: 2.0,
            omega: 0.8,
            alpha: -3.0,
        };
        for i in 1..100u64 {
            let u0 = i as f64 / 100.0;
            let t = d.retention_seconds(u0, 1.0 - u0);
            assert!(t.is_finite() && t > 0.0);
        }
        assert_eq!(d.cdf(1.0), None);
    }
}
