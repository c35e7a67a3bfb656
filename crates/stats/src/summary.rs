//! Streaming summary statistics (Welford), compensated summation, and the
//! Wilson score interval for reported success rates.

/// Wilson score interval for a binomial proportion: the 95% confidence range
/// for a true success rate given `successes` out of `trials`.
///
/// Used when reporting the paper's "100% identification success" claims — a
/// perfect 90/90 still only certifies the rate down to ~96%.
///
/// # Panics
///
/// Panics if `trials` is zero or `successes > trials`.
///
/// # Example
///
/// ```
/// let (lo, hi) = pc_stats::wilson_interval(90, 90);
/// assert!(lo > 0.95 && hi == 1.0);
/// let (lo2, hi2) = pc_stats::wilson_interval(45, 90);
/// assert!(lo2 < 0.5 && 0.5 < hi2);
/// ```
pub fn wilson_interval(successes: u64, trials: u64) -> (f64, f64) {
    assert!(trials > 0, "need at least one trial");
    assert!(successes <= trials, "successes cannot exceed trials");
    const Z: f64 = 1.959_963_985; // 97.5th percentile of N(0,1)
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = Z * Z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = (Z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    ((center - half).max(0.0), (center + half).min(1.0))
}

/// Kahan–Babuška compensated sum: accurate accumulation of many small floats
/// (e.g. per-cell error probabilities over a gigabyte of cells).
///
/// # Example
///
/// ```
/// use pc_stats::KahanSum;
/// let mut s = KahanSum::new();
/// for _ in 0..1_000_000 { s.add(0.1); }
/// assert!((s.value() - 100_000.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KahanSum {
    sum: f64,
    c: f64,
}

impl KahanSum {
    /// Creates an empty sum.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one term.
    #[inline]
    pub fn add(&mut self, x: f64) {
        let t = self.sum + x;
        if self.sum.abs() >= x.abs() {
            self.c += (self.sum - t) + x;
        } else {
            self.c += (x - t) + self.sum;
        }
        self.sum = t;
    }

    /// Current compensated value.
    pub fn value(&self) -> f64 {
        self.sum + self.c
    }
}

impl FromIterator<f64> for KahanSum {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = KahanSum::new();
        for x in iter {
            s.add(x);
        }
        s
    }
}

/// Streaming univariate summary: count, mean, variance (Welford), min, max.
///
/// # Example
///
/// ```
/// use pc_stats::Summary;
/// let s: Summary = [1.0, 2.0, 3.0].into_iter().collect();
/// assert_eq!(s.count(), 3);
/// assert!((s.mean() - 2.0).abs() < 1e-12);
/// assert!((s.sample_variance() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Summary {
    fn default() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 when fewer than two observations).
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn sd(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Minimum observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another summary into this one (parallel reduction).
    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Summary::new();
        for x in iter {
            s.add(x);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic_moments() {
        let s: Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Population variance of this classic set is 4; sample variance 32/7.
        assert!((s.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn summary_empty_is_sane() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
    }

    #[test]
    fn summary_merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let seq: Summary = xs.iter().copied().collect();
        let a: Summary = xs[..37].iter().copied().collect();
        let b: Summary = xs[37..].iter().copied().collect();
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.count(), seq.count());
        assert!((merged.mean() - seq.mean()).abs() < 1e-9);
        assert!((merged.sample_variance() - seq.sample_variance()).abs() < 1e-9);
        assert_eq!(merged.min(), seq.min());
        assert_eq!(merged.max(), seq.max());
    }

    #[test]
    fn summary_merge_with_empty() {
        let xs: Summary = [1.0, 2.0].into_iter().collect();
        let mut a = xs;
        a.merge(&Summary::new());
        assert_eq!(a, xs);
        let mut b = Summary::new();
        b.merge(&xs);
        assert_eq!(b.count(), 2);
    }

    #[test]
    fn kahan_beats_naive_on_ill_conditioned_sum() {
        let mut k = KahanSum::new();
        let mut naive = 0.0f64;
        k.add(1e16);
        naive += 1e16;
        for _ in 0..10_000 {
            k.add(1.0);
            naive += 1.0;
        }
        k.add(-1e16);
        naive += -1e16;
        assert_eq!(k.value(), 10_000.0);
        // The naive sum loses the small terms entirely.
        assert_ne!(naive, 10_000.0);
    }

    #[test]
    fn kahan_from_iterator() {
        let s: KahanSum = (0..10).map(|i| i as f64).collect();
        assert_eq!(s.value(), 45.0);
    }

    #[test]
    fn wilson_interval_known_values() {
        // 90/90 successes: the standard Wilson lower bound is ~0.9599.
        let (lo, hi) = wilson_interval(90, 90);
        assert!((lo - 0.9599).abs() < 0.002, "lo={lo}");
        assert_eq!(hi, 1.0);
        // 0 successes mirrors it.
        let (lo0, hi0) = wilson_interval(0, 90);
        assert_eq!(lo0, 0.0);
        assert!((hi0 - (1.0 - 0.9599)).abs() < 0.002);
    }

    #[test]
    fn wilson_interval_contains_point_estimate() {
        for (s, n) in [(1u64, 10u64), (5, 10), (99, 100), (50, 1000)] {
            let (lo, hi) = wilson_interval(s, n);
            let p = s as f64 / n as f64;
            assert!(lo <= p && p <= hi, "({s},{n}): [{lo},{hi}] vs {p}");
            assert!(lo >= 0.0 && hi <= 1.0);
        }
    }

    #[test]
    fn wilson_interval_narrows_with_more_trials() {
        let (lo1, hi1) = wilson_interval(9, 10);
        let (lo2, hi2) = wilson_interval(900, 1000);
        assert!(hi2 - lo2 < hi1 - lo1);
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn wilson_zero_trials_rejected() {
        wilson_interval(0, 0);
    }
}
