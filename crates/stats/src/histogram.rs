//! Fixed-bin histogram used to regenerate the paper's histogram figures
//! (Figs. 7, 9, 11).

/// A histogram over `[lo, hi)` with equally sized bins.
///
/// Out-of-range samples are clamped into the first/last bin and separately
/// counted, so the total is never silently wrong.
///
/// # Example
///
/// ```
/// use pc_stats::Histogram;
/// let mut h = Histogram::new(0.0, 1.0, 4);
/// h.add(0.1);
/// h.add(0.9);
/// h.add(0.95);
/// assert_eq!(h.counts(), &[1, 0, 0, 2]);
/// assert_eq!(h.total(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    clamped_low: u64,
    clamped_high: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `bins` equal bins.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `lo >= hi` or either bound is non-finite.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "bad range [{lo}, {hi})"
        );
        Self {
            lo,
            hi,
            counts: vec![0; bins],
            clamped_low: 0,
            clamped_high: 0,
        }
    }

    /// Adds one sample.
    pub fn add(&mut self, x: f64) {
        let bins = self.counts.len();
        let idx = if x < self.lo {
            self.clamped_low += 1;
            0
        } else if x >= self.hi {
            // `hi` itself is clamped into the top bin; this mirrors the
            // paper's histograms which include distance exactly 1.0.
            if x > self.hi {
                self.clamped_high += 1;
            }
            bins - 1
        } else {
            let f = (x - self.lo) / (self.hi - self.lo);
            ((f * bins as f64) as usize).min(bins - 1)
        };
        self.counts[idx] += 1;
    }

    /// Adds every sample from an iterator.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, it: I) {
        for x in it {
            self.add(x);
        }
    }

    /// Bin counts, lowest bin first.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of samples added.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Number of samples that fell strictly below `lo` (clamped into bin 0).
    pub fn clamped_low(&self) -> u64 {
        self.clamped_low
    }

    /// Number of samples that fell strictly above `hi` (clamped into the top
    /// bin).
    pub fn clamped_high(&self) -> u64 {
        self.clamped_high
    }

    /// Midpoint of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bin_center(&self, i: usize) -> f64 {
        assert!(i < self.counts.len(), "bin {i} out of range");
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + (i as f64 + 0.5) * w
    }

    /// Lower edge of bin `i`.
    pub fn bin_lo(&self, i: usize) -> f64 {
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + i as f64 * w
    }

    /// Iterates `(bin_center, count)` pairs — the series a plot needs.
    pub fn series(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        (0..self.counts.len()).map(|i| (self.bin_center(i), self.counts[i]))
    }

    /// Renders the histogram as fixed-width text rows `center  count  bar`,
    /// the format the experiment binaries print.
    pub fn render(&self, bar_width: usize) -> String {
        let max = self.counts.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::new();
        for (c, n) in self.series() {
            let bar = "#".repeat(((n as f64 / max as f64) * bar_width as f64).round() as usize);
            out.push_str(&format!("{c:>10.4}  {n:>8}  {bar}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_partition_range() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..10 {
            h.add(i as f64 + 0.5);
        }
        assert!(h.counts().iter().all(|&c| c == 1));
    }

    #[test]
    fn boundary_goes_to_lower_bin_of_pair() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.add(0.5);
        assert_eq!(h.counts(), &[0, 1]);
    }

    #[test]
    fn hi_endpoint_lands_in_top_bin_without_clamp_count() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.add(1.0);
        assert_eq!(h.counts(), &[0, 0, 0, 1]);
        assert_eq!(h.clamped_high(), 0);
    }

    #[test]
    fn out_of_range_clamped_and_counted() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.add(-5.0);
        h.add(7.0);
        assert_eq!(h.counts(), &[1, 0, 0, 1]);
        assert_eq!(h.clamped_low(), 1);
        assert_eq!(h.clamped_high(), 1);
    }

    #[test]
    fn centers_and_edges() {
        let h = Histogram::new(0.0, 1.0, 4);
        assert!((h.bin_center(0) - 0.125).abs() < 1e-12);
        assert!((h.bin_lo(2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn extend_and_total() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.extend([0.1, 0.2, 0.8]);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn render_has_one_row_per_bin() {
        let mut h = Histogram::new(0.0, 1.0, 5);
        h.extend([0.1, 0.1, 0.9]);
        let s = h.render(20);
        assert_eq!(s.lines().count(), 5);
        assert!(s.contains('#'));
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_rejected() {
        Histogram::new(0.0, 1.0, 0);
    }
}
