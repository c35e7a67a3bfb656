//! Row-granular refresh plans — the substrate for RAIDR/RAPID-style
//! multi-rate refresh baselines (paper §9.2's related approximate-DRAM
//! schemes).
//!
//! Refresh has row granularity (paper §2): real retention-aware schemes
//! assign different refresh intervals to different rows. A [`RefreshPlan`]
//! records one interval per row; [`crate::DramChip::errors_with_plan`]
//! evaluates decay under it.

use crate::{Conditions, DramChip};

/// A per-row refresh schedule: `interval(row)` seconds between refreshes of
/// that row.
///
/// # Example
///
/// ```
/// use pc_dram::RefreshPlan;
/// let plan = RefreshPlan::uniform(4, 0.5);
/// assert_eq!(plan.rows(), 4);
/// assert_eq!(plan.interval(2), 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RefreshPlan {
    intervals: Vec<f64>,
}

impl RefreshPlan {
    /// Creates a plan from one interval per row.
    ///
    /// # Panics
    ///
    /// Panics if `intervals` is empty or contains a non-finite or negative
    /// value.
    pub fn new(intervals: Vec<f64>) -> Self {
        assert!(!intervals.is_empty(), "plan needs at least one row");
        assert!(
            intervals.iter().all(|i| i.is_finite() && *i >= 0.0),
            "intervals must be finite and non-negative"
        );
        Self { intervals }
    }

    /// A plan refreshing every row at the same interval.
    pub fn uniform(rows: u32, interval_s: f64) -> Self {
        Self::new(vec![interval_s; rows as usize])
    }

    /// Number of rows covered.
    pub fn rows(&self) -> u32 {
        self.intervals.len() as u32
    }

    /// Interval of `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn interval(&self, row: u32) -> f64 {
        self.intervals[row as usize]
    }

    /// All intervals, row order.
    pub fn intervals(&self) -> &[f64] {
        &self.intervals
    }

    /// Mean refresh *rate* (Hz) across rows — the energy proxy: refresh power
    /// is proportional to how often rows are refreshed. Rows with interval 0
    /// are treated as unpopulated (never written, never refreshed).
    pub fn mean_refresh_rate_hz(&self) -> f64 {
        let total: f64 = self
            .intervals
            .iter()
            .filter(|&&i| i > 0.0)
            .map(|&i| 1.0 / i)
            .sum();
        total / self.intervals.len() as f64
    }
}

impl DramChip {
    /// The weakest (shortest) retention among the cells of `row`, at the
    /// reference temperature — what retention-aware refresh schemes profile.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn row_weakest_retention(&self, row: u32) -> f64 {
        let geom = self.profile().geometry();
        assert!(row < geom.rows(), "row {row} out of range");
        let base = row as u64 * geom.bits_per_row() as u64;
        (0..geom.bits_per_row() as u64)
            .map(|b| self.retention_seconds(base + b))
            .fold(f64::INFINITY, f64::min)
    }

    /// Error cells for `data` stored from the start of the chip under a
    /// per-row refresh plan: cell decay is judged against *its row's*
    /// interval, everything else (temperature, scale, trial noise, transient
    /// upsets) as in [`DramChip::errors_at`].
    ///
    /// # Panics
    ///
    /// Panics if the plan's row count differs from the chip's or the buffer
    /// exceeds capacity.
    pub fn errors_with_plan(
        &self,
        data: &[u8],
        base_conditions: &Conditions,
        plan: &RefreshPlan,
    ) -> Vec<u64> {
        let _span = pc_telemetry::time!("dram.errors_with_plan");
        pc_telemetry::counter!("dram.plan_readbacks").incr();
        let geom = *self.profile().geometry();
        assert_eq!(
            plan.rows(),
            geom.rows(),
            "plan does not match chip geometry"
        );
        assert!(
            data.len() as u64 * 8 <= self.capacity_bits(),
            "buffer exceeds chip capacity"
        );
        let mut errors = Vec::new();
        for (i, &byte) in data.iter().enumerate() {
            for bit in 0..8u64 {
                let cell = i as u64 * 8 + bit;
                let value = byte & (1 << bit) != 0;
                if !self.is_charged(cell, value) {
                    continue;
                }
                let row = geom.row_of(cell);
                let cond = base_conditions.with_refresh_interval(plan.interval(row));
                if self.cell_errors(cell, &cond) {
                    errors.push(cell);
                }
            }
        }
        pc_telemetry::counter!("dram.error_bits").add(errors.len() as u64);
        errors
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChipGeometry, ChipId, ChipProfile};

    fn chip() -> DramChip {
        DramChip::new(
            ChipProfile::km41464a().with_geometry(ChipGeometry::new(16, 256, 2)),
            ChipId(1),
        )
    }

    #[test]
    fn uniform_plan_matches_plain_readback() {
        let c = chip();
        let data = c.worst_case_pattern();
        let cond = Conditions::new(40.0, 7.0).trial(2);
        let plain = c.readback_errors(&data, &cond);
        let plan = RefreshPlan::uniform(16, 7.0);
        let planned = c.errors_with_plan(&data, &cond, &plan);
        assert_eq!(plain, planned);
    }

    #[test]
    fn protected_rows_produce_no_errors() {
        let c = chip();
        let data = c.worst_case_pattern();
        let cond = Conditions::new(40.0, 7.0).trial(2);
        // Refresh rows 0..8 constantly (interval ~0), rows 8.. slowly.
        let mut intervals = vec![1e-6; 8];
        intervals.extend(vec![20.0; 8]);
        let plan = RefreshPlan::new(intervals);
        let errors = c.errors_with_plan(&data, &cond, &plan);
        assert!(!errors.is_empty());
        assert!(
            errors
                .iter()
                .all(|&e| c.profile().geometry().row_of(e) >= 8),
            "protected row erred"
        );
    }

    #[test]
    fn row_weakest_retention_bounds_row_cells() {
        let c = chip();
        let geom = *c.profile().geometry();
        let w = c.row_weakest_retention(3);
        let base = 3 * geom.bits_per_row() as u64;
        for b in 0..geom.bits_per_row() as u64 {
            assert!(c.retention_seconds(base + b) >= w);
        }
    }

    #[test]
    fn mean_refresh_rate_energy_proxy() {
        let plan = RefreshPlan::new(vec![1.0, 2.0, 0.0, 4.0]);
        // Rates: 1, 0.5, (unpopulated), 0.25 -> mean over 4 rows = 0.4375.
        assert!((plan.mean_refresh_rate_hz() - 0.4375).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "does not match chip geometry")]
    fn plan_geometry_checked() {
        let c = chip();
        let data = c.worst_case_pattern();
        c.errors_with_plan(
            &data,
            &Conditions::new(40.0, 1.0),
            &RefreshPlan::uniform(4, 1.0),
        );
    }

    #[test]
    #[should_panic(expected = "at least one row")]
    fn empty_plan_rejected() {
        RefreshPlan::new(vec![]);
    }
}
