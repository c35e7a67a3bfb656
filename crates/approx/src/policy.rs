//! Retention-aware refresh policies — the approximate-DRAM baselines the
//! paper builds on (§9.2): RAIDR-style row binning (Liu et al., ISCA 2012)
//! and RAPID-style retention-aware placement (Venkatesan et al., HPCA 2006),
//! alongside the plain uniform-interval controller.
//!
//! The privacy question these enable: does the *refresh mechanism* change the
//! fingerprint? (Answer, per the `policies` experiment: each policy exposes a
//! policy-dependent but equally identifying error pattern.)

use crate::{AccuracyTarget, CalibrationError};
use pc_dram::{Conditions, DramChip, RefreshPlan};

/// How refresh intervals are assigned across rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RefreshPolicy {
    /// One interval for the whole array (the paper's platform).
    Uniform,
    /// RAIDR-like: rows grouped into `bins` by their weakest cell; each bin
    /// refreshed at a rate proportional to its weakest row. Saves energy on
    /// strong rows without letting weak rows decay disproportionately.
    RaidrBins {
        /// Number of retention bins (RAIDR uses a handful).
        bins: usize,
    },
    /// RAPID-like: only the strongest `occupancy` fraction of rows hold data;
    /// the refresh interval is set by the weakest *populated* row.
    RapidPlacement {
        /// Fraction of rows populated, in `(0, 1]`.
        occupancy: f64,
    },
    /// Flikker-like (Liu et al.): the array is split into a high-refresh zone
    /// (exact storage for critical data) and a low-refresh zone whose
    /// interval is calibrated so the *overall* error budget is met; errors
    /// concentrate in the low-refresh zone.
    FlikkerPartition {
        /// Fraction of rows in the low-refresh (error-tolerant) zone, in
        /// `(0, 1]`.
        low_refresh_fraction: f64,
    },
}

/// A calibrated policy: the plan, which rows hold data, and what it achieved.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyOutcome {
    /// Per-row refresh intervals (0 = unpopulated row, never refreshed).
    pub plan: RefreshPlan,
    /// Which rows hold data.
    pub populated_rows: Vec<bool>,
    /// Worst-case error rate measured at the calibrated plan (over populated
    /// cells).
    pub achieved_error_rate: f64,
    /// Mean refresh rate across the array in Hz — the energy proxy.
    pub mean_refresh_rate_hz: f64,
}

impl PolicyOutcome {
    /// Fraction of rows populated.
    pub fn occupancy(&self) -> f64 {
        self.populated_rows.iter().filter(|&&p| p).count() as f64 / self.populated_rows.len() as f64
    }
}

/// The refresh rate (Hz) an *exact* uniform controller needs: refreshing
/// everything at the chip's single weakest cell's retention. Baseline for
/// energy comparisons.
pub fn exact_refresh_rate_hz(chip: &DramChip, temperature_c: f64) -> f64 {
    let rows = chip.profile().geometry().rows();
    let scale = chip.profile().temperature().scale(temperature_c);
    let weakest = (0..rows)
        .map(|r| chip.row_weakest_retention(r))
        .fold(f64::INFINITY, f64::min)
        * scale;
    1.0 / weakest
}

/// Calibrates `policy` on `chip` at `temperature_c` to hit `target`
/// worst-case accuracy over populated cells.
///
/// # Errors
///
/// [`CalibrationError`] when the bisection cannot reach the target.
///
/// # Panics
///
/// Panics on nonsensical policy parameters (zero bins, occupancy outside
/// `(0, 1]`).
pub fn plan_for_policy(
    chip: &DramChip,
    temperature_c: f64,
    target: AccuracyTarget,
    policy: RefreshPolicy,
) -> Result<PolicyOutcome, CalibrationError> {
    let geom = *chip.profile().geometry();
    let rows = geom.rows();
    let temp_scale = chip.profile().temperature().scale(temperature_c);
    let row_weakest: Vec<f64> = (0..rows)
        .map(|r| chip.row_weakest_retention(r) * temp_scale)
        .collect();

    match policy {
        RefreshPolicy::Uniform => {
            let interval = bisect_error_rate(target.error_rate(), |interval| {
                rate_with_plan(
                    chip,
                    temperature_c,
                    &RefreshPlan::uniform(rows, interval),
                    None,
                )
            })?;
            let plan = RefreshPlan::uniform(rows, interval);
            finish(chip, temperature_c, plan, vec![true; rows as usize])
        }
        RefreshPolicy::RaidrBins { bins } => {
            assert!(bins > 0, "need at least one bin");
            // Order rows by weakest retention; quantile-split into bins; each
            // bin's interval = alpha * (weakest retention inside the bin).
            let mut order: Vec<u32> = (0..rows).collect();
            order.sort_by(|&a, &b| {
                row_weakest[a as usize]
                    .partial_cmp(&row_weakest[b as usize])
                    .expect("retentions are finite")
            });
            let per_bin = (rows as usize).div_ceil(bins);
            let mut bin_of_row = vec![0usize; rows as usize];
            let mut bin_floor = vec![f64::INFINITY; bins];
            for (rank, &row) in order.iter().enumerate() {
                let b = (rank / per_bin).min(bins - 1);
                bin_of_row[row as usize] = b;
                bin_floor[b] = bin_floor[b].min(row_weakest[row as usize]);
            }
            let plan_at = |alpha: f64| {
                RefreshPlan::new(
                    (0..rows as usize)
                        .map(|r| alpha * bin_floor[bin_of_row[r]])
                        .collect(),
                )
            };
            let alpha = bisect_error_rate(target.error_rate(), |alpha| {
                rate_with_plan(chip, temperature_c, &plan_at(alpha), None)
            })?;
            finish(
                chip,
                temperature_c,
                plan_at(alpha),
                vec![true; rows as usize],
            )
        }
        RefreshPolicy::FlikkerPartition {
            low_refresh_fraction,
        } => {
            assert!(
                low_refresh_fraction > 0.0 && low_refresh_fraction <= 1.0,
                "low-refresh fraction must be in (0, 1], got {low_refresh_fraction}"
            );
            // Flikker keeps critical data in the first rows at an exact
            // refresh rate; the tail rows form the error-tolerant zone.
            let low_rows = ((rows as f64 * low_refresh_fraction).round() as u32).max(1);
            let high_rows = rows - low_rows;
            let exact_interval = row_weakest
                .iter()
                .take(high_rows as usize)
                .fold(f64::INFINITY, |a, &b| a.min(b))
                .min(1e6)
                * 0.5; // refresh the exact zone with 2x guard band
            let plan_at = |interval: f64| {
                RefreshPlan::new(
                    (0..rows)
                        .map(|r| {
                            if r < high_rows {
                                exact_interval
                            } else {
                                interval
                            }
                        })
                        .collect(),
                )
            };
            let interval = bisect_error_rate(target.error_rate(), |interval| {
                rate_with_plan(chip, temperature_c, &plan_at(interval), None)
            })?;
            finish(
                chip,
                temperature_c,
                plan_at(interval),
                vec![true; rows as usize],
            )
        }
        RefreshPolicy::RapidPlacement { occupancy } => {
            assert!(
                occupancy > 0.0 && occupancy <= 1.0,
                "occupancy must be in (0, 1], got {occupancy}"
            );
            // Populate the strongest rows first.
            let mut order: Vec<u32> = (0..rows).collect();
            order.sort_by(|&a, &b| {
                row_weakest[b as usize]
                    .partial_cmp(&row_weakest[a as usize])
                    .expect("retentions are finite")
            });
            let keep = ((rows as f64 * occupancy).round() as usize).max(1);
            let mut populated = vec![false; rows as usize];
            for &row in &order[..keep] {
                populated[row as usize] = true;
            }
            let plan_at = |interval: f64| {
                RefreshPlan::new(
                    populated
                        .iter()
                        .map(|&p| if p { interval } else { 0.0 })
                        .collect(),
                )
            };
            let populated_ref = populated.clone();
            let interval = bisect_error_rate(target.error_rate(), |interval| {
                rate_with_plan(
                    chip,
                    temperature_c,
                    &plan_at(interval),
                    Some(&populated_ref),
                )
            })?;
            finish(chip, temperature_c, plan_at(interval), populated)
        }
    }
}

/// Worst-case error rate under a plan, over populated cells only.
fn rate_with_plan(
    chip: &DramChip,
    temperature_c: f64,
    plan: &RefreshPlan,
    populated: Option<&[bool]>,
) -> f64 {
    let data = chip.worst_case_pattern();
    let cond = Conditions::new(temperature_c, 1.0).trial(u64::MAX);
    let errors = chip.errors_with_plan(&data, &cond, plan);
    let geom = chip.profile().geometry();
    let denom = match populated {
        Some(p) => p.iter().filter(|&&x| x).count() as u64 * geom.bits_per_row() as u64,
        None => chip.capacity_bits(),
    };
    errors.len() as f64 / denom as f64
}

/// Bisects a monotone-increasing `rate(x)` (in x) to hit `want`.
fn bisect_error_rate(want: f64, rate: impl Fn(f64) -> f64) -> Result<f64, CalibrationError> {
    let mut lo = 0.0f64;
    let mut hi = 1.0f64;
    let mut growth = 0;
    while rate(hi) < want {
        hi *= 2.0;
        growth += 1;
        if growth > 24 {
            return Err(CalibrationError::TargetUnreachable { target: want });
        }
    }
    let mut best = hi;
    let mut best_rate = rate(hi);
    for _ in 0..48 {
        let mid = 0.5 * (lo + hi);
        let r = rate(mid);
        if (r - want).abs() < (best_rate - want).abs() {
            best = mid;
            best_rate = r;
        }
        if (r - want).abs() <= 0.03 * want {
            return Ok(mid);
        }
        if r < want {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    if (best_rate - want).abs() <= 0.1 * want {
        Ok(best)
    } else {
        Err(CalibrationError::DidNotConverge {
            target: want,
            achieved: best_rate,
        })
    }
}

fn finish(
    chip: &DramChip,
    temperature_c: f64,
    plan: RefreshPlan,
    populated: Vec<bool>,
) -> Result<PolicyOutcome, CalibrationError> {
    let achieved = rate_with_plan(
        chip,
        temperature_c,
        &plan,
        if populated.iter().all(|&p| p) {
            None
        } else {
            Some(&populated)
        },
    );
    Ok(PolicyOutcome {
        mean_refresh_rate_hz: plan.mean_refresh_rate_hz(),
        plan,
        populated_rows: populated,
        achieved_error_rate: achieved,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_dram::{ChipGeometry, ChipId, ChipProfile};

    fn chip() -> DramChip {
        DramChip::new(
            ChipProfile::km41464a().with_geometry(ChipGeometry::new(32, 1024, 2)),
            ChipId(3),
        )
    }

    #[test]
    fn uniform_policy_matches_plain_calibration_rate() {
        let c = chip();
        let target = AccuracyTarget::percent(99.0).unwrap();
        let out = plan_for_policy(&c, 40.0, target, RefreshPolicy::Uniform).unwrap();
        assert!((out.achieved_error_rate - 0.01).abs() < 0.002);
        assert!(out.populated_rows.iter().all(|&p| p));
        // Uniform plan: all intervals equal.
        let first = out.plan.interval(0);
        assert!(out
            .plan
            .intervals()
            .iter()
            .all(|&i| (i - first).abs() < 1e-12));
    }

    #[test]
    fn raidr_hits_target_and_saves_vs_exact() {
        let c = chip();
        let target = AccuracyTarget::percent(99.0).unwrap();
        let raidr =
            plan_for_policy(&c, 40.0, target, RefreshPolicy::RaidrBins { bins: 4 }).unwrap();
        assert!((raidr.achieved_error_rate - 0.01).abs() < 0.003);
        // RAIDR's claim is savings vs the *exact* one-rate-fits-all baseline
        // (it spends refresh protecting the weak bins, so at an equal error
        // budget it refreshes more than approximate-uniform — its errors are
        // spread across bins instead of concentrated in the volatile tail).
        assert!(
            raidr.mean_refresh_rate_hz < exact_refresh_rate_hz(&c, 40.0),
            "raidr {} does not save vs exact {}",
            raidr.mean_refresh_rate_hz,
            exact_refresh_rate_hz(&c, 40.0)
        );
        // Weak-bin rows are refreshed faster than strong-bin rows.
        let min = raidr
            .plan
            .intervals()
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        let max = raidr
            .plan
            .intervals()
            .iter()
            .cloned()
            .fold(0.0f64, f64::max);
        assert!(max > 2.0 * min, "bins not differentiated: {min}..{max}");
    }

    #[test]
    fn rapid_populates_strongest_rows_only() {
        let c = chip();
        let target = AccuracyTarget::percent(99.0).unwrap();
        let out = plan_for_policy(
            &c,
            40.0,
            target,
            RefreshPolicy::RapidPlacement { occupancy: 0.5 },
        )
        .unwrap();
        assert!((out.occupancy() - 0.5).abs() < 0.05);
        assert!((out.achieved_error_rate - 0.01).abs() < 0.003);
        // Populated rows must be stronger than unpopulated ones.
        let weakest_populated = out
            .populated_rows
            .iter()
            .enumerate()
            .filter(|(_, &p)| p)
            .map(|(r, _)| c.row_weakest_retention(r as u32))
            .fold(f64::INFINITY, f64::min);
        let strongest_unpopulated = out
            .populated_rows
            .iter()
            .enumerate()
            .filter(|(_, &p)| !p)
            .map(|(r, _)| c.row_weakest_retention(r as u32))
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(weakest_populated >= strongest_unpopulated);
    }

    #[test]
    fn flikker_concentrates_errors_in_the_low_refresh_zone() {
        let c = chip();
        let target = AccuracyTarget::percent(99.0).unwrap();
        let out = plan_for_policy(
            &c,
            40.0,
            target,
            RefreshPolicy::FlikkerPartition {
                low_refresh_fraction: 0.5,
            },
        )
        .unwrap();
        assert!((out.achieved_error_rate - 0.01).abs() < 0.003);
        // Errors only occur in the low-refresh tail rows.
        let data = c.worst_case_pattern();
        let cond = pc_dram::Conditions::new(40.0, 1.0).trial(7);
        let errors = c.errors_with_plan(&data, &cond, &out.plan);
        let geom = c.profile().geometry();
        let boundary = geom.rows() / 2;
        assert!(!errors.is_empty());
        assert!(
            errors.iter().all(|&e| geom.row_of(e) >= boundary),
            "error leaked into the protected zone"
        );
    }

    #[test]
    fn all_policies_save_energy_vs_exact() {
        let c = chip();
        let exact = exact_refresh_rate_hz(&c, 40.0);
        let target = AccuracyTarget::percent(99.0).unwrap();
        for policy in [
            RefreshPolicy::Uniform,
            RefreshPolicy::RaidrBins { bins: 4 },
            RefreshPolicy::RapidPlacement { occupancy: 0.75 },
        ] {
            let out = plan_for_policy(&c, 40.0, target, policy).unwrap();
            assert!(
                out.mean_refresh_rate_hz < exact,
                "{policy:?} refreshes more than exact"
            );
        }
    }

    #[test]
    #[should_panic(expected = "occupancy")]
    fn bad_occupancy_rejected() {
        let _ = plan_for_policy(
            &chip(),
            40.0,
            AccuracyTarget::percent(99.0).unwrap(),
            RefreshPolicy::RapidPlacement { occupancy: 0.0 },
        );
    }
}
