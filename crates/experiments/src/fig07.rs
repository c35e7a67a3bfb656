//! Figure 7 (§7.1, uniqueness): histogram of within-class (same chip) and
//! between-class (other chips) distances between evaluation outputs and
//! system-level fingerprints. The paper finds the between-class distances two
//! orders of magnitude above within-class, enabling trivial identification.

use crate::platform::Platform;
use crate::report::{artifact_dir, write_csv_series, Report};
use pc_stats::Histogram;
use probable_cause::{ErrorString, Fingerprint, PcDistance, SeparationReport};
use std::io;
use std::path::Path;

/// The distance samples behind Fig. 7/9/11, labelled with their conditions.
#[derive(Debug)]
pub struct DistanceSamples {
    /// (temperature, accuracy, distance) for same-chip pairs.
    pub within: Vec<(f64, f64, f64)>,
    /// (temperature, accuracy, distance) for cross-chip pairs.
    pub between: Vec<(f64, f64, f64)>,
}

/// Collects the §7.1 evaluation: fingerprints from 3 outputs at 1% error per
/// chip, then 9 evaluation outputs per chip (3 temps × 3 accuracies), scored
/// against every fingerprint.
pub fn collect(platform: &Platform) -> DistanceSamples {
    let metric = PcDistance::new();
    let n = platform.len();
    let fingerprints: Vec<Fingerprint> = (0..n)
        .map(|c| platform.fingerprint(c, 10_000 + 10 * c as u64))
        .collect();

    let mut within = Vec::new();
    let mut between = Vec::new();
    // Parallelize output generation per chip: each worker produces its own
    // evaluation outputs, then the (cheap) distance matrix is scored inline.
    let outputs: Vec<Vec<(f64, f64, ErrorString)>> = {
        let mut outs: Vec<Option<Vec<(f64, f64, ErrorString)>>> = (0..n).map(|_| None).collect();
        std::thread::scope(|s| {
            for (c, slot) in outs.iter_mut().enumerate() {
                s.spawn(move || {
                    *slot = Some(platform.evaluation_outputs(c, 20_000 + 100 * c as u64));
                });
            }
        });
        outs.into_iter()
            .map(|o| o.expect("filled by worker"))
            .collect()
    };
    // Score each output against every fingerprint in one batched call (the
    // packed kernels in `probable_cause::batch`), not a per-pair loop.
    let fp_errors: Vec<ErrorString> = fingerprints.iter().map(|f| f.errors().clone()).collect();
    for (c, outs) in outputs.iter().enumerate() {
        for (t, a, es) in outs {
            let distances = probable_cause::batch::score_batch(&fp_errors, es, &metric);
            for (f, d) in distances.into_iter().enumerate() {
                if f == c {
                    within.push((*t, *a, d));
                } else {
                    between.push((*t, *a, d));
                }
            }
        }
    }
    DistanceSamples { within, between }
}

/// Runs the Fig. 7 reproduction with the paper's 10 chips.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn run(out: &Path) -> io::Result<String> {
    run_with(out, &Platform::km41464a(10))
}

/// Runs the Fig. 7 reproduction on a caller-supplied platform (the DDR2
/// harness reuses this).
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn run_with(out: &Path, platform: &Platform) -> io::Result<String> {
    let dir = artifact_dir(out, "fig07")?;
    let samples = collect(platform);

    let mut between_hist = Histogram::new(0.0, 1.0, 50);
    between_hist.extend(samples.between.iter().map(|&(_, _, d)| d));
    // The paper's inset: within-class distances live near zero, so they get
    // their own fine-grained histogram over [0, 0.001].
    let mut within_hist = Histogram::new(0.0, 0.001, 20);
    within_hist.extend(samples.within.iter().map(|&(_, _, d)| d));

    let report_sep = SeparationReport::from_samples(
        &samples
            .within
            .iter()
            .map(|&(_, _, d)| d)
            .collect::<Vec<_>>(),
        &samples
            .between
            .iter()
            .map(|&(_, _, d)| d)
            .collect::<Vec<_>>(),
    );

    write_csv_series(
        &dir.join("between_hist.csv"),
        ("distance", "count"),
        between_hist.series().map(|(c, n)| (c, n as f64)),
    )?;
    write_csv_series(
        &dir.join("within_hist.csv"),
        ("distance", "count"),
        within_hist.series().map(|(c, n)| (c, n as f64)),
    )?;

    let mut r = Report::new("Figure 7: within- vs between-class fingerprint distances");
    r.kv("chips", platform.len());
    r.kv("within-class pairs", samples.within.len());
    r.kv("between-class pairs", samples.between.len());
    r.section("separation");
    r.kv(
        "max within-class distance",
        format!("{:.6}", report_sep.within().max()),
    );
    r.kv(
        "min between-class distance",
        format!("{:.6}", report_sep.between().min()),
    );
    r.kv(
        "separation ratio",
        format!("{:.1}", report_sep.separation_ratio()),
    );
    r.kv(
        "orders of magnitude",
        format!("{:.2} (paper: ~2)", report_sep.orders_of_magnitude()),
    );
    r.kv("perfectly separable", report_sep.is_separable());
    r.kv(
        "recommended threshold",
        format!("{:.4}", report_sep.recommended_threshold()),
    );
    r.histogram("between-class distance histogram [0,1]:", &between_hist);
    r.histogram(
        "within-class distance histogram [0,0.001] (inset):",
        &within_hist,
    );
    r.line(format!("\nartifacts: {}", dir.display()));
    Ok(r.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_dram::{ChipGeometry, ChipProfile};

    #[test]
    fn small_fleet_separates_by_two_orders() {
        let platform = Platform::with_profile(
            ChipProfile::km41464a().with_geometry(ChipGeometry::new(32, 1024, 2)),
            4,
        );
        let s = collect(&platform);
        assert_eq!(s.within.len(), 4 * 9);
        assert_eq!(s.between.len(), 4 * 9 * 3);
        let rep = SeparationReport::from_samples(
            &s.within.iter().map(|&(_, _, d)| d).collect::<Vec<_>>(),
            &s.between.iter().map(|&(_, _, d)| d).collect::<Vec<_>>(),
        );
        assert!(rep.is_separable(), "classes overlap");
        assert!(
            rep.orders_of_magnitude() >= 1.5,
            "separation only {:.2} orders",
            rep.orders_of_magnitude()
        );
    }
}
