//! Seeded inputs: the enrolled database, the cluster devices, and the
//! request pool each workload cycles through.
//!
//! Shapes follow the lookup bench: 32 768-bit pages with 328 error bits from
//! [`pc_bench::synthetic_errors`], noise from [`pc_bench::perturbed`]. Every
//! chip has a *stable* set (its first 312 error bits) that every observation
//! contains, plus 16 noise bits per observation. Enrolled fingerprints are
//! stored at that stable set, which is the fixed point of Algorithm 1: a
//! `characterize` refine intersects it with an observation that contains it,
//! so the stored bits never change. That keeps the database — and so every
//! identify answer — identical across the timed window however the
//! connections interleave.

use pc_bench::{perturbed, synthetic_errors};
use pc_service::protocol::Request;
use pc_stats::mix64;
use probable_cause::{ErrorString, Fingerprint, FingerprintDb, PcDistance};

/// Bits per page.
pub const PAGE_BITS: u64 = 32_768;
/// Error bits per chip page.
pub const WEIGHT: usize = 328;
/// Noise bits per observation (and stable bits a re-observation misses).
pub const NOISE: usize = 16;
/// The service's matching threshold, stored in the generated database.
pub const THRESHOLD: f64 = 0.25;

const STREAM_CHIP: u64 = 1;
const STREAM_DEVICE: u64 = 2;
const STREAM_STRANGER: u64 = 3;
const STREAM_NONCE: u64 = 4;
const STREAM_MIX: u64 = 5;

/// A 64-bit key for item `i` of `stream` under `seed`.
fn key(seed: u64, stream: u64, i: u64) -> u64 {
    mix64(seed ^ mix64(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ mix64(i)))
}

/// Uniform draw in `[0, 1)` for item `i` of `stream`.
fn uniform(seed: u64, stream: u64, i: u64) -> f64 {
    (key(seed, stream, i) >> 11) as f64 / (1u64 << 53) as f64
}

/// The label of enrolled chip `chip`.
pub fn label(chip: usize) -> String {
    format!("chip-{chip:06}")
}

/// Chip `chip`'s full error pattern.
pub fn chip_base(seed: u64, chip: usize) -> ErrorString {
    synthetic_errors(key(seed, STREAM_CHIP, chip as u64), WEIGHT, PAGE_BITS)
}

/// Cluster device `device`'s full error pattern (a chip not in the
/// database).
pub fn device_base(seed: u64, device: usize) -> ErrorString {
    synthetic_errors(key(seed, STREAM_DEVICE, device as u64), WEIGHT, PAGE_BITS)
}

/// The stable bits of `base`: what every observation of it contains.
pub fn stable(base: &ErrorString) -> ErrorString {
    perturbed(base, NOISE, 0, 0)
}

/// One observation of `base`: its stable bits plus fresh noise.
pub fn observation(base: &ErrorString, nonce: u64) -> ErrorString {
    perturbed(base, NOISE, NOISE, nonce)
}

/// A noisy re-observation for identification: it also misses `NOISE`
/// stable bits, so its distance to the enrolled fingerprint is non-zero
/// (about 0.05) but well inside the threshold.
pub fn reobservation(base: &ErrorString, nonce: u64) -> ErrorString {
    perturbed(base, 2 * NOISE, NOISE, nonce)
}

/// The enrolled database of `chips` chips, in chip order, at the fixed
/// point of Algorithm 1 (two observations folded in).
pub fn build_db(seed: u64, chips: usize) -> FingerprintDb<String, PcDistance> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let per = chips.div_ceil(threads.max(1)).max(1);
    let parts: Vec<Vec<ErrorString>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..chips)
            .step_by(per)
            .map(|lo| {
                s.spawn(move || {
                    (lo..(lo + per).min(chips))
                        .map(|c| stable(&chip_base(seed, c)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let mut db = FingerprintDb::new(PcDistance::new(), THRESHOLD);
    for (chip, errors) in parts.into_iter().flatten().enumerate() {
        db.insert(label(chip), Fingerprint::from_parts(errors, 2));
    }
    db
}

/// The request mix of a workload, as shares of the pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mix {
    /// Share of identifies.
    pub identify: f64,
    /// Share of `characterize` refines of enrolled labels.
    pub characterize: f64,
    /// Share of `cluster-ingest` outputs; the rest of the pool.
    pub ingest: f64,
    /// Share of identifies that come from unenrolled strangers.
    pub strangers: f64,
}

/// What a correct server answers to a planned request.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// Whatever the linear scan over the loaded database says.
    Oracle,
    /// A refine of an existing label that leaves its stable bits.
    Characterized {
        /// The refined label.
        label: String,
        /// Its weight before and after.
        weight: u64,
    },
    /// An output of `device`, which must land in that device's cluster.
    Clustered {
        /// The emitting device (= its cluster id after seeding).
        device: usize,
    },
}

/// One planned request of the pool.
#[derive(Debug, Clone, PartialEq)]
pub struct Planned {
    /// The request sent on the wire.
    pub request: Request,
    /// How its answer is checked.
    pub expect: Expect,
}

/// The pool of `size` distinct requests a workload cycles through.
pub fn plan_pool(seed: u64, mix: &Mix, chips: usize, devices: usize, size: usize) -> Vec<Planned> {
    (0..size as u64)
        .map(|i| {
            let u = uniform(seed, STREAM_MIX, i);
            let pick = key(seed, STREAM_MIX, i ^ 0xabcd_ef01_2345_6789);
            let nonce = key(seed, STREAM_NONCE, i);
            if u < mix.identify {
                let errors = if uniform(seed, STREAM_STRANGER, i) < mix.strangers {
                    synthetic_errors(key(seed, STREAM_STRANGER, i), WEIGHT, PAGE_BITS)
                } else {
                    reobservation(&chip_base(seed, (pick % chips as u64) as usize), nonce)
                };
                Planned {
                    request: Request::Identify { errors },
                    expect: Expect::Oracle,
                }
            } else if u < mix.identify + mix.characterize {
                let chip = (pick % chips as u64) as usize;
                let base = chip_base(seed, chip);
                Planned {
                    request: Request::Characterize {
                        label: label(chip),
                        errors: observation(&base, nonce),
                    },
                    expect: Expect::Characterized {
                        label: label(chip),
                        weight: stable(&base).weight(),
                    },
                }
            } else {
                let device = (pick % devices.max(1) as u64) as usize;
                Planned {
                    request: Request::ClusterIngest {
                        errors: observation(&device_base(seed, device), nonce),
                    },
                    expect: Expect::Clustered { device },
                }
            }
        })
        .collect()
}

/// The outputs that seed the cluster book before timing: one observation
/// per device, in device order, so device `d` owns cluster `d`.
pub fn seed_outputs(seed: u64, devices: usize) -> Vec<ErrorString> {
    (0..devices)
        .map(|d| {
            let nonce = key(seed, STREAM_NONCE, u64::MAX - d as u64);
            observation(&device_base(seed, d), nonce)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use probable_cause::DistanceMetric;

    #[test]
    fn observations_contain_the_stable_bits() {
        let base = chip_base(7, 3);
        let stable = stable(&base);
        assert_eq!(stable.weight() as usize, WEIGHT - NOISE);
        let obs = observation(&base, 11);
        assert_eq!(stable.intersect(&obs).unwrap(), stable);
        let d = PcDistance::new().distance(&stable, &reobservation(&base, 12));
        assert!(d > 0.0 && d < THRESHOLD, "re-observation distance {d}");
    }
}
