//! Individual DRAM chips: deterministic retention maps and decay readback.

use crate::{ChipProfile, Conditions};
use pc_stats::{normal_cdf, probit, CellHasher};

/// Serial number of a fabricated chip. Seeds the chip-random (leakage)
/// variation plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChipId(pub u64);

/// Identifier of the mask set a chip was fabricated from. Chips sharing a
/// mask share the (minor) capacitance component of their variation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MaskId(pub u64);

// Tags for carving independent random planes out of the chip/mask seeds.
const TAG_CAPACITANCE: u64 = 1;
const TAG_LEAKAGE: u64 = 2;
const TAG_SKEW: u64 = 3;
const TAG_NOISE: u64 = 4;
const TAG_TRANSIENT: u64 = 5;

/// A simulated DRAM chip.
///
/// The chip never stores its retention map: each cell's retention time is a
/// pure function of `(mask, chip, cell)` evaluated on demand, so constructing
/// a chip is free and chips of any density cost O(1) memory.
///
/// # Example
///
/// ```
/// use pc_dram::{ChipId, ChipProfile, Conditions, DramChip};
///
/// let chip = DramChip::new(ChipProfile::km41464a(), ChipId(1));
/// // Retention is locked in at manufacturing: identical on every query.
/// assert_eq!(chip.retention_seconds(1234), chip.retention_seconds(1234));
///
/// // Storing data and reading it back after a long unrefreshed interval
/// // flips some charged cells back to their default value.
/// let data = chip.worst_case_pattern();
/// let cond = Conditions::new(40.0, 6.0);
/// let approx = chip.readback(&data, &cond);
/// assert_eq!(approx.len(), data.len());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DramChip {
    profile: ChipProfile,
    id: ChipId,
    mask: MaskId,
    cap_plane: CellHasher,
    leak_plane: CellHasher,
    skew_plane: CellHasher,
    noise_plane: CellHasher,
    transient_plane: CellHasher,
}

impl DramChip {
    /// Fabricates a chip with serial number `id` from the default mask set.
    pub fn new(profile: ChipProfile, id: ChipId) -> Self {
        Self::with_mask(profile, id, MaskId(0))
    }

    /// Fabricates a chip from a specific mask set, enabling the study of
    /// mask-correlated variation across chips.
    pub fn with_mask(profile: ChipProfile, id: ChipId, mask: MaskId) -> Self {
        let chip_h = CellHasher::new(id.0);
        let mask_h = CellHasher::new(mask.0);
        Self {
            profile,
            id,
            mask,
            cap_plane: mask_h.derive(TAG_CAPACITANCE),
            leak_plane: chip_h.derive(TAG_LEAKAGE),
            skew_plane: chip_h.derive(TAG_SKEW),
            noise_plane: chip_h.derive(TAG_NOISE),
            transient_plane: chip_h.derive(TAG_TRANSIENT),
        }
    }

    /// Chip serial number.
    pub fn id(&self) -> ChipId {
        self.id
    }

    /// Mask set this chip was fabricated from.
    pub fn mask(&self) -> MaskId {
        self.mask
    }

    /// The part profile.
    pub fn profile(&self) -> &ChipProfile {
        &self.profile
    }

    /// Total number of cells.
    pub fn capacity_bits(&self) -> u64 {
        self.profile.geometry().capacity_bits()
    }

    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.profile.geometry().capacity_bytes()
    }

    /// The logical value cell `cell` reads as when discharged.
    pub fn default_bit(&self, cell: u64) -> bool {
        self.profile.geometry().default_bit(cell)
    }

    /// This cell's volatility *quantile*: the fraction of the part population
    /// more volatile than it... strictly, its CDF position in the retention
    /// distribution. 0 = most volatile, 1 = least. Locked in at manufacture.
    pub fn volatility_quantile(&self, cell: u64) -> f64 {
        let z_mask = probit(self.cap_plane.uniform(cell));
        let z_chip = probit(self.leak_plane.uniform(cell));
        normal_cdf(self.profile.variation().combine(z_mask, z_chip))
    }

    /// Retention time of `cell` in seconds at the profile's reference
    /// temperature.
    pub fn retention_seconds(&self, cell: u64) -> f64 {
        let u0 = self.volatility_quantile(cell);
        let u1 = self.skew_plane.uniform(cell);
        self.profile.retention().retention_seconds(u0, u1)
    }

    /// Retention time of `cell` at `temperature_c`.
    pub fn retention_at(&self, cell: u64, temperature_c: f64) -> f64 {
        self.profile
            .temperature()
            .retention_at(self.retention_seconds(cell), temperature_c)
    }

    /// Whether a *charged* cell decays (reverts to its default value) under
    /// `cond`.
    ///
    /// The decay threshold is jittered per `(trial, cell)` by the profile's
    /// `noise_sigma`, reproducing the paper's observation that ~2% of error
    /// bits are not repeatable across runs (Fig. 8).
    pub fn decays(&self, cell: u64, cond: &Conditions) -> bool {
        let t_ret = self.retention_at(cell, cond.temperature_c()) * cond.retention_scale();
        let sigma = self.profile.noise_sigma();
        let effective = if sigma > 0.0 {
            let z = probit(self.noise_plane.uniform2(cond.trial_id(), cell));
            // Clamp so pathological jitter can never produce a negative
            // retention time.
            t_ret * (1.0 + sigma * z).max(0.01)
        } else {
            t_ret
        };
        cond.refresh_interval_s() > effective
    }

    /// Whether a charged cell suffers a *transient read upset* (reads as its
    /// default value despite holding charge) in the given trial — the rare
    /// additive noise floor on top of physical decay.
    pub fn transient_upset(&self, cell: u64, trial: u64) -> bool {
        let rate = self.profile.transient_flip_rate();
        rate > 0.0 && self.transient_plane.uniform2(trial, cell) < rate
    }

    /// Whether a *charged* cell reads erroneously under `cond`: physical
    /// decay or a transient upset.
    pub fn cell_errors(&self, cell: u64, cond: &Conditions) -> bool {
        self.decays(cell, cond) || self.transient_upset(cell, cond.trial_id())
    }

    /// Whether storing bit value `bit` in `cell` charges its capacitor.
    pub fn is_charged(&self, cell: u64, bit: bool) -> bool {
        bit != self.default_bit(cell)
    }

    /// A data pattern that charges **every** cell — the worst case the paper
    /// uses for non-image experiments (§6), giving every cell the chance to
    /// decay.
    pub fn worst_case_pattern(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.capacity_bytes()];
        for (i, byte) in out.iter_mut().enumerate() {
            let mut b = 0u8;
            for bit in 0..8 {
                let cell = (i * 8 + bit) as u64;
                if !self.default_bit(cell) {
                    b |= 1 << bit;
                }
            }
            *byte = b;
        }
        out
    }

    /// Stores `data` at the start of the chip and reads it back after the
    /// conditions' unrefreshed interval. Charged cells that decay revert to
    /// their default value; discharged cells are unaffected.
    ///
    /// # Panics
    ///
    /// Panics if `data` exceeds the chip capacity.
    pub fn readback(&self, data: &[u8], cond: &Conditions) -> Vec<u8> {
        self.readback_at(0, data, cond)
    }

    /// Like [`DramChip::readback`], with `data` placed at byte offset
    /// `offset_bytes` in the chip.
    ///
    /// # Panics
    ///
    /// Panics if the buffer does not fit at that offset.
    pub fn readback_at(&self, offset_bytes: usize, data: &[u8], cond: &Conditions) -> Vec<u8> {
        let mut out = data.to_vec();
        for cell in self.errors_at(offset_bytes, data, cond) {
            let local = cell - (offset_bytes as u64) * 8;
            out[(local / 8) as usize] ^= 1 << (local % 8);
        }
        out
    }

    /// Error *cell indices* (chip-relative, sorted ascending) produced by
    /// storing `data` at the start of the chip under `cond`.
    pub fn readback_errors(&self, data: &[u8], cond: &Conditions) -> Vec<u64> {
        self.errors_at(0, data, cond)
    }

    /// Error cell indices for data placed at a byte offset.
    ///
    /// # Panics
    ///
    /// Panics if the buffer does not fit at that offset.
    pub fn errors_at(&self, offset_bytes: usize, data: &[u8], cond: &Conditions) -> Vec<u64> {
        let _span = pc_telemetry::time!("dram.errors_at");
        pc_telemetry::counter!("dram.readbacks").incr();
        pc_telemetry::counter!("dram.cells_scanned").add(data.len() as u64 * 8);
        let start_bit = offset_bytes as u64 * 8;
        let end_bit = start_bit + data.len() as u64 * 8;
        assert!(
            end_bit <= self.capacity_bits(),
            "buffer of {} bytes at offset {offset_bytes} exceeds chip capacity",
            data.len()
        );
        let mut errors = Vec::new();
        for (i, &byte) in data.iter().enumerate() {
            for bit in 0..8u64 {
                let cell = start_bit + i as u64 * 8 + bit;
                let value = byte & (1 << bit) != 0;
                if self.is_charged(cell, value) && self.cell_errors(cell, cond) {
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

    fn small_profile() -> ChipProfile {
        ChipProfile::km41464a().with_geometry(crate::ChipGeometry::new(32, 256, 2))
    }

    #[test]
    fn retention_is_deterministic_per_chip() {
        let a = DramChip::new(ChipProfile::km41464a(), ChipId(5));
        let b = DramChip::new(ChipProfile::km41464a(), ChipId(5));
        for cell in (0..1000).step_by(37) {
            assert_eq!(a.retention_seconds(cell), b.retention_seconds(cell));
        }
    }

    #[test]
    fn different_chips_have_different_retention_maps() {
        let a = DramChip::new(ChipProfile::km41464a(), ChipId(1));
        let b = DramChip::new(ChipProfile::km41464a(), ChipId(2));
        let same = (0..1000)
            .filter(|&c| (a.retention_seconds(c) - b.retention_seconds(c)).abs() < 1e-12)
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    fn same_mask_correlates_but_does_not_duplicate() {
        let p = ChipProfile::km41464a();
        let a = DramChip::with_mask(p.clone(), ChipId(1), MaskId(7));
        let b = DramChip::with_mask(p.clone(), ChipId(2), MaskId(7));
        let c = DramChip::with_mask(p, ChipId(3), MaskId(8));
        // Correlation of volatility quantiles: same-mask pair should beat the
        // cross-mask pair, but stay well below 1 (leakage dominates).
        let n = 4000u64;
        let corr = |x: &DramChip, y: &DramChip| {
            let mut sx = 0.0;
            let mut sy = 0.0;
            let mut sxy = 0.0;
            let mut sxx = 0.0;
            let mut syy = 0.0;
            for i in 0..n {
                let (a, b) = (x.volatility_quantile(i), y.volatility_quantile(i));
                sx += a;
                sy += b;
                sxy += a * b;
                sxx += a * a;
                syy += b * b;
            }
            let nf = n as f64;
            (sxy - sx * sy / nf) / ((sxx - sx * sx / nf).sqrt() * (syy - sy * sy / nf).sqrt())
        };
        let same_mask = corr(&a, &b);
        let cross_mask = corr(&a, &c);
        assert!(same_mask > 0.08, "same-mask corr {same_mask} too low");
        assert!(same_mask < 0.4, "same-mask corr {same_mask} too high");
        assert!(cross_mask.abs() < 0.08, "cross-mask corr {cross_mask}");
    }

    #[test]
    fn worst_case_pattern_charges_every_cell() {
        let chip = DramChip::new(small_profile(), ChipId(9));
        let data = chip.worst_case_pattern();
        for (i, &byte) in data.iter().enumerate() {
            for bit in 0..8u64 {
                let cell = i as u64 * 8 + bit;
                let v = byte & (1 << bit) != 0;
                assert!(chip.is_charged(cell, v), "cell {cell} not charged");
            }
        }
    }

    #[test]
    fn zero_interval_never_errors() {
        let chip = DramChip::new(small_profile(), ChipId(9));
        let data = chip.worst_case_pattern();
        let cond = Conditions::new(60.0, 0.0);
        assert!(chip.readback_errors(&data, &cond).is_empty());
    }

    #[test]
    fn longer_interval_more_errors() {
        let chip = DramChip::new(small_profile(), ChipId(3));
        let data = chip.worst_case_pattern();
        let e_short = chip
            .readback_errors(&data, &Conditions::new(40.0, 4.0))
            .len();
        let e_long = chip
            .readback_errors(&data, &Conditions::new(40.0, 12.0))
            .len();
        assert!(e_long > e_short, "short={e_short} long={e_long}");
    }

    #[test]
    fn hotter_more_errors_at_same_interval() {
        let chip = DramChip::new(small_profile(), ChipId(3));
        let data = chip.worst_case_pattern();
        let cold = chip
            .readback_errors(&data, &Conditions::new(40.0, 6.0))
            .len();
        let hot = chip
            .readback_errors(&data, &Conditions::new(60.0, 6.0))
            .len();
        assert!(hot > cold, "cold={cold} hot={hot}");
    }

    #[test]
    fn errors_only_flip_toward_default() {
        let chip = DramChip::new(small_profile(), ChipId(4));
        let data = chip.worst_case_pattern();
        let cond = Conditions::new(40.0, 8.0);
        let approx = chip.readback(&data, &cond);
        for (i, (&orig, &got)) in data.iter().zip(approx.iter()).enumerate() {
            let diff = orig ^ got;
            for bit in 0..8u64 {
                if diff & (1 << bit) != 0 {
                    let cell = i as u64 * 8 + bit;
                    let new_val = got & (1 << bit) != 0;
                    assert_eq!(new_val, chip.default_bit(cell), "flip away from default");
                }
            }
        }
    }

    #[test]
    fn discharged_cells_never_error() {
        let chip = DramChip::new(small_profile(), ChipId(4));
        // Data equal to the default pattern everywhere: nothing charged.
        let mut data = vec![0u8; chip.capacity_bytes()];
        for (i, byte) in data.iter_mut().enumerate() {
            for bit in 0..8u64 {
                if chip.default_bit(i as u64 * 8 + bit) {
                    *byte |= 1 << bit as u8;
                }
            }
        }
        let cond = Conditions::new(60.0, 1_000.0);
        assert!(chip.readback_errors(&data, &cond).is_empty());
    }

    #[test]
    fn same_trial_reproducible_different_trial_varies() {
        let chip = DramChip::new(small_profile(), ChipId(6));
        let data = chip.worst_case_pattern();
        let base = Conditions::new(40.0, 6.0);
        let e0 = chip.readback_errors(&data, &base.trial(0));
        let e0_again = chip.readback_errors(&data, &base.trial(0));
        assert_eq!(e0, e0_again);
        let e1 = chip.readback_errors(&data, &base.trial(1));
        // Mostly the same cells, but the noise should move at least one.
        assert_ne!(e0, e1, "trial noise had no effect");
        let common = e0.iter().filter(|c| e1.binary_search(c).is_ok()).count();
        assert!(
            common as f64 >= 0.9 * e0.len() as f64,
            "trials too dissimilar: {common}/{}",
            e0.len()
        );
    }

    #[test]
    fn errors_at_offset_are_offset_cells() {
        let chip = DramChip::new(small_profile(), ChipId(8));
        let cond = Conditions::new(40.0, 9.0);
        let data = chip.worst_case_pattern();
        let window = &data[16..48];
        let errs = chip.errors_at(16, window, &cond);
        for &c in &errs {
            assert!((128..384).contains(&c), "cell {c} outside window");
        }
        // The same cells must error whether read as part of the whole chip or
        // as an offset window.
        let full: Vec<u64> = chip
            .readback_errors(&data, &cond)
            .into_iter()
            .filter(|c| (128..384).contains(c))
            .collect();
        assert_eq!(errs, full);
    }

    #[test]
    #[should_panic(expected = "exceeds chip capacity")]
    fn oversized_buffer_rejected() {
        let chip = DramChip::new(small_profile(), ChipId(8));
        let data = vec![0u8; chip.capacity_bytes() + 1];
        chip.readback(&data, &Conditions::new(40.0, 1.0));
    }

    #[test]
    fn transient_upsets_occur_at_configured_rate() {
        let p = small_profile().with_transient_flip_rate(0.01);
        let chip = DramChip::new(p, ChipId(7));
        let n = chip.capacity_bits();
        let upsets = (0..n).filter(|&c| chip.transient_upset(c, 3)).count();
        let rate = upsets as f64 / n as f64;
        assert!((rate - 0.01).abs() < 0.005, "rate={rate}");
        // Different trials hit different cells.
        let upsets2: Vec<u64> = (0..n).filter(|&c| chip.transient_upset(c, 4)).collect();
        assert!(!upsets2.iter().all(|&c| chip.transient_upset(c, 3)));
    }

    #[test]
    fn zero_transient_rate_disables_upsets() {
        let p = small_profile().with_transient_flip_rate(0.0);
        let chip = DramChip::new(p, ChipId(7));
        assert!((0..chip.capacity_bits()).all(|c| !chip.transient_upset(c, 0)));
    }

    #[test]
    fn readback_at_roundtrips_bytes() {
        let chip = DramChip::new(small_profile(), ChipId(2));
        let data = chip.worst_case_pattern();
        let cond = Conditions::new(40.0, 6.0);
        let approx = chip.readback(&data, &cond);
        let errs = chip.readback_errors(&data, &cond);
        let flipped: usize = data
            .iter()
            .zip(&approx)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum();
        assert_eq!(flipped, errs.len());
    }
}
