//! Multi-chip banks: a flat address space over several chips.

use crate::{ChipId, ChipProfile, Conditions, DramChip, MaskId};

/// A bank of identical-profile DRAM chips presenting one flat byte-addressable
/// space, the way a DIMM presents several devices as one memory.
///
/// Cell `i` lives in chip `i / chip_capacity`. Buffers may span chips.
///
/// # Example
///
/// ```
/// use pc_dram::{ChipProfile, Conditions, DramBank};
///
/// let bank = DramBank::new(ChipProfile::km41464a(), 4, 100);
/// assert_eq!(bank.capacity_bytes(), 4 * 32 * 1024);
/// let cond = Conditions::new(40.0, 6.0);
/// let errs = bank.errors_at(0, &vec![0xFF; 64], &cond);
/// assert!(errs.iter().all(|&c| c < 64 * 8));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DramBank {
    chips: Vec<DramChip>,
}

impl DramBank {
    /// Builds a bank of `count` chips of the given profile; chip serials are
    /// `serial_base, serial_base + 1, ...` on the default mask.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn new(profile: ChipProfile, count: usize, serial_base: u64) -> Self {
        assert!(count > 0, "bank needs at least one chip");
        let chips = (0..count as u64)
            .map(|i| DramChip::with_mask(profile.clone(), ChipId(serial_base + i), MaskId(0)))
            .collect();
        Self { chips }
    }

    /// Builds a bank from explicitly constructed chips.
    ///
    /// # Panics
    ///
    /// Panics if `chips` is empty or the chips have differing capacities.
    pub fn from_chips(chips: Vec<DramChip>) -> Self {
        assert!(!chips.is_empty(), "bank needs at least one chip");
        let cap = chips[0].capacity_bits();
        assert!(
            chips.iter().all(|c| c.capacity_bits() == cap),
            "all chips in a bank must share a capacity"
        );
        Self { chips }
    }

    /// The chips in address order.
    pub fn chips(&self) -> &[DramChip] {
        &self.chips
    }

    /// Capacity of one chip in bits.
    pub fn chip_capacity_bits(&self) -> u64 {
        self.chips[0].capacity_bits()
    }

    /// Total capacity in bits.
    pub fn capacity_bits(&self) -> u64 {
        self.chip_capacity_bits() * self.chips.len() as u64
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        (self.capacity_bits() / 8) as usize
    }

    /// Which chip serves global cell index `cell`, and the chip-local index.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    pub fn locate(&self, cell: u64) -> (&DramChip, u64) {
        assert!(cell < self.capacity_bits(), "cell {cell} out of range");
        let per = self.chip_capacity_bits();
        (&self.chips[(cell / per) as usize], cell % per)
    }

    /// Error cell indices (global, sorted) for `data` stored at byte offset
    /// `offset_bytes` under `cond`.
    ///
    /// # Panics
    ///
    /// Panics if the buffer does not fit at that offset.
    pub fn errors_at(&self, offset_bytes: usize, data: &[u8], cond: &Conditions) -> Vec<u64> {
        let start_bit = offset_bytes as u64 * 8;
        assert!(
            start_bit + data.len() as u64 * 8 <= self.capacity_bits(),
            "buffer exceeds bank capacity"
        );
        let per_bytes = (self.chip_capacity_bits() / 8) as usize;
        let mut errors = Vec::new();
        let mut cursor = 0usize; // byte position inside `data`
        while cursor < data.len() {
            let global_byte = offset_bytes + cursor;
            let chip_idx = global_byte / per_bytes;
            let chip_off = global_byte % per_bytes;
            let take = (per_bytes - chip_off).min(data.len() - cursor);
            let chip = &self.chips[chip_idx];
            for cell in chip.errors_at(chip_off, &data[cursor..cursor + take], cond) {
                errors.push(chip_idx as u64 * self.chip_capacity_bits() + cell);
            }
            cursor += take;
        }
        errors
    }

    /// Reads `data` back from byte offset `offset_bytes` with decay applied.
    pub fn readback_at(&self, offset_bytes: usize, data: &[u8], cond: &Conditions) -> Vec<u8> {
        let mut out = data.to_vec();
        for cell in self.errors_at(offset_bytes, data, cond) {
            let local = cell - offset_bytes as u64 * 8;
            out[(local / 8) as usize] ^= 1 << (local % 8);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChipGeometry;

    fn small_bank() -> DramBank {
        let p = ChipProfile::km41464a().with_geometry(ChipGeometry::new(16, 128, 2));
        DramBank::new(p, 3, 1000)
    }

    #[test]
    fn capacity_sums_chips() {
        let b = small_bank();
        assert_eq!(b.capacity_bits(), 3 * 16 * 128);
        assert_eq!(b.capacity_bytes(), 3 * 16 * 128 / 8);
    }

    #[test]
    fn locate_maps_global_to_local() {
        let b = small_bank();
        let per = b.chip_capacity_bits();
        let (chip, local) = b.locate(per + 5);
        assert_eq!(chip.id(), ChipId(1001));
        assert_eq!(local, 5);
    }

    #[test]
    fn spanning_buffer_matches_per_chip_queries() {
        let b = small_bank();
        let cond = Conditions::new(40.0, 8.0);
        let per_bytes = (b.chip_capacity_bits() / 8) as usize;
        // A buffer straddling chips 0 and 1, charged everywhere.
        let offset = per_bytes - 8;
        let data = vec![0xAAu8; 16]; // arbitrary mixed pattern
        let errs = b.errors_at(offset, &data, &cond);
        // Recompute from each chip directly.
        let chip0 = &b.chips()[0];
        let chip1 = &b.chips()[1];
        let mut want: Vec<u64> = chip0
            .errors_at(offset, &data[..8], &cond)
            .into_iter()
            .collect();
        want.extend(
            chip1
                .errors_at(0, &data[8..], &cond)
                .into_iter()
                .map(|c| b.chip_capacity_bits() + c),
        );
        assert_eq!(errs, want);
    }

    #[test]
    fn different_serials_give_different_chips() {
        let b = small_bank();
        let cond = Conditions::new(40.0, 8.0);
        let data = vec![0xFFu8; 128];
        let e0 = b.chips()[0].readback_errors(&data, &cond);
        let e1 = b.chips()[1].readback_errors(&data, &cond);
        assert_ne!(e0, e1);
    }

    #[test]
    #[should_panic(expected = "exceeds bank capacity")]
    fn oversized_rejected() {
        let b = small_bank();
        let data = vec![0u8; b.capacity_bytes() + 1];
        b.errors_at(0, &data, &Conditions::new(40.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "share a capacity")]
    fn mismatched_chips_rejected() {
        let a = DramChip::new(
            ChipProfile::km41464a().with_geometry(ChipGeometry::new(16, 128, 2)),
            ChipId(1),
        );
        let b = DramChip::new(
            ChipProfile::km41464a().with_geometry(ChipGeometry::new(32, 128, 2)),
            ChipId(2),
        );
        DramBank::from_chips(vec![a, b]);
    }
}
