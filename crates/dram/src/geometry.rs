//! Chip geometry: rows, row width, and the default-value striping.

/// Physical layout of a DRAM chip.
///
/// All DRAM operations (refresh in particular) have row granularity (paper
/// §2, Fig. 2), and the *default value* — the logical value a discharged cell
/// reads as — is shared within a row and "alternates every few rows".
///
/// # Example
///
/// ```
/// use pc_dram::ChipGeometry;
/// // The paper's KM41464A: 64K 4-bit words as 256 rows x 256 cols x 4 bits.
/// let g = ChipGeometry::new(256, 1024, 2);
/// assert_eq!(g.capacity_bits(), 262_144); // 32 KB
/// assert_eq!(g.row_of(1024), 1);
/// // Stripe of 2: rows 0,1 default to 0; rows 2,3 default to 1; ...
/// assert!(!g.default_bit(0));
/// assert!(g.default_bit(2 * 1024));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChipGeometry {
    rows: u32,
    bits_per_row: u32,
    default_stripe_rows: u32,
}

impl ChipGeometry {
    /// Creates a geometry with `rows` rows of `bits_per_row` bits, where the
    /// row default value alternates every `default_stripe_rows` rows.
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero.
    pub fn new(rows: u32, bits_per_row: u32, default_stripe_rows: u32) -> Self {
        assert!(rows > 0, "rows must be positive");
        assert!(bits_per_row > 0, "bits_per_row must be positive");
        assert!(
            default_stripe_rows > 0,
            "default_stripe_rows must be positive"
        );
        Self {
            rows,
            bits_per_row,
            default_stripe_rows,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Bits per row.
    pub fn bits_per_row(&self) -> u32 {
        self.bits_per_row
    }

    /// Rows per default-value stripe.
    pub fn default_stripe_rows(&self) -> u32 {
        self.default_stripe_rows
    }

    /// Total cell count.
    pub fn capacity_bits(&self) -> u64 {
        self.rows as u64 * self.bits_per_row as u64
    }

    /// Total capacity in whole bytes.
    pub fn capacity_bytes(&self) -> usize {
        (self.capacity_bits() / 8) as usize
    }

    /// Row containing cell index `cell`.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    pub fn row_of(&self, cell: u64) -> u32 {
        assert!(cell < self.capacity_bits(), "cell {cell} out of range");
        (cell / self.bits_per_row as u64) as u32
    }

    /// Column (bit position within the row) of cell index `cell`.
    pub fn col_of(&self, cell: u64) -> u32 {
        assert!(cell < self.capacity_bits(), "cell {cell} out of range");
        (cell % self.bits_per_row as u64) as u32
    }

    /// The logical value a discharged cell at `cell` reads as.
    ///
    /// Rows `[0, stripe)` default to 0, `[stripe, 2*stripe)` default to 1,
    /// and so on.
    pub fn default_bit(&self, cell: u64) -> bool {
        (self.row_of(cell) / self.default_stripe_rows) % 2 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_and_addressing() {
        let g = ChipGeometry::new(4, 16, 1);
        assert_eq!(g.capacity_bits(), 64);
        assert_eq!(g.capacity_bytes(), 8);
        assert_eq!(g.row_of(0), 0);
        assert_eq!(g.row_of(15), 0);
        assert_eq!(g.row_of(16), 1);
        assert_eq!(g.col_of(17), 1);
    }

    #[test]
    fn default_striping_alternates() {
        let g = ChipGeometry::new(8, 4, 2);
        // rows 0,1 -> 0; rows 2,3 -> 1; rows 4,5 -> 0; rows 6,7 -> 1
        assert!(!g.default_bit(0)); // row 0
        assert!(!g.default_bit(7)); // row 1
        assert!(g.default_bit(8)); // row 2
        assert!(g.default_bit(15)); // row 3
        assert!(!g.default_bit(16)); // row 4
        assert!(g.default_bit(27)); // row 6
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn row_of_rejects_out_of_range() {
        ChipGeometry::new(2, 4, 1).row_of(8);
    }

    #[test]
    #[should_panic(expected = "rows must be positive")]
    fn zero_rows_rejected() {
        ChipGeometry::new(0, 4, 1);
    }
}
