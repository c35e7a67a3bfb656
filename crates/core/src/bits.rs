//! Error strings: sparse, validated sets of error bit positions.

use std::fmt;

/// Error constructing an [`ErrorString`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BitStringError {
    /// A bit position is at or beyond the declared size.
    OutOfRange {
        /// The offending bit position.
        bit: u64,
        /// The declared size in bits.
        size: u64,
    },
    /// The input positions were not strictly ascending.
    NotSorted,
    /// Two operands have different declared sizes.
    SizeMismatch {
        /// Left size in bits.
        left: u64,
        /// Right size in bits.
        right: u64,
    },
    /// A bit position is at or beyond [`ErrorString::MAX_BITS`], past what
    /// the packed form a database stores can address.
    Unaddressable {
        /// The offending bit position.
        bit: u64,
    },
}

impl fmt::Display for BitStringError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BitStringError::OutOfRange { bit, size } => {
                write!(f, "bit {bit} out of range for a {size}-bit string")
            }
            BitStringError::NotSorted => write!(f, "bit positions must be strictly ascending"),
            BitStringError::SizeMismatch { left, right } => {
                write!(f, "size mismatch: {left} bits vs {right} bits")
            }
            BitStringError::Unaddressable { bit } => {
                write!(f, "bit {bit} is beyond the 2^47-bit packed range")
            }
        }
    }
}

impl std::error::Error for BitStringError {}

/// The set of bit errors in an approximate output: the positions where
/// `approx XOR exact` is 1, over a declared bit-string size.
///
/// Error densities are ~1–10%, so the representation is sparse (sorted
/// positions); set operations are linear merges. The declared size makes
/// normalized metrics (Hamming distance per bit, densities) well-defined and
/// catches cross-device comparisons of different-sized strings at the
/// boundary.
///
/// # Example
///
/// ```
/// use probable_cause::ErrorString;
/// let a = ErrorString::from_sorted(vec![1, 5, 9], 16)?;
/// let b = ErrorString::from_sorted(vec![5, 9, 12], 16)?;
/// assert_eq!(a.intersect(&b)?.positions(), &[5, 9]);
/// assert_eq!(a.difference_count(&b), 1); // bit 1
/// # Ok::<(), probable_cause::BitStringError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ErrorString {
    bits: Vec<u64>,
    size: u64,
}

impl ErrorString {
    /// Every position lies below this bound: the packed form
    /// ([`pc_kernels::PackedErrors`]) addresses 2^32 blocks of
    /// [`pc_kernels::BLOCK_BITS`] bits, 2^47 bits (16 TiB) in all.
    pub const MAX_BITS: u64 = pc_kernels::BLOCK_BITS << 32;

    /// Creates an error string from strictly ascending bit positions.
    ///
    /// # Errors
    ///
    /// [`BitStringError::NotSorted`] if positions are not strictly ascending;
    /// [`BitStringError::OutOfRange`] if any position is `>= size`;
    /// [`BitStringError::Unaddressable`] if any is `>= MAX_BITS`.
    pub fn from_sorted(bits: Vec<u64>, size: u64) -> Result<Self, BitStringError> {
        check_last(&bits, size)?;
        if bits.windows(2).any(|w| w[0] >= w[1]) {
            return Err(BitStringError::NotSorted);
        }
        Ok(Self { bits, size })
    }

    /// Creates an error string from positions in any order (sorts and
    /// dedupes).
    ///
    /// # Errors
    ///
    /// [`BitStringError::OutOfRange`] if any position is `>= size`;
    /// [`BitStringError::Unaddressable`] if any is `>= MAX_BITS`.
    pub fn from_unsorted(mut bits: Vec<u64>, size: u64) -> Result<Self, BitStringError> {
        bits.sort_unstable();
        bits.dedup();
        // Sorting and deduping just established strict ascent; only the
        // range bounds still need checking.
        check_last(&bits, size)?;
        Ok(Self::from_sorted_unchecked(bits, size))
    }

    /// Constructs without validation. Callers must guarantee `bits` is
    /// strictly ascending with every position `< size`.
    fn from_sorted_unchecked(bits: Vec<u64>, size: u64) -> Self {
        debug_assert!(bits.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(bits.last().is_none_or(|&b| b < size));
        Self { bits, size }
    }

    /// Computes `approx XOR exact` — the paper's `MarkError` step — from two
    /// equal-length byte buffers (bit `k` is bit `k%8` of byte `k/8`).
    ///
    /// # Panics
    ///
    /// Panics if the buffers have different lengths, or hold more than
    /// [`ErrorString::MAX_BITS`] bits.
    pub fn from_xor(approx: &[u8], exact: &[u8]) -> Self {
        assert_eq!(approx.len(), exact.len(), "buffers must have equal length");
        assert!(
            approx.len() as u64 <= Self::MAX_BITS / 8,
            "buffers too large to pack"
        );
        // A popcount pass sizes the vector exactly, so the fill loop never
        // reallocates (outputs are megabytes; doubling-growth was measurable).
        let weight: usize = approx
            .iter()
            .zip(exact)
            .map(|(&a, &e)| (a ^ e).count_ones() as usize)
            .sum();
        let mut bits = Vec::with_capacity(weight);
        for (i, (&a, &e)) in approx.iter().zip(exact).enumerate() {
            let mut diff = a ^ e;
            while diff != 0 {
                let b = diff.trailing_zeros() as u64;
                bits.push(i as u64 * 8 + b);
                diff &= diff - 1;
            }
        }
        Self {
            bits,
            size: approx.len() as u64 * 8,
        }
    }

    /// Creates an error string over 32-bit page-relative positions (the form
    /// [`pc_os::PublishedOutput`] carries).
    ///
    /// # Errors
    ///
    /// Same as [`ErrorString::from_sorted`].
    pub fn from_page_bits(bits: &[u32], page_bits: u32) -> Result<Self, BitStringError> {
        Self::from_sorted(bits.iter().map(|&b| b as u64).collect(), page_bits as u64)
    }

    /// An empty error string of the given size.
    pub fn empty(size: u64) -> Self {
        Self {
            bits: Vec::new(),
            size,
        }
    }

    /// The declared size in bits.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Number of error bits (Hamming weight).
    pub fn weight(&self) -> u64 {
        self.bits.len() as u64
    }

    /// Whether there are no errors.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Error density: weight / size.
    pub fn density(&self) -> f64 {
        self.weight() as f64 / self.size as f64
    }

    /// The sorted error positions.
    pub fn positions(&self) -> &[u64] {
        &self.bits
    }

    /// Whether `bit` is an error.
    pub fn contains(&self, bit: u64) -> bool {
        self.bits.binary_search(&bit).is_ok()
    }

    /// Set intersection — the fingerprinting primitive of Algorithm 1.
    ///
    /// # Errors
    ///
    /// [`BitStringError::SizeMismatch`] if the sizes differ.
    pub fn intersect(&self, other: &ErrorString) -> Result<ErrorString, BitStringError> {
        self.check_size(other)?;
        Ok(ErrorString {
            bits: merge_intersect(&self.bits, &other.bits),
            size: self.size,
        })
    }

    /// Set union.
    ///
    /// # Errors
    ///
    /// [`BitStringError::SizeMismatch`] if the sizes differ.
    pub fn union(&self, other: &ErrorString) -> Result<ErrorString, BitStringError> {
        self.check_size(other)?;
        let mut bits = Vec::with_capacity(self.bits.len() + other.bits.len());
        let (mut i, mut j) = (0, 0);
        while i < self.bits.len() && j < other.bits.len() {
            match self.bits[i].cmp(&other.bits[j]) {
                std::cmp::Ordering::Less => {
                    bits.push(self.bits[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    bits.push(other.bits[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    bits.push(self.bits[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        bits.extend_from_slice(&self.bits[i..]);
        bits.extend_from_slice(&other.bits[j..]);
        Ok(ErrorString {
            bits,
            size: self.size,
        })
    }

    /// Number of bits set in `self` but absent from `other` — the counting
    /// loop of Algorithm 3. Sizes are *not* required to match here because
    /// the metric's normalization handles that; callers compare strings of
    /// equal size in practice.
    pub fn difference_count(&self, other: &ErrorString) -> u64 {
        let mut count = 0;
        let mut j = 0;
        for &b in &self.bits {
            while j < other.bits.len() && other.bits[j] < b {
                j += 1;
            }
            if j >= other.bits.len() || other.bits[j] != b {
                count += 1;
            }
        }
        count
    }

    /// Size of the intersection without materializing it.
    pub fn intersection_count(&self, other: &ErrorString) -> u64 {
        self.weight() - self.difference_count(other)
    }

    /// Size of the symmetric difference `|self Δ other|` in a single merge
    /// pass (the Hamming-distance numerator; two directed
    /// [`ErrorString::difference_count`] passes walk both strings twice for
    /// the same number).
    pub fn symmetric_difference_count(&self, other: &ErrorString) -> u64 {
        let (a, b) = (&self.bits, &other.bits);
        let (mut i, mut j) = (0, 0);
        let mut shared = 0u64;
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    shared += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        self.weight() + other.weight() - 2 * shared
    }

    /// Packs this string into the hybrid sparse/dense block representation
    /// the [`pc_kernels`] scoring kernels operate on.
    pub fn to_packed(&self) -> pc_kernels::PackedErrors {
        pc_kernels::PackedErrors::from_positions(&self.bits, self.size)
    }

    /// The error string `packed` was packed from:
    /// `ErrorString::from_packed(&s.to_packed()) == s` for every `s`, since
    /// every constructor keeps positions below [`ErrorString::MAX_BITS`].
    pub fn from_packed(packed: &pc_kernels::PackedErrors) -> Self {
        // A packed string keeps its size and yields ascending in-range bits.
        Self::from_sorted_unchecked(packed.positions(), packed.size())
    }

    /// Returns a copy restricted to positions in `[lo, hi)`, rebased to start
    /// at 0 with size `hi - lo` (used to slice chip-level strings into
    /// page-level ones).
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or `hi > size`.
    pub fn slice(&self, lo: u64, hi: u64) -> ErrorString {
        assert!(lo < hi && hi <= self.size, "bad slice [{lo}, {hi})");
        let start = self.bits.partition_point(|&b| b < lo);
        let end = self.bits.partition_point(|&b| b < hi);
        ErrorString {
            bits: self.bits[start..end].iter().map(|&b| b - lo).collect(),
            size: hi - lo,
        }
    }

    /// Splits a buffer-level error string into page-level error strings of
    /// `page_bits` bits each (the final partial page, if any, is padded to a
    /// full page's size).
    ///
    /// # Panics
    ///
    /// Panics if `page_bits` is zero.
    pub fn split_pages(&self, page_bits: u64) -> Vec<ErrorString> {
        assert!(page_bits > 0, "page size must be positive");
        let pages = self.size.div_ceil(page_bits);
        (0..pages)
            .map(|p| {
                let lo = p * page_bits;
                let hi = (lo + page_bits).min(self.size);
                let mut page = self.slice(lo, hi);
                page.size = page_bits;
                page
            })
            .collect()
    }

    fn check_size(&self, other: &ErrorString) -> Result<(), BitStringError> {
        if self.size == other.size {
            Ok(())
        } else {
            Err(BitStringError::SizeMismatch {
                left: self.size,
                right: other.size,
            })
        }
    }
}

/// Checks the last (largest) of ascending `bits` against `size` and
/// [`ErrorString::MAX_BITS`].
fn check_last(bits: &[u64], size: u64) -> Result<(), BitStringError> {
    match bits.last() {
        Some(&bit) if bit >= size => Err(BitStringError::OutOfRange { bit, size }),
        Some(&bit) if bit >= ErrorString::MAX_BITS => Err(BitStringError::Unaddressable { bit }),
        _ => Ok(()),
    }
}

fn merge_intersect(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn es(bits: &[u64], size: u64) -> ErrorString {
        ErrorString::from_sorted(bits.to_vec(), size).unwrap()
    }

    #[test]
    fn from_sorted_validates() {
        assert!(ErrorString::from_sorted(vec![3, 3], 8).is_err());
        assert!(ErrorString::from_sorted(vec![5, 2], 8).is_err());
        assert!(matches!(
            ErrorString::from_sorted(vec![8], 8),
            Err(BitStringError::OutOfRange { bit: 8, size: 8 })
        ));
        assert!(ErrorString::from_sorted(vec![], 8).is_ok());
    }

    #[test]
    fn from_unsorted_sorts_and_dedupes() {
        let s = ErrorString::from_unsorted(vec![7, 2, 2, 5], 8).unwrap();
        assert_eq!(s.positions(), &[2, 5, 7]);
    }

    #[test]
    fn from_xor_finds_flipped_bits() {
        let exact = [0b0000_0000u8, 0b1111_1111];
        let approx = [0b0000_0101u8, 0b0111_1111];
        let s = ErrorString::from_xor(&approx, &exact);
        assert_eq!(s.positions(), &[0, 2, 15]);
        assert_eq!(s.size(), 16);
    }

    #[test]
    fn xor_of_identical_is_empty() {
        let data = [1u8, 2, 3];
        let s = ErrorString::from_xor(&data, &data);
        assert!(s.is_empty());
        assert_eq!(s.density(), 0.0);
    }

    #[test]
    fn intersect_and_union() {
        let a = es(&[1, 3, 5, 7], 16);
        let b = es(&[3, 4, 7, 9], 16);
        assert_eq!(a.intersect(&b).unwrap().positions(), &[3, 7]);
        assert_eq!(a.union(&b).unwrap().positions(), &[1, 3, 4, 5, 7, 9]);
    }

    #[test]
    fn intersect_rejects_size_mismatch() {
        let a = es(&[1], 8);
        let b = es(&[1], 16);
        assert!(matches!(
            a.intersect(&b),
            Err(BitStringError::SizeMismatch { left: 8, right: 16 })
        ));
    }

    #[test]
    fn difference_and_intersection_counts() {
        let a = es(&[1, 3, 5, 7], 16);
        let b = es(&[3, 7, 9], 16);
        assert_eq!(a.difference_count(&b), 2);
        assert_eq!(b.difference_count(&a), 1);
        assert_eq!(a.intersection_count(&b), 2);
    }

    #[test]
    fn inclusion_exclusion_holds() {
        let a = es(&[0, 2, 8, 9, 14], 16);
        let b = es(&[2, 3, 9, 11], 16);
        let u = a.union(&b).unwrap().weight();
        let i = a.intersect(&b).unwrap().weight();
        assert_eq!(u + i, a.weight() + b.weight());
    }

    #[test]
    fn slice_rebases() {
        let a = es(&[1, 9, 10, 17], 24);
        let s = a.slice(8, 16);
        assert_eq!(s.positions(), &[1, 2]);
        assert_eq!(s.size(), 8);
    }

    #[test]
    fn split_pages_partitions_positions() {
        let a = es(&[0, 7, 8, 15, 16, 21], 24);
        let pages = a.split_pages(8);
        assert_eq!(pages.len(), 3);
        assert_eq!(pages[0].positions(), &[0, 7]);
        assert_eq!(pages[1].positions(), &[0, 7]);
        assert_eq!(pages[2].positions(), &[0, 5]);
        assert!(pages.iter().all(|p| p.size() == 8));
    }

    #[test]
    fn split_pages_pads_final_partial_page() {
        let a = es(&[9], 10);
        let pages = a.split_pages(8);
        assert_eq!(pages.len(), 2);
        assert_eq!(pages[1].positions(), &[1]);
        assert_eq!(pages[1].size(), 8);
    }

    #[test]
    fn contains_uses_binary_search() {
        let a = es(&[4, 8, 100], 128);
        assert!(a.contains(8));
        assert!(!a.contains(9));
    }

    #[test]
    fn from_page_bits_converts() {
        let s = ErrorString::from_page_bits(&[0, 31], 32).unwrap();
        assert_eq!(s.positions(), &[0, 31]);
        assert_eq!(s.size(), 32);
    }

    #[test]
    #[should_panic(expected = "bad slice")]
    fn slice_bounds_checked() {
        es(&[1], 8).slice(4, 4);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn xor_length_checked() {
        ErrorString::from_xor(&[0], &[0, 0]);
    }
}
