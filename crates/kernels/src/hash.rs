//! The SplitMix64 finalizer: the one definition every hash-derived value in
//! the workspace goes through (`pc_stats` re-exports it for the simulator's
//! per-cell randomness; the MinHash kernels in [`crate::simd`] vectorize it).

/// SplitMix64 finalizer. Bijective on `u64`, passes BigCrush as the core of
/// SplitMix64; adequate for simulation (not cryptographic) use.
///
/// # Example
///
/// ```
/// let a = pc_kernels::mix64(1);
/// let b = pc_kernels::mix64(2);
/// assert_ne!(a, b);
/// assert_eq!(a, pc_kernels::mix64(1));
/// ```
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}
