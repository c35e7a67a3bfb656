//! Explicit SIMD for the dense-block intersect kernels.
//!
//! Popcount: three tiers, all bit-for-bit equal (the differential proptests
//! in `crates/core/tests/kernels_differential.rs` and the bench's
//! `simd_matches_scalar` gate hold them to that):
//!
//! 1. **AVX2 + POPCNT** (`x86_64`, runtime-detected once): 256-bit loads and
//!    ANDs, with the horizontal population count done by four hardware
//!    `popcnt`s per vector. Baseline `x86-64` codegen lowers
//!    `u64::count_ones` to a ~12-op SWAR sequence; inside a
//!    `#[target_feature(enable = "popcnt")]` function it is one instruction,
//!    which is where most of the win comes from.
//! 2. **Portable 4-way chunking** (`u64x4`-style): independent accumulators
//!    over 4-word chunks, breaking the single-accumulator dependency chain
//!    so the scalar units (or LLVM's autovectorizer) can overlap iterations.
//! 3. The plain zip (what `packed.rs` shipped before), as the reference the
//!    tests compare against.
//!
//! The one `unsafe` here is the call into the `#[target_feature]` function,
//! guarded by `is_x86_feature_detected!` (see SAFETY; lint U003 pins
//! `unsafe` to this module and `pool.rs`). Popcounts are integer ops — no
//! floating point, so "bit-for-bit" is exact equality, not tolerance.

/// Which popcount tier [`and_popcount`] dispatches to on this machine,
/// `"avx2+popcnt"` or `"portable-u64x4"` — recorded in bench output and
/// run manifests so regressions are attributable.
pub fn backend() -> &'static str {
    if popcount_avx2_detected() {
        "avx2+popcnt"
    } else {
        "portable-u64x4"
    }
}

fn popcount_avx2_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("popcnt")
    }
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// `Σ popcount(a[i] & b[i])` over the common prefix of `a` and `b` — the
/// dense∩dense and dense∩view kernel. Dispatches once per call on the
/// cached CPUID result; every tier returns identical counts.
#[inline]
pub fn and_popcount(a: &[u64], b: &[u64]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        if popcount_avx2_detected() {
            // SAFETY: the `avx2` and `popcnt` CPU features were just
            // runtime-detected, which is the only precondition of the
            // `#[target_feature]` function.
            return unsafe { x86::and_popcount_avx2(a, b) };
        }
    }
    and_popcount_portable(a, b)
}

/// Sparse-offsets-versus-dense-words probe test: counts how many `offs` land
/// on set bits of `words` (offsets are masked to the block, matching the
/// scalar loop in `packed.rs`). Four independent accumulators break the
/// load→test→add dependency chain of the naive loop.
#[inline]
pub fn sparse_bit_test(offs: &[u16], words: &[u64]) -> u64 {
    let mask = words.len() - 1;
    let mut chunks = offs.chunks_exact(4);
    let (mut c0, mut c1, mut c2, mut c3) = (0u64, 0u64, 0u64, 0u64);
    for q in &mut chunks {
        c0 += bit_at(words, q[0], mask);
        c1 += bit_at(words, q[1], mask);
        c2 += bit_at(words, q[2], mask);
        c3 += bit_at(words, q[3], mask);
    }
    let mut rest = 0u64;
    for &off in chunks.remainder() {
        rest += bit_at(words, off, mask);
    }
    c0 + c1 + c2 + c3 + rest
}

#[inline(always)]
fn bit_at(words: &[u64], off: u16, mask: usize) -> u64 {
    (words[usize::from(off >> 6) & mask] >> (off & 63)) & 1
}

/// The portable tier: 4-wide chunks with independent accumulators.
#[inline]
pub fn and_popcount_portable(a: &[u64], b: &[u64]) -> u64 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut ac = a.chunks_exact(4);
    let mut bc = b.chunks_exact(4);
    let (mut c0, mut c1, mut c2, mut c3) = (0u64, 0u64, 0u64, 0u64);
    for (x, y) in (&mut ac).zip(&mut bc) {
        c0 += (x[0] & y[0]).count_ones() as u64;
        c1 += (x[1] & y[1]).count_ones() as u64;
        c2 += (x[2] & y[2]).count_ones() as u64;
        c3 += (x[3] & y[3]).count_ones() as u64;
    }
    let mut rest = 0u64;
    for (x, y) in ac.remainder().iter().zip(bc.remainder()) {
        rest += (x & y).count_ones() as u64;
    }
    c0 + c1 + c2 + c3 + rest
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::{__m256i, _mm256_and_si256, _mm256_loadu_si256};

    /// AVX2 AND + hardware POPCNT tier. Must only be called when the
    /// `avx2` and `popcnt` CPU features are present (checked by the caller).
    #[target_feature(enable = "avx2,popcnt")]
    pub fn and_popcount_avx2(a: &[u64], b: &[u64]) -> u64 {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let mut total = 0u64;
        let mut i = 0usize;
        let mut lanes = [0u64; 4];
        while i + 4 <= n {
            // SAFETY: `i + 4 <= n` bounds both 32-byte unaligned loads
            // inside the slices; `loadu` has no alignment requirement.
            let v = unsafe {
                let x = _mm256_loadu_si256(a.as_ptr().add(i).cast::<__m256i>());
                let y = _mm256_loadu_si256(b.as_ptr().add(i).cast::<__m256i>());
                _mm256_and_si256(x, y)
            };
            // SAFETY: `lanes` is 32 bytes, exactly one `__m256i` store.
            unsafe {
                core::ptr::write_unaligned(lanes.as_mut_ptr().cast::<__m256i>(), v);
            }
            // In this target_feature context each count_ones is one POPCNT.
            total += lanes[0].count_ones() as u64
                + lanes[1].count_ones() as u64
                + lanes[2].count_ones() as u64
                + lanes[3].count_ones() as u64;
            i += 4;
        }
        while i < n {
            total += (a[i] & b[i]).count_ones() as u64;
            i += 1;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(a: &[u64], b: &[u64]) -> u64 {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| u64::from((x & y).count_ones()))
            .sum()
    }

    fn words(seed: u64, n: usize) -> Vec<u64> {
        // splitmix64: deterministic, seedable, no external RNG.
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            })
            .collect()
    }

    #[test]
    fn all_tiers_agree_with_reference() {
        for n in [0usize, 1, 3, 4, 5, 7, 8, 63, 64, 511, 512, 513] {
            let a = words(0xa11ce ^ n as u64, n);
            let b = words(0xb0b ^ n as u64, n);
            let want = reference(&a, &b);
            assert_eq!(and_popcount_portable(&a, &b), want, "portable n={n}");
            assert_eq!(and_popcount(&a, &b), want, "dispatch n={n}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_tier_agrees_when_available() {
        if !std::arch::is_x86_feature_detected!("avx2")
            || !std::arch::is_x86_feature_detected!("popcnt")
        {
            return;
        }
        for n in [0usize, 1, 4, 5, 500, 512, 515] {
            let a = words(7 + n as u64, n);
            let b = words(13 + n as u64, n);
            // SAFETY: features detected above.
            let got = unsafe { x86::and_popcount_avx2(&a, &b) };
            assert_eq!(got, reference(&a, &b), "avx2 n={n}");
        }
    }

    #[test]
    fn mismatched_lengths_use_common_prefix() {
        let a = words(1, 512);
        let b = words(2, 500);
        assert_eq!(and_popcount(&a, &b), reference(&a[..500], &b));
        assert_eq!(and_popcount(&b, &a), reference(&b, &a[..500]));
    }

    #[test]
    fn sparse_bit_test_matches_naive() {
        let w = words(99, 512);
        let offs: Vec<u16> = (0..999u32).map(|i| (i * 37 % 32_768) as u16).collect();
        for take in [0usize, 1, 2, 3, 4, 5, 328, 999] {
            let offs = &offs[..take];
            let naive: u64 = offs
                .iter()
                .map(|&off| (w[usize::from(off >> 6) & 511] >> (off & 63)) & 1)
                .sum();
            assert_eq!(sparse_bit_test(offs, &w), naive, "take={take}");
        }
    }

    #[test]
    fn backend_reports_a_known_tier() {
        assert!(["avx2+popcnt", "portable-u64x4"].contains(&backend()));
    }
}
