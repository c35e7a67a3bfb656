//! Deterministic hash-based randomness.
//!
//! [`mix64`] is the SplitMix64 finalizer: a cheap, high-quality bijective
//! mixer on `u64`. [`CellHasher`] turns `(seed, index)` pairs into independent
//! uniform values — the backbone of the lazily evaluated DRAM retention map.
//! [`StreamRng`] is a small counter-based RNG implementing [`rand::RngCore`]
//! for places that want an ordinary `Rng` seeded from a hash.

use std::convert::Infallible;

use rand::TryRng;

/// SplitMix64 finalizer. Bijective on `u64`, passes BigCrush as the core of
/// SplitMix64; adequate for simulation (not cryptographic) use.
///
/// # Example
///
/// ```
/// let a = pc_stats::mix64(1);
/// let b = pc_stats::mix64(2);
/// assert_ne!(a, b);
/// assert_eq!(a, pc_stats::mix64(1));
/// ```
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministic per-index uniform generator: a keyed hash from `u64` indices
/// to `u64` words / unit-interval floats.
///
/// Two hashers with the same seed agree everywhere; hashers with different
/// seeds are effectively independent. This is how the simulator derives
/// manufacturing variation that is "locked in" per chip (paper §1, §2): the
/// chip's serial number seeds the hasher and the cell index selects the draw.
///
/// # Example
///
/// ```
/// use pc_stats::CellHasher;
/// let chip_a = CellHasher::new(1);
/// let chip_b = CellHasher::new(2);
/// assert_eq!(chip_a.word(9), chip_a.word(9));
/// assert_ne!(chip_a.word(9), chip_b.word(9));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellHasher {
    seed: u64,
}

impl CellHasher {
    /// Creates a hasher keyed by `seed`.
    pub fn new(seed: u64) -> Self {
        // Pre-mix the seed so that consecutive small seeds (chip 0, 1, 2, ...)
        // land far apart in the key space.
        Self { seed: mix64(seed) }
    }

    /// Returns the seed the hasher was keyed with (post-mixing).
    pub fn key(&self) -> u64 {
        self.seed
    }

    /// Deterministic uniform `u64` for `index`.
    #[inline]
    pub fn word(&self, index: u64) -> u64 {
        mix64(self.seed ^ mix64(index ^ 0xA076_1D64_78BD_642F))
    }

    /// Deterministic uniform `u64` for a two-dimensional index.
    #[inline]
    pub fn word2(&self, a: u64, b: u64) -> u64 {
        mix64(self.word(a) ^ mix64(b ^ 0xE703_7ED1_A0B4_28DB))
    }

    /// Deterministic uniform value in the open interval `(0, 1)` for `index`.
    ///
    /// The end points are excluded so the value can be passed to a quantile
    /// function without producing infinities.
    #[inline]
    pub fn uniform(&self, index: u64) -> f64 {
        word_to_open_unit(self.word(index))
    }

    /// Deterministic uniform value in `(0, 1)` for a two-dimensional index.
    #[inline]
    pub fn uniform2(&self, a: u64, b: u64) -> f64 {
        word_to_open_unit(self.word2(a, b))
    }

    /// Derives a sub-hasher: a new independent hasher keyed by `(self, tag)`.
    ///
    /// Useful for carving independent random planes out of one chip seed
    /// (e.g. the capacitance plane vs. the leakage plane).
    pub fn derive(&self, tag: u64) -> CellHasher {
        CellHasher {
            seed: mix64(self.seed ^ mix64(tag ^ 0x2545_F491_4F6C_DD1D)),
        }
    }
}

/// Maps a uniform `u64` to the open unit interval `(0, 1)`.
///
/// Uses the top 53 bits and offsets by half a ULP so that 0.0 and 1.0 are
/// never produced.
#[inline]
fn word_to_open_unit(w: u64) -> f64 {
    ((w >> 11) as f64 + 0.5) * (1.0 / 9_007_199_254_740_992.0)
}

/// A small counter-based RNG built on [`mix64`], implementing
/// [`rand::Rng`].
///
/// Deterministic given its seed, cheap to construct, and position-addressable;
/// used to seed per-experiment randomness where an ordinary `Rng` interface is
/// convenient.
///
/// # Example
///
/// ```
/// use rand::RngExt;
/// let mut rng = pc_stats::StreamRng::new(7);
/// let x: f64 = rng.random();
/// assert!((0.0..1.0).contains(&x));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamRng {
    key: u64,
    counter: u64,
}

impl StreamRng {
    /// Creates a stream RNG keyed by `seed`, starting at position 0.
    pub fn new(seed: u64) -> Self {
        Self {
            key: mix64(seed),
            counter: 0,
        }
    }

    /// Creates a stream RNG at an explicit position, allowing two parties to
    /// reproduce the same subsequence.
    pub fn at(seed: u64, counter: u64) -> Self {
        Self {
            key: mix64(seed),
            counter,
        }
    }

    /// Current stream position (number of `u64`s consumed).
    pub fn position(&self) -> u64 {
        self.counter
    }
}

impl StreamRng {
    #[inline]
    fn step(&mut self) -> u64 {
        let w = mix64(self.key ^ mix64(self.counter));
        self.counter = self.counter.wrapping_add(1);
        w
    }
}

// `rand::Rng` is blanket-implemented for every infallible `TryRng`.
impl TryRng for StreamRng {
    type Error = Infallible;

    #[inline]
    fn try_next_u32(&mut self) -> Result<u32, Infallible> {
        Ok((self.step() >> 32) as u32)
    }

    #[inline]
    fn try_next_u64(&mut self) -> Result<u64, Infallible> {
        Ok(self.step())
    }

    fn try_fill_bytes(&mut self, dst: &mut [u8]) -> Result<(), Infallible> {
        let mut chunks = dst.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.step().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let w = self.step().to_le_bytes();
            rem.copy_from_slice(&w[..rem.len()]);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    // `next_u64`/`fill_bytes` live on `RngCore`; importing only the `Rng`
    // marker does not bring supertrait methods into scope.
    use rand::{RngCore, RngExt};

    #[test]
    fn mix64_is_deterministic_and_spreads() {
        assert_eq!(mix64(0), mix64(0));
        // Consecutive inputs should differ in many bits.
        let d = (mix64(1) ^ mix64(2)).count_ones();
        assert!(d > 10, "poor diffusion: {d} differing bits");
    }

    #[test]
    fn cell_hasher_deterministic() {
        let h = CellHasher::new(99);
        for i in 0..100 {
            assert_eq!(h.word(i), h.word(i));
            assert_eq!(h.uniform(i), h.uniform(i));
        }
    }

    #[test]
    fn cell_hasher_seeds_independent() {
        let a = CellHasher::new(1);
        let b = CellHasher::new(2);
        let same = (0..1000).filter(|&i| a.word(i) == b.word(i)).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn uniform_in_open_interval() {
        let h = CellHasher::new(3);
        for i in 0..10_000 {
            let u = h.uniform(i);
            assert!(u > 0.0 && u < 1.0, "u={u} out of (0,1)");
        }
    }

    #[test]
    fn uniform_mean_near_half() {
        let h = CellHasher::new(4);
        let n = 100_000u64;
        let mean = (0..n).map(|i| h.uniform(i)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean={mean}");
    }

    #[test]
    fn word2_differs_from_word() {
        let h = CellHasher::new(5);
        assert_ne!(
            h.word2(1, 2),
            h.word2(2, 1),
            "word2 should not be symmetric"
        );
        assert_ne!(h.word2(1, 0), h.word(1));
    }

    #[test]
    fn derive_produces_independent_plane() {
        let h = CellHasher::new(6);
        let d = h.derive(1);
        let same = (0..1000).filter(|&i| h.word(i) == d.word(i)).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn stream_rng_reproducible_and_positional() {
        let mut a = StreamRng::new(11);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let mut b = StreamRng::new(11);
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);

        let mut c = StreamRng::at(11, 4);
        assert_eq!(c.next_u64(), xs[4]);
    }

    #[test]
    fn stream_rng_fill_bytes_matches_words() {
        let mut a = StreamRng::new(12);
        let mut buf = [0u8; 20];
        a.fill_bytes(&mut buf);
        let mut b = StreamRng::new(12);
        assert_eq!(&buf[0..8], &b.next_u64().to_le_bytes());
        assert_eq!(&buf[8..16], &b.next_u64().to_le_bytes());
        assert_eq!(&buf[16..20], &b.next_u64().to_le_bytes()[..4]);
    }

    #[test]
    fn stream_rng_supports_rand_traits() {
        let mut rng = StreamRng::new(13);
        let v: u32 = rng.random_range(0..10);
        assert!(v < 10);
    }
}
