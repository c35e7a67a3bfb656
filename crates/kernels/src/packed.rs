//! The hybrid sparse/dense packed representation and its count kernels.
//!
//! The word-level inner loops (dense AND-popcount, sparse-offset bit tests)
//! live in [`crate::simd`], which dispatches between a runtime-detected
//! AVX2+POPCNT tier and a portable 4-way-chunked tier — both bit-for-bit
//! equal to the plain scalar zip.

use crate::simd;
use std::fmt;

/// Bits per block: one 4 KiB page. Block-relative offsets fit in a `u16`.
pub const BLOCK_BITS: u64 = 32_768;

/// 64-bit words per dense block bitmap.
const WORDS_PER_BLOCK: usize = (BLOCK_BITS / 64) as usize;

/// Population count above which a block stores a dense bitmap instead of
/// sorted offsets: the storage crossover (2048 × `u16` = 4 KiB = 512 × `u64`),
/// ~6.3% density. The paper's error strings run 1–10%, so real workloads
/// exercise both container kinds.
pub const DENSE_THRESHOLD: usize = 2_048;

/// One block's positions, in whichever form is smaller.
#[derive(Clone, PartialEq, Eq)]
enum Container {
    /// Sorted block-relative bit offsets (`< BLOCK_BITS`, so `< 2^15`).
    Sparse(Vec<u16>),
    /// `WORDS_PER_BLOCK`-word bitmap.
    Dense(Box<[u64]>),
}

#[derive(Clone, PartialEq, Eq)]
struct Block {
    /// Block index: positions `index * BLOCK_BITS ..` live here.
    index: u32,
    /// Population of this block.
    count: u32,
    container: Container,
}

impl Block {
    /// The block of `run`, the ascending positions that fall in block
    /// `index`.
    fn from_run(index: u32, run: &[u64]) -> Self {
        let offsets = run.iter().map(|&p| (p % BLOCK_BITS) as u16);
        let container = if run.len() > DENSE_THRESHOLD {
            let mut words = vec![0u64; WORDS_PER_BLOCK].into_boxed_slice();
            for off in offsets {
                words[usize::from(off >> 6) & (WORDS_PER_BLOCK - 1)] |= 1u64 << (off & 63);
            }
            Container::Dense(words)
        } else {
            Container::Sparse(offsets.collect())
        };
        Self {
            index,
            count: run.len() as u32,
            container,
        }
    }
}

/// A packed error string: non-empty blocks sorted by index, each sparse or
/// dense by population. Built from the same sorted positions a
/// `probable_cause::ErrorString` holds; all count kernels agree exactly with
/// the scalar merges over that representation.
#[derive(Clone, PartialEq, Eq)]
pub struct PackedErrors {
    blocks: Vec<Block>,
    weight: u64,
    size: u64,
}

impl fmt::Debug for PackedErrors {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let dense = self
            .blocks
            .iter()
            .filter(|b| matches!(b.container, Container::Dense(_)))
            .count();
        f.debug_struct("PackedErrors")
            .field("weight", &self.weight)
            .field("size", &self.size)
            .field("blocks", &self.blocks.len())
            .field("dense_blocks", &dense)
            .finish()
    }
}

impl PackedErrors {
    /// Packs strictly ascending bit positions over a declared `size`.
    ///
    /// # Panics
    ///
    /// Debug-asserts that positions are strictly ascending and in range —
    /// callers feed positions already validated by `ErrorString`.
    pub fn from_positions(positions: &[u64], size: u64) -> Self {
        debug_assert!(positions.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(positions.last().is_none_or(|&p| p < size));
        // Each block's run of positions, found by binary search.
        let runs = || {
            let mut rest = positions;
            std::iter::from_fn(move || {
                let block = rest.first()? / BLOCK_BITS;
                let (run, tail) = rest.split_at(rest.partition_point(|&p| p / BLOCK_BITS == block));
                rest = tail;
                Some((block as u32, run))
            })
        };
        // Sized exactly up front: pushing would leave spare capacity behind
        // (room for 4 blocks in a one-block string), and shrinking later
        // can strand it in the allocator.
        let mut blocks = Vec::with_capacity(runs().count());
        blocks.extend(runs().map(|(index, run)| Block::from_run(index, run)));
        Self {
            blocks,
            weight: positions.len() as u64,
            size,
        }
    }

    /// Number of set bits.
    pub fn weight(&self) -> u64 {
        self.weight
    }

    /// Declared size in bits.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Number of non-empty blocks (diagnostic).
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Number of blocks stored as dense bitmaps (diagnostic).
    pub fn dense_block_count(&self) -> usize {
        self.blocks
            .iter()
            .filter(|b| matches!(b.container, Container::Dense(_)))
            .count()
    }

    /// Bytes of container payload a full scan of this string streams: 2 per
    /// sparse offset, 4 KiB per dense block (headers excluded). The roofline
    /// bench divides these by wall clock to get achieved bandwidth.
    pub fn container_bytes(&self) -> u64 {
        self.blocks
            .iter()
            .map(|b| match &b.container {
                Container::Sparse(offs) => 2 * offs.len() as u64,
                Container::Dense(words) => 8 * words.len() as u64,
            })
            .sum()
    }

    /// The sorted positions, reconstructed (for tests and conversions).
    pub fn positions(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.weight as usize);
        for b in &self.blocks {
            let base = u64::from(b.index) * BLOCK_BITS;
            match &b.container {
                Container::Sparse(offs) => out.extend(offs.iter().map(|&o| base + u64::from(o))),
                Container::Dense(words) => {
                    for (w, &word) in words.iter().enumerate() {
                        let mut bits = word;
                        while bits != 0 {
                            out.push(base + (w as u64) * 64 + u64::from(bits.trailing_zeros()));
                            bits &= bits - 1;
                        }
                    }
                }
            }
        }
        out
    }

    /// `|self ∩ other|` — the primitive every distance metric reduces to.
    /// Sizes need not match: positions are compared as plain integers, the
    /// same contract as the scalar `difference_count`.
    pub fn intersect_count(&self, other: &PackedErrors) -> u64 {
        let (mut i, mut j) = (0, 0);
        let mut count = 0u64;
        while i < self.blocks.len() && j < other.blocks.len() {
            let (a, b) = (&self.blocks[i], &other.blocks[j]);
            match a.index.cmp(&b.index) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    count += intersect_block(&a.container, &b.container);
                    i += 1;
                    j += 1;
                }
            }
        }
        count
    }

    /// `|self \ other|`: bits set here and absent from `other`.
    pub fn difference_count(&self, other: &PackedErrors) -> u64 {
        self.weight - self.intersect_count(other)
    }

    /// `|self ∪ other|`.
    pub fn union_count(&self, other: &PackedErrors) -> u64 {
        self.weight + other.weight - self.intersect_count(other)
    }

    /// `|self Δ other|`, the symmetric difference size (Hamming numerator).
    pub fn symmetric_difference_count(&self, other: &PackedErrors) -> u64 {
        self.weight + other.weight - 2 * self.intersect_count(other)
    }

    /// `|self ∩ view|` against a probe expanded to dense bitmaps — the batch
    /// scoring kernel: a sparse block costs one branchless bit test per
    /// position, a dense block a word-wise AND-popcount.
    pub fn intersect_count_view(&self, view: &DenseView) -> u64 {
        let mut count = 0u64;
        let mut v = 0usize;
        for b in &self.blocks {
            // `view.blocks` and `self.blocks` are both sorted by index; the
            // cursor advances monotonically so the whole scan is linear.
            while v < view.blocks.len() && view.blocks[v].0 < b.index {
                v += 1;
            }
            if v >= view.blocks.len() {
                break;
            }
            if view.blocks[v].0 != b.index {
                continue;
            }
            let words = &view.blocks[v].1;
            match &b.container {
                Container::Sparse(offs) => {
                    count += simd::sparse_bit_test(offs, words);
                }
                Container::Dense(mine) => {
                    count += simd::and_popcount(mine, words);
                }
            }
        }
        count
    }

    /// Whether `|self ∩ view| >= need`, equal to
    /// `self.intersect_count_view(view) >= need` but stopping as soon as the
    /// answer is known: the bit test runs 32 offsets at a time and returns
    /// once the count reaches `need` or the positions left to test can no
    /// longer lift it there. A stranger's low overlap is settled after about
    /// `weight - need` tests instead of `weight`.
    pub fn intersects_at_least(&self, view: &DenseView, need: u64) -> bool {
        let mut count = 0u64;
        // Positions not yet tested: every further hit is one of them.
        let mut left = self.weight;
        let undecided = |count: u64, left: u64| count < need && count + left >= need;
        let mut v = 0usize;
        for b in &self.blocks {
            if !undecided(count, left) {
                break;
            }
            while v < view.blocks.len() && view.blocks[v].0 < b.index {
                v += 1;
            }
            let words = match view.blocks.get(v) {
                Some((index, words)) if *index == b.index => words,
                // No probe bits in this block: its positions cannot hit.
                _ => {
                    left -= u64::from(b.count);
                    continue;
                }
            };
            match &b.container {
                Container::Sparse(offs) => {
                    for chunk in offs.chunks(EARLY_EXIT_CHUNK) {
                        if !undecided(count, left) {
                            break;
                        }
                        count += simd::sparse_bit_test(chunk, words);
                        left -= chunk.len() as u64;
                    }
                }
                Container::Dense(mine) => {
                    count += simd::and_popcount(mine, words);
                    left -= u64::from(b.count);
                }
            }
        }
        // Complete, or stopped once `count` settled the answer either way.
        count >= need
    }
}

/// Offsets [`PackedErrors::intersects_at_least`] tests between checks of
/// its early exit: long enough for the four-accumulator bit test to run at
/// speed, short enough that a decided scan stops soon after.
const EARLY_EXIT_CHUNK: usize = 32;

/// A probe expanded to per-block dense bitmaps, built once per batch scoring
/// call so every stored string is scored with branchless kernels.
#[derive(Debug, Clone)]
pub struct DenseView {
    /// `(block index, bitmap)` sorted by index.
    blocks: Vec<(u32, Box<[u64]>)>,
    weight: u64,
}

impl DenseView {
    /// Expands `probe` into dense per-block bitmaps.
    pub fn new(probe: &PackedErrors) -> Self {
        let blocks = probe
            .blocks
            .iter()
            .map(|b| {
                let words = match &b.container {
                    Container::Dense(words) => words.clone(),
                    Container::Sparse(offs) => {
                        let mut words = vec![0u64; WORDS_PER_BLOCK].into_boxed_slice();
                        for &off in offs {
                            words[usize::from(off >> 6) & (WORDS_PER_BLOCK - 1)] |=
                                1u64 << (off & 63);
                        }
                        words
                    }
                };
                (b.index, words)
            })
            .collect();
        Self {
            blocks,
            weight: probe.weight,
        }
    }

    /// The probe's weight (cached for metric evaluation).
    pub fn weight(&self) -> u64 {
        self.weight
    }
}

fn intersect_block(a: &Container, b: &Container) -> u64 {
    match (a, b) {
        (Container::Sparse(x), Container::Sparse(y)) => merge_count(x, y),
        (Container::Dense(x), Container::Dense(y)) => simd::and_popcount(x, y),
        (Container::Sparse(offs), Container::Dense(words))
        | (Container::Dense(words), Container::Sparse(offs)) => simd::sparse_bit_test(offs, words),
    }
}

fn merge_count(a: &[u16], b: &[u16]) -> u64 {
    let (mut i, mut j) = (0, 0);
    let mut count = 0u64;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn packed(bits: &[u64], size: u64) -> PackedErrors {
        PackedErrors::from_positions(bits, size)
    }

    #[test]
    fn round_trips_positions() {
        let bits = vec![0, 5, 63, 64, 32_767, 32_768, 100_000];
        let p = packed(&bits, 1 << 20);
        assert_eq!(p.positions(), bits);
        assert_eq!(p.weight(), 7);
        assert_eq!(p.block_count(), 3);
    }

    #[test]
    fn block_vector_holds_no_spare_capacity() {
        for bits in [
            vec![],
            vec![7, 300],
            vec![0, 5, 63, 64, 32_767, 32_768, 100_000],
        ] {
            let p = packed(&bits, 1 << 20);
            assert_eq!(p.blocks.capacity(), p.blocks.len(), "{bits:?}");
        }
    }

    #[test]
    fn dense_container_chosen_above_threshold() {
        let sparse_bits: Vec<u64> = (0..DENSE_THRESHOLD as u64).collect();
        let dense_bits: Vec<u64> = (0..DENSE_THRESHOLD as u64 + 1).collect();
        assert_eq!(packed(&sparse_bits, BLOCK_BITS).dense_block_count(), 0);
        let d = packed(&dense_bits, BLOCK_BITS);
        assert_eq!(d.dense_block_count(), 1);
        assert_eq!(d.positions(), dense_bits);
    }

    #[test]
    fn counts_match_set_reference_across_container_mixes() {
        // One sparse block, one dense block, one block present on one side
        // only — every kernel arm gets exercised.
        let a_bits: Vec<u64> = (0..3000u64)
            .map(|i| i * 9 % BLOCK_BITS)
            .chain((0..100).map(|i| BLOCK_BITS + i * 11))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let b_bits: Vec<u64> = (0..2500u64)
            .map(|i| i * 7 % BLOCK_BITS)
            .chain((0..50).map(|i| 3 * BLOCK_BITS + i))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let (a, b) = (packed(&a_bits, 1 << 20), packed(&b_bits, 1 << 20));
        let sa: BTreeSet<u64> = a_bits.iter().copied().collect();
        let sb: BTreeSet<u64> = b_bits.iter().copied().collect();
        let inter = sa.intersection(&sb).count() as u64;
        assert_eq!(a.intersect_count(&b), inter);
        assert_eq!(b.intersect_count(&a), inter);
        assert_eq!(a.difference_count(&b), sa.len() as u64 - inter);
        assert_eq!(a.union_count(&b), (sa.len() + sb.len()) as u64 - inter);
        assert_eq!(
            a.symmetric_difference_count(&b),
            sa.symmetric_difference(&sb).count() as u64
        );
        // View-based kernel agrees with the pairwise merge.
        assert_eq!(a.intersect_count_view(&DenseView::new(&b)), inter);
        assert_eq!(b.intersect_count_view(&DenseView::new(&a)), inter);
    }

    #[test]
    fn empty_and_disjoint_edges() {
        let e = packed(&[], 64);
        let a = packed(&[1, 2, 3], 64);
        assert_eq!(e.intersect_count(&a), 0);
        assert_eq!(a.intersect_count(&e), 0);
        assert_eq!(a.union_count(&e), 3);
        assert_eq!(a.intersect_count_view(&DenseView::new(&e)), 0);
        let far = packed(&[BLOCK_BITS * 5], BLOCK_BITS * 6);
        assert_eq!(a.intersect_count(&far), 0);
    }

    #[test]
    fn size_mismatch_compares_positions_verbatim() {
        // Same contract as the scalar difference_count: sizes are not
        // consulted, positions are.
        let a = packed(&[1, 9], 16);
        let b = packed(&[9, 100], 1 << 14);
        assert_eq!(a.intersect_count(&b), 1);
        assert_eq!(a.difference_count(&b), 1);
    }
}
