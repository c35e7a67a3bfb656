//! Differential tests for Algorithm 4's first-match scan: the threshold
//! bound [`MetricKind::min_intersection`] against a brute-force search, the
//! early-exit bit test [`PackedErrors::intersects_at_least`] against the
//! full count [`PackedErrors::intersect_count_view`], and [`first_within`]
//! against the [`distance_packed`] loop it replaces. Every comparison is
//! exact: the scan must take the same branches the pairwise merge takes.

use pc_kernels::{distance_packed, first_within, DenseView, MetricKind, PackedErrors, BLOCK_BITS};

const KINDS: [MetricKind; 3] = [
    MetricKind::PcJaccard,
    MetricKind::Hamming,
    MetricKind::Jaccard,
];

/// One SplitMix64 step (add the golden gamma, then the finalizer): the
/// fixtures' hash, written out so they do not depend on other crates.
fn mix64(z: u64) -> u64 {
    let mut z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The smallest intersection in `0..=min(weights)` whose distance is below
/// `threshold`, by trying each in turn.
fn brute_min_intersection(kind: MetricKind, fw: u64, pw: u64, threshold: f64) -> Option<u64> {
    (0..=fw.min(pw)).find(|&i| kind.eval(fw, pw, i) < threshold)
}

#[test]
fn min_intersection_equals_brute_force() {
    const FIXED: [f64; 9] = [-0.5, 0.0, 0.05, 0.1, 0.25, 0.3, 0.5, 1.0, 1.5];
    for kind in KINDS {
        for fw in 0..=400u64 {
            let mut probe_weights = vec![0, 1, 2, 3, fw.saturating_sub(1), fw, fw + 1, 2 * fw];
            probe_weights.extend([312, 328, 399, 400]);
            if [0, 1, 312, 328, 400].contains(&fw) {
                probe_weights.extend(0..=400);
            }
            for pw in probe_weights {
                let max = fw.min(pw);
                // Values `eval` takes exactly: a pair at that distance is
                // not within the threshold, so the bound must lie above.
                let hits: Vec<(u64, f64)> = [0, max / 3, max / 2, max.saturating_sub(1), max]
                    .into_iter()
                    .map(|i| (i, kind.eval(fw, pw, i)))
                    .collect();
                let thresholds = FIXED.into_iter().chain(hits.iter().map(|&(_, t)| t));
                for threshold in thresholds {
                    let got = kind.min_intersection(fw, pw, threshold);
                    assert_eq!(
                        got,
                        brute_min_intersection(kind, fw, pw, threshold),
                        "{kind:?} fw={fw} pw={pw} threshold={threshold}"
                    );
                }
                for (i, exact) in hits {
                    let got = kind.min_intersection(fw, pw, exact);
                    assert!(
                        got.is_none_or(|need| need > i),
                        "{kind:?} fw={fw} pw={pw}: eval({i}) == threshold matched ({got:?})"
                    );
                }
            }
        }
    }
}

#[test]
fn min_intersection_of_nan_threshold_is_none() {
    for kind in KINDS {
        assert_eq!(kind.min_intersection(10, 10, f64::NAN), None);
        assert_eq!(kind.min_intersection(0, 0, f64::NAN), None);
    }
}

/// A deterministic string over `size` bits holding `per_block[b]` distinct
/// positions in block `b` (fewer if the block is shorter).
fn string(seed: u64, size: u64, per_block: &[usize]) -> Vec<u64> {
    let mut bits = Vec::new();
    for (b, &want) in per_block.iter().enumerate() {
        let lo = b as u64 * BLOCK_BITS;
        let len = BLOCK_BITS.min(size.saturating_sub(lo));
        if len == 0 {
            continue;
        }
        let mut block: Vec<u64> = (0..want as u64 * 3)
            .map(|i| lo + mix64(seed ^ mix64((b as u64) << 32 | i)) % len)
            .collect();
        block.sort_unstable();
        block.dedup();
        block.truncate(want);
        bits.extend(block);
    }
    bits.sort_unstable();
    bits
}

/// `base` with about one in `drop_every` positions dropped and `extra`
/// added: a noisy re-observation sharing most of `base`.
fn noisy(base: &[u64], drop_every: u64, extra: &[u64]) -> Vec<u64> {
    let mut bits: Vec<u64> = base
        .iter()
        .copied()
        .filter(|&b| drop_every == 0 || !mix64(b).is_multiple_of(drop_every))
        .chain(extra.iter().copied())
        .collect();
    bits.sort_unstable();
    bits.dedup();
    bits
}

/// `(size, fingerprint, probe)` shapes: sparse (≤ 2 048 bits per block)
/// and dense (more) containers on each side, one and several blocks, a
/// partial last block, and empty strings.
fn shapes() -> Vec<(u64, Vec<u64>, Vec<u64>)> {
    let one = BLOCK_BITS;
    let four = 4 * BLOCK_BITS;
    let ragged = 3 * BLOCK_BITS + 1_000;
    let sparse = string(1, one, &[328]);
    let dense = string(2, one, &[3_000]);
    let multi = string(3, four, &[328, 2_500, 0, 40]);
    let ragged_fp = string(4, ragged, &[2_100, 300, 0, 900]);
    vec![
        (
            one,
            sparse.clone(),
            noisy(&sparse, 20, &string(5, one, &[16])),
        ),
        (one, sparse.clone(), string(6, one, &[328])),
        (one, sparse.clone(), noisy(&dense, 3, &sparse)),
        (
            one,
            dense.clone(),
            noisy(&dense, 10, &string(7, one, &[40])),
        ),
        (one, dense.clone(), sparse.clone()),
        (one, Vec::new(), sparse.clone()),
        (one, sparse.clone(), Vec::new()),
        (
            four,
            multi.clone(),
            noisy(&multi, 8, &string(8, four, &[0, 0, 2_200, 5])),
        ),
        (four, multi.clone(), string(9, four, &[2_300, 100, 100, 0])),
        (
            ragged,
            ragged_fp.clone(),
            noisy(&ragged_fp, 5, &string(10, ragged, &[0, 3, 0, 2_200])),
        ),
        (
            ragged,
            ragged_fp.clone(),
            string(11, ragged, &[0, 0, 50, 1_000]),
        ),
    ]
}

#[test]
fn early_exit_decides_every_bound_like_the_full_count() {
    for (size, fp_bits, probe_bits) in shapes() {
        let fp = PackedErrors::from_positions(&fp_bits, size);
        let probe = PackedErrors::from_positions(&probe_bits, size);
        for (a, b) in [(&fp, &probe), (&probe, &fp)] {
            let view = DenseView::new(b);
            let inter = a.intersect_count_view(&view);
            assert_eq!(
                inter,
                a.intersect_count(b),
                "the view counts the merge's integer"
            );
            for need in 0..=a.weight() + 1 {
                assert_eq!(
                    a.intersects_at_least(&view, need),
                    inter >= need,
                    "size={size} weight={} dense_blocks={} inter={inter} need={need}",
                    a.weight(),
                    a.dense_block_count(),
                );
            }
        }
    }
}

#[test]
fn the_shapes_cover_sparse_dense_and_multi_block_strings() {
    let packed: Vec<PackedErrors> = shapes()
        .into_iter()
        .map(|(size, fp, _)| PackedErrors::from_positions(&fp, size))
        .collect();
    assert!(packed
        .iter()
        .any(|p| p.dense_block_count() == 0 && p.weight() > 0));
    assert!(packed.iter().any(|p| p.dense_block_count() > 0));
    assert!(packed
        .iter()
        .any(|p| p.block_count() > 2 && p.dense_block_count() > 0));
}

/// The scan `first_within` replaces.
fn pairwise_first_match(
    entries: &[PackedErrors],
    probe: &PackedErrors,
    kind: MetricKind,
    threshold: f64,
) -> (Option<usize>, u64) {
    let mut compared = 0u64;
    for (j, entry) in entries.iter().enumerate() {
        compared += 1;
        if distance_packed(entry, probe, kind) < threshold {
            return (Some(j), compared);
        }
    }
    (None, compared)
}

#[test]
fn first_within_equals_the_pairwise_first_match_loop() {
    let size = 3 * BLOCK_BITS + 1_000;
    // A book of 40 fingerprints: mostly sparse, some dense, a few spanning
    // blocks, one empty.
    let fingerprints: Vec<Vec<u64>> = (0..40u64)
        .map(|c| match c % 8 {
            0 => string(100 + c, size, &[2_100, 0, 30]),
            7 => Vec::new(),
            5 => string(100 + c, size, &[120, 0, 200, 60]),
            _ => string(100 + c, size, &[312]),
        })
        .collect();
    let book: Vec<PackedErrors> = fingerprints
        .iter()
        .map(|bits| PackedErrors::from_positions(bits, size))
        .collect();
    let mut probes: Vec<Vec<u64>> = vec![Vec::new()];
    for c in [0usize, 1, 5, 13, 20, 39] {
        probes.push(noisy(
            &fingerprints[c],
            20,
            &string(200 + c as u64, size, &[16]),
        ));
        probes.push(noisy(
            &fingerprints[c],
            3,
            &string(300 + c as u64, size, &[60]),
        ));
    }
    probes.extend((0..6).map(|s| string(400 + s, size, &[328, 10, 0, 2_200])));
    for probe_bits in &probes {
        let probe = PackedErrors::from_positions(probe_bits, size);
        for kind in KINDS {
            // Fixed thresholds plus distances the book actually takes, so
            // exact ties with the threshold are exercised.
            let mut thresholds = vec![0.0, 0.1, 0.25, 0.3, 0.5, 0.9, 1.0, 1.1];
            thresholds.extend(
                book.iter()
                    .step_by(3)
                    .map(|e| distance_packed(e, &probe, kind)),
            );
            for threshold in thresholds {
                for len in [0, 1, 7, book.len()] {
                    let entries = &book[..len];
                    assert_eq!(
                        first_within(entries, &probe, kind, threshold),
                        pairwise_first_match(entries, &probe, kind, threshold),
                        "{kind:?} threshold={threshold} len={len} probe weight={}",
                        probe.weight()
                    );
                }
            }
        }
    }
}
