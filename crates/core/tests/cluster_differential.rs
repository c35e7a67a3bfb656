//! Algorithm 4 on its two paths: [`cluster`] with a built-in metric runs a
//! [`probable_cause::ClusterBook`] (dense-view, threshold-bounded
//! first-match scan); the same metric with its packed form hidden takes
//! the scalar per-pair path, the reference. Both must form the same
//! clusters, assign every output the same id, and leave the same
//! fingerprints and observation counts, for every built-in metric.

use pc_stats::mix64;
use probable_cause::{
    cluster, Clustering, DistanceMetric, ErrorString, HammingDistance, JaccardDistance, PcDistance,
};

const PAGE: u64 = 32_768;

/// `metric` with its packed form hidden: `kind()` is the default `None`,
/// so [`cluster`] scores each pair through `distance`.
struct ScalarOnly<'a>(&'a dyn DistanceMetric);

impl DistanceMetric for ScalarOnly<'_> {
    fn distance(&self, fingerprint: &ErrorString, error_string: &ErrorString) -> f64 {
        self.0.distance(fingerprint, error_string)
    }
    fn name(&self) -> &'static str {
        self.0.name()
    }
}

/// `per_block[b]` distinct positions in block `b` of a `size`-bit string.
fn stable_bits(seed: u64, size: u64, per_block: &[u64]) -> Vec<u64> {
    let mut bits = Vec::new();
    for (b, &want) in per_block.iter().enumerate() {
        let lo = b as u64 * PAGE;
        let len = PAGE.min(size.saturating_sub(lo));
        let mut block: Vec<u64> = (0..want * 3)
            .map(|i| lo + mix64(seed ^ mix64((b as u64) << 32 | i)) % len.max(1))
            .filter(|&p| p < size)
            .collect();
        block.sort_unstable();
        block.dedup();
        block.truncate(want as usize);
        bits.extend(block);
    }
    bits
}

/// One more output of a device: each stable bit missing with probability
/// `1 / drop_every` (never when 0), plus `extra` stray errors.
fn reobserve(stable: &[u64], size: u64, r: u64, drop_every: u64, extra: u64) -> ErrorString {
    let bits: Vec<u64> = stable
        .iter()
        .copied()
        .filter(|&b| drop_every == 0 || !mix64(b ^ r).is_multiple_of(drop_every))
        .chain((0..extra).map(|i| mix64(r ^ mix64(i ^ 0xe77a)) % size))
        .collect();
    ErrorString::from_unsorted(bits, size).expect("in-range bits")
}

/// `devices` devices, each seen `outputs_each` times at noise levels from
/// light (well inside any threshold) to heavy (outside), interleaved.
fn corpus(
    seed: u64,
    size: u64,
    per_block: &[u64],
    devices: u64,
    outputs_each: u64,
) -> Vec<ErrorString> {
    let stable: Vec<Vec<u64>> = (0..devices)
        .map(|d| stable_bits(seed ^ mix64(d), size, per_block))
        .collect();
    let weight: u64 = per_block.iter().sum();
    (0..outputs_each)
        .flat_map(|k| {
            let stable = &stable;
            (0..devices).map(move |d| {
                let r = mix64(seed ^ (k << 20) ^ d);
                // Drop rates 0, 1/20, 1/6, 1/3; strays 0 to 40% of the weight.
                let drop_every = [0, 20, 6, 3][(r % 4) as usize];
                let extra = weight * ((r >> 8) % 5) / 10;
                reobserve(&stable[d as usize], size, r, drop_every, extra)
            })
        })
        .collect()
}

fn empty(size: u64) -> ErrorString {
    ErrorString::from_sorted(Vec::new(), size).expect("empty string")
}

/// The corpora: sparse one-page outputs, dense ones (past the 2 048-bit
/// container threshold), multi-block outputs with a ragged last block, and
/// empty outputs first, last and in between.
fn corpora() -> Vec<Vec<ErrorString>> {
    let ragged = 3 * PAGE + 1_000;
    let sparse = corpus(1, PAGE, &[312], 12, 5);
    let dense = corpus(2, PAGE, &[3_000], 6, 4);
    let multi = corpus(3, ragged, &[300, 2_200, 0, 400], 8, 4);
    let mut empties_first = vec![empty(PAGE); 2];
    empties_first.extend(sparse.iter().take(20).cloned());
    let mut empties_between = multi.clone();
    for at in [0, 9, 17] {
        empties_between.insert(at, empty(ragged));
    }
    let mut empties_last = dense.clone();
    empties_last.extend([empty(PAGE), empty(PAGE)]);
    vec![
        sparse,
        dense,
        multi,
        empties_first,
        empties_between,
        empties_last,
    ]
}

fn assert_same(packed: &Clustering, scalar: &Clustering, what: &str) {
    assert_eq!(
        packed.assignments(),
        scalar.assignments(),
        "assignments: {what}"
    );
    assert_eq!(packed.len(), scalar.len(), "cluster count: {what}");
    for (j, (p, s)) in packed.clusters().iter().zip(scalar.clusters()).enumerate() {
        assert_eq!(p.errors(), s.errors(), "cluster {j} positions: {what}");
        assert_eq!(
            p.observations(),
            s.observations(),
            "cluster {j} observations: {what}"
        );
    }
}

#[test]
fn cluster_equals_the_scalar_path_for_every_builtin_metric() {
    let metrics: [&dyn DistanceMetric; 3] = [
        &PcDistance::new(),
        &HammingDistance::new(),
        &JaccardDistance::new(),
    ];
    let (mut refined, mut split) = (false, false);
    for (c, outputs) in corpora().iter().enumerate() {
        for metric in metrics {
            // Fixed thresholds, plus one the corpus hits exactly: the
            // distance between its first two non-empty outputs.
            let mut thresholds = vec![0.1, 0.25, 0.3, 0.5, 0.9];
            let mut nonempty = outputs.iter().filter(|o| !o.is_empty());
            if let (Some(a), Some(b)) = (nonempty.next(), nonempty.next()) {
                thresholds.push(metric.distance(a, b));
            }
            for threshold in thresholds {
                let packed = cluster(outputs, metric, threshold);
                let scalar = cluster(outputs, &ScalarOnly(metric), threshold);
                let what = format!("corpus {c}, {}, threshold {threshold}", metric.name());
                assert_same(&packed, &scalar, &what);
                refined |= packed.len() < outputs.len();
                split |= c == 0 && packed.len() > 12;
            }
        }
    }
    assert!(refined, "some output must join an existing cluster");
    assert!(split, "some re-observation must fall outside the threshold");
}
