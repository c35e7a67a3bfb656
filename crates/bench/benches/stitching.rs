//! Stitching benchmarks: LSH-indexed observation ingestion, attribution,
//! persistence, and full convergence runs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pc_bench::{synthetic_errors, synthetic_output};
use probable_cause::{StitchConfig, Stitcher};
use std::hint::black_box;

const PAGE_BITS: u64 = 32_768;

fn bench_observe(c: &mut Criterion) {
    let mut group = c.benchmark_group("stitcher_observe");
    group.sample_size(20);
    for preload in [10usize, 50, 200] {
        group.bench_with_input(
            BenchmarkId::new("with_preloaded_outputs", preload),
            &preload,
            |b, &preload| {
                b.iter_batched(
                    || {
                        let mut st = Stitcher::new(PAGE_BITS, StitchConfig::default());
                        let mut start = 0u64;
                        for _ in 0..preload {
                            st.observe(&synthetic_output(1, start, 16, PAGE_BITS));
                            start = (start * 7 + 31) % 512;
                        }
                        (st, synthetic_output(1, 100, 16, PAGE_BITS))
                    },
                    |(mut st, out)| black_box(st.observe(&out)),
                    criterion::BatchSize::LargeInput,
                )
            },
        );
    }
    group.finish();
}

fn bench_attribute(c: &mut Criterion) {
    // Attribution is the read-only hot path once a database is assembled.
    let mut group = c.benchmark_group("stitcher_attribute");
    let mut st = Stitcher::new(PAGE_BITS, StitchConfig::default());
    let mut start = 0u64;
    for _ in 0..100 {
        st.observe(&synthetic_output(1, start, 16, PAGE_BITS));
        start = (start * 7 + 31) % 512;
    }
    let hit = synthetic_output(1, 40, 16, PAGE_BITS);
    let miss = synthetic_output(9, 40, 16, PAGE_BITS);
    group.bench_function("hit", |b| b.iter(|| black_box(st.attribute(&hit))));
    group.bench_function("miss", |b| b.iter(|| black_box(st.attribute(&miss))));
    group.finish();
}

fn bench_persistence(c: &mut Criterion) {
    use probable_cause::persistence::{load_db, save_db};
    use probable_cause::{Fingerprint, FingerprintDb, PcDistance};
    let mut db = FingerprintDb::new(PcDistance::new(), 0.25);
    for chip in 0..100u64 {
        db.insert(
            format!("chip-{chip}"),
            Fingerprint::from_observation(synthetic_errors(chip, 2_621, 262_144)),
        );
    }
    let mut serialized = Vec::new();
    save_db(&db, &mut serialized).expect("in-memory write");

    let mut group = c.benchmark_group("persistence_100_chip_db");
    group.bench_function("save", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(serialized.len());
            save_db(&db, &mut buf).expect("in-memory write");
            black_box(buf)
        })
    });
    group.bench_function("load", |b| {
        b.iter(|| black_box(load_db(std::io::Cursor::new(&serialized)).expect("parses")))
    });
    group.finish();
}

fn bench_convergence_run(c: &mut Criterion) {
    let mut group = c.benchmark_group("stitcher_convergence");
    group.sample_size(10);
    group.bench_function("200_samples_16_pages_of_512", |b| {
        b.iter(|| {
            let mut st = Stitcher::new(PAGE_BITS, StitchConfig::default());
            let mut start = 3u64;
            for _ in 0..200 {
                start = (start
                    .wrapping_mul(2_862_933_555_777_941_757)
                    .wrapping_add(1))
                    % 496;
                st.observe(&synthetic_output(1, start, 16, PAGE_BITS));
            }
            black_box(st.suspected_chips())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_observe,
    bench_attribute,
    bench_persistence,
    bench_convergence_run
);
criterion_main!(benches);
