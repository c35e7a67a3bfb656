//! Regression test for stitcher determinism: the full eavesdropping stitch
//! must produce a byte-identical cluster structure regardless of the kernel
//! thread budget and across repeated runs.
//!
//! The stitcher's internal maps are ordered (`BTreeMap`), so iteration order
//! — and therefore this canonical serialization — is a pure function of the
//! observations. The kernels' thread override (the in-process stand-in for
//! `PC_KERNEL_THREADS`, which is parsed only once) pins the thread budget so
//! any future parallelism on the stitch path is covered too.

use probable_cause_repro::prelude::*;
use std::fmt::Write as _;

/// Runs the whole attack at a fixed seed and renders every cluster, page
/// offset, and fingerprint to a canonical string.
fn stitch_and_serialize(threads: &str) -> String {
    // `PC_KERNEL_THREADS` is parsed once per process (hot paths must not
    // re-read the environment), so mid-process thread changes go through the
    // kernels' test override hook instead of `set_var`.
    let parsed: usize = threads.parse().expect("numeric thread count");
    probable_cause::batch::set_auto_thread_override(Some(parsed));
    let mut victim = ApproxSystem::emulated(SystemConfig {
        total_pages: 2_048,
        error_rate: 0.01,
        seed: 42,
        placement: PlacementPolicy::ContiguousRandom,
    });
    let mut attacker = Eavesdropper::new(StitchConfig::default());
    for _ in 0..60 {
        let out = victim.publish_worst_case(32);
        attacker.observe_output(&out);
    }

    let mut rendered = String::new();
    for (id, pages) in attacker.stitcher().iter_clusters() {
        writeln!(rendered, "cluster {id}").expect("write to string");
        for (offset, fp) in pages {
            writeln!(
                rendered,
                "  page {offset} obs={} size={} bits={:?}",
                fp.observations(),
                fp.errors().size(),
                fp.errors().positions(),
            )
            .expect("write to string");
        }
    }
    rendered
}

#[test]
fn stitch_is_byte_identical_across_thread_counts() {
    let one = stitch_and_serialize("1");
    assert!(one.contains("cluster"), "stitch produced no clusters");
    let four = stitch_and_serialize("4");
    let eight = stitch_and_serialize("8");
    assert_eq!(one, four, "stitch output diverges between 1 and 4 threads");
    assert_eq!(one, eight, "stitch output diverges between 1 and 8 threads");
    // And re-running at the same width is stable, too.
    assert_eq!(one, stitch_and_serialize("1"));
    probable_cause::batch::set_auto_thread_override(None);
}
