//! Property tests for the replica ranking: the remap bound under topology
//! changes, the failover order after a removal, and byte-identical routing
//! across reconstructions and kernel thread-count settings.
//!
//! A naive `hash % N` remaps nearly every key when N changes, destroying
//! journal locality and cache warmth on every failover. Rendezvous ranking
//! pins the damage to the keys the changed replica heads: ≤ 2/N of keys,
//! and *only* keys that involve the changed replica.

use pc_service::ring::Ring;
use pc_stats::mix64;
use proptest::prelude::*;

fn addrs(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("10.0.0.{i}:7000")).collect()
}

fn sample_keys(seed: u64) -> Vec<u64> {
    (0..512u64).map(|i| mix64(i ^ seed)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Adding one replica moves at most 2/N of primaries, and every moved
    /// key lands on the new replica — nothing shuffles between survivors.
    #[test]
    fn adding_one_replica_remaps_at_most_2_over_n(
        n in 3usize..=8,
        key_seed in any::<u64>(),
    ) {
        let old = Ring::new(&addrs(n));
        let new = Ring::new(&addrs(n + 1));
        let keys = sample_keys(key_seed);
        let mut moved = 0usize;
        for &k in &keys {
            let a = old.walk(k).first().copied();
            let b = new.walk(k).first().copied();
            if a != b {
                prop_assert_eq!(
                    b, Some(n),
                    "a remapped key must land on the added replica"
                );
                moved += 1;
            }
        }
        prop_assert!(
            moved <= 2 * keys.len() / n,
            "moved {} of {} keys with n={} (bound {})",
            moved, keys.len(), n, 2 * keys.len() / n
        );
    }

    /// Removing one replica remaps only the keys it owned (≤ 2/N of them);
    /// every other key keeps its primary exactly, and every key's walk is
    /// the old walk with the removed replica filtered out — the failover
    /// order the router reads along while a replica is down.
    #[test]
    fn removing_one_replica_remaps_at_most_2_over_n(
        n in 4usize..=9,
        key_seed in any::<u64>(),
    ) {
        let removed = n - 1; // drop the last replica; indices stay stable
        let old = Ring::new(&addrs(n));
        let new = Ring::new(&addrs(n - 1));
        let keys = sample_keys(key_seed);
        let mut moved = 0usize;
        for &k in &keys {
            let old_walk = old.walk(k);
            let new_walk = new.walk(k);
            let a = old_walk.first().copied();
            let b = new_walk.first().copied();
            if a == Some(removed) {
                moved += 1;
                prop_assert_ne!(b, Some(removed));
            } else {
                prop_assert_eq!(
                    a, b,
                    "keys not owned by the removed replica must not move"
                );
            }
            let survivors: Vec<usize> =
                old_walk.into_iter().filter(|&i| i != removed).collect();
            prop_assert_eq!(
                new_walk, survivors,
                "removal must keep the survivors' failover order"
            );
        }
        prop_assert!(
            moved <= 2 * keys.len() / n,
            "moved {} of {} keys with n={} (bound {})",
            moved, keys.len(), n, 2 * keys.len() / n
        );
    }

    /// The full walk order (primary plus failover tail) is byte-identical
    /// across independent ring constructions.
    #[test]
    fn walk_order_is_stable_across_reconstruction(
        n in 2usize..=8,
        key in any::<u64>(),
    ) {
        let nodes = addrs(n);
        let a = Ring::new(&nodes);
        let b = Ring::new(&nodes);
        prop_assert_eq!(a.walk(key), b.walk(key));
    }
}

/// Routing must not depend on the kernel thread budget: the ring hashes with
/// `mix64` only, so the same topology yields the same bytes whatever
/// `PC_KERNEL_THREADS` says — the determinism a restarted router relies on.
#[test]
fn routing_is_byte_identical_across_thread_counts_and_restarts() {
    let nodes = addrs(5);
    let keys = sample_keys(0x5eed);
    let fingerprint = |ring: &Ring| -> Vec<u8> {
        let mut out = Vec::new();
        for &k in &keys {
            for idx in ring.walk(k) {
                out.push(idx as u8);
            }
            out.push(0xff);
        }
        out
    };
    let baseline = fingerprint(&Ring::new(&nodes));
    // The env variable is parsed once per process, so mid-process budget
    // changes go through the kernels' test override hook.
    for threads in [1usize, 2, 8] {
        pc_kernels::set_auto_thread_override(Some(threads));
        // A fresh construction models a process restart under a different
        // thread budget.
        let again = fingerprint(&Ring::new(&nodes));
        assert_eq!(
            baseline, again,
            "kernel thread budget {threads} changed routing"
        );
    }
    pc_kernels::set_auto_thread_override(None);
}
