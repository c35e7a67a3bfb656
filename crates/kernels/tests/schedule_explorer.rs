//! Schedule exploration of `map_chunked`'s claim/panic/nested-inline
//! paths: 200 seeded schedules perturb thread timing at the chunk-claim
//! yield point, and every schedule must produce byte-identical outputs
//! with zero deadlocks. Deterministic: no wall clock, no real timeouts —
//! the watchdog is a bounded budget of spin-yield polls.

use pc_kernels::pool::{map_chunked, Parallelism};
use pc_kernels::sched::{run_bounded, site_steps, Schedule};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

const SEEDS: u64 = 200;
/// Poll budget per schedule. Every poll is one `yield_now`; a healthy
/// run finishes in a few thousand.
const BUDGET: usize = 20_000_000;
/// The yield points every schedule must reach.
const SITES: [&str; 1] = ["pool.claim"];

/// The task function every workload maps — pure, so the expected output
/// is computable inline.
fn score(i: usize) -> u64 {
    (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xabcd
}

/// One full workout of `map_chunked`. Returns the concatenated
/// results; panics (which the harness must propagate exactly once) are
/// exercised and swallowed inside.
fn workout() -> Vec<u64> {
    let par = Parallelism::new(4);
    let mut out = Vec::new();

    // Plain fan-out: spawn, claim, join.
    out.extend(map_chunked(64, 8, par, score));

    // Nested call: the inner call sees IN_MAP and runs inline — the
    // re-entrancy path.
    out.extend(map_chunked(16, 4, par, |i| {
        map_chunked(8, 2, par, score)
            .into_iter()
            .fold(score(i), u64::wrapping_add)
    }));

    // Panic path: one task panics; it must propagate exactly once after
    // all siblings finish, and later calls must still work.
    let panicked = catch_unwind(AssertUnwindSafe(|| {
        map_chunked(32, 4, par, |i| {
            if i == 16 {
                panic!("schedule-explorer probe panic");
            }
            score(i)
        })
    }));
    out.push(u64::from(panicked.is_err()));

    // Concurrent callers: two threads map at once, each with its own
    // helpers and its own claim lock.
    let (a, b) = thread::scope(|s| {
        let a = s.spawn(|| map_chunked(48, 8, par, score));
        let b = s.spawn(|| map_chunked(48, 6, par, |i| score(i).rotate_left(7)));
        (
            a.join().expect("submitter a"),
            b.join().expect("submitter b"),
        )
    });
    out.extend(a);
    out.extend(b);

    // Helpers that must really run: each of two tasks waits for the other
    // to start, so the caller alone cannot finish the call and a helper has
    // to claim a chunk.
    let started = AtomicUsize::new(0);
    out.extend(map_chunked(2, 1, par, |i| {
        started.fetch_add(1, Ordering::SeqCst);
        while started.load(Ordering::SeqCst) < 2 {
            thread::yield_now();
        }
        score(i)
    }));

    // And a plain call still works after all of the above.
    out.extend(map_chunked(8, 2, par, score));
    out
}

#[test]
fn pool_protocol_is_schedule_independent() {
    // Reference output, computed without any schedule perturbation.
    let reference = workout();
    let expected_head: Vec<u64> = (0..64).map(score).collect();
    assert_eq!(
        &reference[..64],
        &expected_head[..],
        "sanity: plain fan-out"
    );

    for seed in 0..SEEDS {
        let sched = Schedule::arm(seed);
        let got = run_bounded(BUDGET, workout).unwrap_or_else(|d| panic!("seed {seed}: {d}"));
        // The hooks must actually fire: a site the armed schedule never
        // reached is a step the explorer is not perturbing.
        for site in SITES {
            assert!(site_steps(site) > 0, "seed {seed}: {site} never fired");
        }
        drop(sched);
        assert_eq!(
            got, reference,
            "seed {seed}: output diverged across schedules"
        );
    }
}
