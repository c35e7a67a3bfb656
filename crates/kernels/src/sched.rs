//! A deterministic schedule-exploring harness (mini-loom).
//!
//! `map_chunked`'s claim/panic paths and the router's
//! journal/checkpoint/retract protocol are tested under *seeded schedule
//! perturbation*: hot paths carry named [`yield_point`]s that cost one
//! relaxed atomic load when disarmed (the `pc_faults::fail_point`
//! pattern), and a test arms a [`Schedule`] to turn each into
//! 0–3 `thread::yield_now()` calls drawn deterministically from
//! `mix(seed, site, step)`. Two runs with the same seed nudge the OS
//! scheduler at the same points; a few hundred seeds explore a few
//! hundred distinct interleaving pressures. Assertions then check the
//! protocol's *outputs* are byte-identical across every schedule.
//!
//! This is probabilistic exploration, not loom-style model checking: a
//! yield is a hint, so coverage is a distribution over real schedules
//! rather than an enumeration. In exchange the hooks run against the
//! production code, unmodified, with no instrumented atomics.
//!
//! Deadlock detection is wall-clock-free: [`run_bounded`] polls for the
//! workload's completion with a bounded budget of spin-yield polls and
//! reports a suspected deadlock when the budget drains, leaking the hung
//! thread rather than blocking CI on a join that will never return.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, TryRecvError};
use std::sync::{Mutex, MutexGuard};
use std::thread;

/// 0 = disarmed; otherwise `seed | 1` (forced odd so a seed of 0 still
/// arms).
static ARMED: AtomicU64 = AtomicU64::new(0);
/// Yield-point steps taken since the schedule was armed.
static STEPS: AtomicU64 = AtomicU64::new(0);
/// The same steps counted per site, so a test can check the sites it names
/// without counting steps other threads take elsewhere in the process.
static SITE_STEPS: Mutex<BTreeMap<&'static str, u64>> = Mutex::new(BTreeMap::new());
/// Serializes armed sections across tests (process-wide hooks).
static SERIAL: Mutex<()> = Mutex::new(());

/// splitmix64's finalizer: a cheap, well-mixed 64-bit permutation.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over the site name, so each site draws an independent stream.
fn site_hash(site: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in site.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A named scheduling perturbation point. Disarmed (the production case)
/// this is one relaxed load. Armed, it takes a step number and yields the
/// OS scheduler 0–3 times, deterministically in (seed, site, step).
#[inline]
pub fn yield_point(site: &'static str) {
    let armed = ARMED.load(Ordering::Relaxed);
    if armed == 0 {
        return;
    }
    let step = STEPS.fetch_add(1, Ordering::Relaxed);
    *site_steps_map().entry(site).or_insert(0) += 1;
    let n = mix(armed ^ site_hash(site) ^ mix(step)) & 3;
    for _ in 0..n {
        thread::yield_now();
    }
}

/// The per-site step counts. They are plain counters, so a poisoned lock
/// is taken over rather than propagated into the hooked code.
// pc-allow: C004 — poison-recovery helper; callers scope the guard to one statement
fn site_steps_map() -> MutexGuard<'static, BTreeMap<&'static str, u64>> {
    SITE_STEPS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Steps the yield point named `site` took under the currently (or last)
/// armed schedule. A test asserts this is non-zero for each site it names,
/// to prove the hooks it relies on actually fired.
pub fn site_steps(site: &str) -> u64 {
    site_steps_map().get(site).copied().unwrap_or(0)
}

/// An armed schedule: while alive, every [`yield_point`] perturbs thread
/// timing from this seed. Arming is process-wide, so schedules serialize
/// on an internal mutex — tests in one binary explore seeds one at a
/// time.
pub struct Schedule {
    // pc-allow: C004 — the held guard IS the RAII: it serializes armed sections for the Schedule's lifetime
    _serial: MutexGuard<'static, ()>,
}

impl Schedule {
    /// Arms schedule exploration with `seed`, blocking until any other
    /// armed schedule in the process disarms.
    pub fn arm(seed: u64) -> Schedule {
        let guard = SERIAL
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        STEPS.store(0, Ordering::Relaxed);
        site_steps_map().clear();
        ARMED.store(seed | 1, Ordering::Relaxed);
        Schedule { _serial: guard }
    }
}

impl Drop for Schedule {
    fn drop(&mut self) {
        ARMED.store(0, Ordering::Relaxed);
    }
}

/// A deterministic interleaving of `lens[i]`-length streams: returns a
/// sequence of stream indices in which stream `i` appears exactly
/// `lens[i]` times, order within each stream preserved, merge order drawn
/// from `seed`. The schedule-explorer tests use this to merge protocol
/// event streams (writes, kills, heals, saves) every way the seed space
/// reaches.
pub fn interleave(seed: u64, lens: &[usize]) -> Vec<usize> {
    let mut remaining: Vec<usize> = lens.to_vec();
    let mut left: usize = remaining.iter().sum();
    let mut out = Vec::with_capacity(left);
    let mut state = mix(seed ^ 0x5eed_5eed_5eed_5eed);
    while left > 0 {
        state = mix(state);
        let mut pick = (state % left as u64) as usize;
        for (i, r) in remaining.iter_mut().enumerate() {
            if pick < *r {
                *r -= 1;
                out.push(i);
                break;
            }
            pick -= *r;
        }
        left -= 1;
    }
    out
}

/// The workload did not finish within the poll budget — a suspected
/// deadlock. The worker thread is leaked (it may be blocked forever; a
/// join would hang the harness with it).
#[derive(Debug)]
pub struct Deadlock {
    /// Polls spent before giving up.
    pub polls: usize,
}

impl std::fmt::Display for Deadlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "suspected deadlock: no result after {} polls",
            self.polls
        )
    }
}

/// Runs `work` on a fresh thread and spin-yield-polls for its result, at
/// most `max_polls` times — a deadlock watchdog with no wall clock and no
/// real timeout. A panic in `work` is resumed on the caller. On budget
/// exhaustion the worker is leaked and `Err(Deadlock)` returned.
pub fn run_bounded<T, F>(max_polls: usize, work: F) -> Result<T, Deadlock>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let (tx, rx) = mpsc::channel();
    let handle = thread::spawn(move || {
        // A panic in `work` drops `tx` without sending; the poll loop sees
        // Disconnected and resumes the panic from the join.
        let _ = tx.send(work());
    });
    for polls in 0..max_polls {
        match rx.try_recv() {
            Ok(value) => {
                let _ = handle.join();
                return Ok(value);
            }
            Err(TryRecvError::Disconnected) => match handle.join() {
                Err(payload) => std::panic::resume_unwind(payload),
                // Sent-then-disconnected race: the value is already queued.
                Ok(()) => {
                    if let Ok(value) = rx.try_recv() {
                        return Ok(value);
                    }
                    return Err(Deadlock { polls });
                }
            },
            Err(TryRecvError::Empty) => thread::yield_now(),
        }
    }
    drop(handle); // leak: joining a deadlocked thread would hang forever
    Err(Deadlock { polls: max_polls })
}

#[cfg(test)]
mod tests {
    use super::*;

    // One sequential test: arming is process-global, so splitting the
    // armed and disarmed assertions across #[test] fns would race under
    // the parallel test runner. Other tests in this binary hit
    // `map_chunked`'s yield point meanwhile, so it asserts only on its own
    // sites.
    #[test]
    fn armed_schedule_counts_steps_and_disarms_on_drop() {
        {
            let _s = Schedule::arm(42);
            yield_point("test.a");
            yield_point("test.b");
            yield_point("test.b");
            assert_eq!((site_steps("test.a"), site_steps("test.b")), (1, 2));
        }
        // The last schedule's counts stay readable; disarmed hooks add none.
        yield_point("test.a");
        yield_point("test.c");
        assert_eq!(
            (site_steps("test.a"), site_steps("test.c")),
            (1, 0),
            "dropping the schedule disarms the hooks"
        );
    }

    #[test]
    fn interleave_is_deterministic_and_stream_preserving() {
        let a = interleave(7, &[3, 2, 4]);
        let b = interleave(7, &[3, 2, 4]);
        assert_eq!(a, b, "same seed, same merge");
        assert_eq!(a.len(), 9);
        for (i, want) in [3usize, 2, 4].iter().enumerate() {
            assert_eq!(a.iter().filter(|&&s| s == i).count(), *want);
        }
        let c = interleave(8, &[3, 2, 4]);
        assert_ne!(a, c, "different seeds should (here) merge differently");
    }

    #[test]
    fn run_bounded_returns_the_result() {
        let got = run_bounded(1_000_000, || 21 * 2).expect("no deadlock");
        assert_eq!(got, 42);
    }

    #[test]
    fn run_bounded_reports_a_hang() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        let stop = Arc::new(AtomicBool::new(false));
        let spinner_stop = Arc::clone(&stop);
        let err = run_bounded(64, move || {
            // Spins until told to stop: far past the poll budget.
            while !spinner_stop.load(Ordering::Relaxed) {
                thread::yield_now();
            }
        });
        stop.store(true, Ordering::Relaxed);
        assert!(err.is_err(), "a spinning workload must trip the watchdog");
    }

    #[test]
    fn run_bounded_resumes_panics() {
        let caught = std::panic::catch_unwind(|| {
            let _ = run_bounded(1_000_000, || panic!("boom from worker"));
        });
        let payload = caught.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "boom from worker");
    }
}
