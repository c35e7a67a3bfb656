//! Deterministic chunked parallelism over **scoped threads**.
//!
//! Work over `0..n` is split into chunks. The caller and a few helper
//! threads claim `(index, chunk)` pairs from one iterator over the output's
//! slots and fill each chunk in place, so the assembled output is
//! **independent of the thread count and of scheduling**: only wall-clock
//! changes. One thread (or one chunk) runs inline on the caller.
//!
//! Helpers are `std::thread::scope` threads: they exist only while a call
//! runs, so two callers never queue on each other and nothing is left parked
//! between calls. A spawn costs tens of microseconds, which is why the served
//! path scores with [`Parallelism::single`]; this module serves bulk work (the
//! index build at open, `identify_batch`, the experiments).

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::thread;

/// How many chunks each thread should see on average: enough that a slow
/// chunk rebalances across the threads, few enough that the claim lock stays
/// cold.
const TARGET_CHUNKS_PER_THREAD: usize = 8;

/// Adaptive chunk size for an `n`-item batch on `threads` workers: about
/// [`TARGET_CHUNKS_PER_THREAD`] chunks per worker, clamped to `[16, 4096]`
/// items so tiny batches do not shred into per-item claims and huge batches
/// do not starve the tail. Single-threaded runs take one chunk.
pub fn chunk_size_for(n: usize, threads: usize) -> usize {
    if threads <= 1 {
        return n.max(1);
    }
    (n / (threads * TARGET_CHUNKS_PER_THREAD)).clamp(16, 4096)
}

/// Test-only override of [`Parallelism::auto`]'s cached thread budget.
///
/// `Parallelism::auto` reads `PC_KERNEL_THREADS` **once** per process (hot
/// paths must not call `std::env::var` per scoring call), so determinism
/// tests that used to flip the variable mid-process call this instead:
/// `Some(n)` pins `auto()` to `n` threads, `None` restores the cached
/// process-wide value. Output never depends on the thread count, so this is
/// an exercise knob, not a correctness one.
pub fn set_auto_thread_override(threads: Option<usize>) {
    AUTO_OVERRIDE.store(threads.unwrap_or(0), Ordering::Release);
}

/// `0` means "no override"; `set_auto_thread_override(Some(0))` is clamped up
/// by `Parallelism::new` anyway.
static AUTO_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Process-wide `PC_KERNEL_THREADS`-or-`available_parallelism` budget,
/// parsed exactly once.
static AUTO_THREADS: OnceLock<usize> = OnceLock::new();

/// How many worker threads a chunked run may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    threads: usize,
}

impl Parallelism {
    /// Exactly `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// Single-threaded: chunks run inline on the caller.
    pub fn single() -> Self {
        Self::new(1)
    }

    /// The machine's available parallelism, overridable with the
    /// `PC_KERNEL_THREADS` environment variable. The variable is read once
    /// per process and cached — see [`set_auto_thread_override`] for the
    /// hook determinism tests use to vary the budget after that.
    pub fn auto() -> Self {
        let forced = AUTO_OVERRIDE.load(Ordering::Acquire);
        if forced > 0 {
            return Self::new(forced);
        }
        let threads = *AUTO_THREADS.get_or_init(|| {
            std::env::var("PC_KERNEL_THREADS")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or_else(|| {
                    std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1)
                })
        });
        Self::new(threads)
    }

    /// Worker thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Self::auto()
    }
}

thread_local! {
    /// Set while this thread runs chunks of a parallel [`map_chunked`]; a
    /// nested call runs inline instead of spawning threads of its own.
    static IN_MAP: Cell<bool> = const { Cell::new(false) };
}

/// Most helper threads one call spawns: `max(available_parallelism, 4) - 1`.
/// The floor of 4 keeps the parallel path exercised where
/// `available_parallelism` is 1 (CI containers); output never depends on it.
fn helper_cap() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        thread::available_parallelism()
            .map_or(1, |n| n.get())
            .max(4)
            - 1
    })
}

/// Maps `f` over `0..n` in chunks of `chunk_size`, in index order, for every
/// thread count. The caller and up to `par.threads() - 1` scoped helpers claim
/// chunks until none are left; the helpers are joined before this returns.
///
/// # Panics
///
/// Panics if `chunk_size` is zero, or propagates the first participant
/// panic (exactly once, after every participant has stopped): the caller's
/// own, else the first helper's in spawn order. As on the inline path, a
/// chunk nobody had claimed when a panic struck may not run at all.
pub fn map_chunked<R, F>(n: usize, chunk_size: usize, par: Parallelism, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    assert!(chunk_size > 0, "chunk size must be positive");
    let participants = par.threads().min(n.div_ceil(chunk_size));
    if participants <= 1 || IN_MAP.with(Cell::get) {
        return (0..n).map(f).collect();
    }
    let mut out: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
    let claims = Mutex::new(out.chunks_mut(chunk_size).enumerate());
    let work = || {
        IN_MAP.with(|flag| flag.set(true));
        let result = catch_unwind(AssertUnwindSafe(|| loop {
            crate::sched::yield_point("pool.claim");
            let claimed = claims.lock().unwrap_or_else(PoisonError::into_inner).next();
            let Some((c, slots)) = claimed else {
                return;
            };
            for (slot, i) in slots.iter_mut().zip(c * chunk_size..) {
                *slot = Some(f(i));
            }
        }));
        IN_MAP.with(|flag| flag.set(false));
        result
    };
    let panic = thread::scope(|s| {
        // A helper that fails to spawn leaves its share to the others.
        let helpers: Vec<_> = (0..(participants - 1).min(helper_cap()))
            .filter_map(|_| {
                thread::Builder::new()
                    .name("pc-kernel".into())
                    .spawn_scoped(s, work)
                    .ok()
            })
            .collect();
        // The scope joins any helper not joined here before it returns.
        work().err().or_else(|| {
            helpers
                .into_iter()
                .find_map(|h| h.join().unwrap_or_else(Err).err())
        })
    });
    if let Some(p) = panic {
        resume_unwind(p);
    }
    // No participant panicked, so every chunk was claimed and filled.
    out.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_is_ordered_and_complete() {
        for threads in 1..=4 {
            let out = map_chunked(1000, 7, Parallelism::new(threads), |i| i * 2);
            assert_eq!(out.len(), 1000, "threads={threads}");
            assert!(out.iter().enumerate().all(|(i, &v)| v == i * 2));
        }
    }

    #[test]
    fn result_independent_of_thread_count() {
        let reference = map_chunked(537, 256, Parallelism::single(), |i| i * i % 97);
        for threads in 2..=5 {
            let out = map_chunked(537, 256, Parallelism::new(threads), |i| i * i % 97);
            assert_eq!(out, reference, "threads={threads}");
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out = map_chunked(0, 16, Parallelism::new(4), |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn worker_panic_propagates() {
        let r = std::panic::catch_unwind(|| {
            map_chunked(8, 1, Parallelism::new(2), |i| {
                assert!(i != 5, "boom");
                i
            })
        });
        assert!(r.is_err());
    }

    #[test]
    fn worker_panic_reports_original_payload_exactly_once() {
        // An older pool filed results through a Mutex; a panicking worker
        // poisoned it and siblings double-panicked on `lock().expect(…)`,
        // burying the original message. The caller must see the worker's
        // own payload.
        let r = std::panic::catch_unwind(|| {
            map_chunked(64, 1, Parallelism::new(4), |i| {
                assert!(i != 17, "original worker panic 17");
                i
            })
        });
        let payload = r.expect_err("a worker panicked");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            msg.contains("original worker panic 17"),
            "panic payload was {msg:?}, not the worker's own"
        );
        // The pool must stay serviceable after a panicked job.
        let out = map_chunked(100, 8, Parallelism::new(4), |i| i + 1);
        assert_eq!(out[99], 100);
    }

    #[test]
    fn pool_survives_repeated_panics() {
        for round in 0..10 {
            let r = std::panic::catch_unwind(|| {
                map_chunked(32, 1, Parallelism::new(3), |i| {
                    assert!(i != 31, "round {round}");
                    i
                })
            });
            assert!(r.is_err(), "round {round}");
        }
        assert_eq!(map_chunked(8, 2, Parallelism::new(3), |i| i).len(), 8);
    }

    #[test]
    fn nested_parallel_calls_run_inline_without_deadlock() {
        let out = map_chunked(64, 4, Parallelism::new(4), |i| {
            // A nested parallel map from inside a task runs inline rather
            // than spawning threads of its own.
            map_chunked(8, 2, Parallelism::new(4), |j| i * 8 + j)
                .into_iter()
                .sum::<usize>()
        });
        let want: Vec<usize> = (0..64).map(|i| (0..8).map(|j| i * 8 + j).sum()).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn concurrent_callers_each_get_their_own_output() {
        let results: Vec<Vec<usize>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|k| {
                    s.spawn(move || map_chunked(500, 16, Parallelism::new(3), move |i| i * (k + 1)))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (k, out) in results.iter().enumerate() {
            assert!(out.iter().enumerate().all(|(i, &v)| v == i * (k + 1)));
        }
    }

    #[test]
    fn parallelism_clamps_to_one() {
        assert_eq!(Parallelism::new(0).threads(), 1);
        assert!(Parallelism::auto().threads() >= 1);
    }

    #[test]
    fn auto_override_hook_wins_until_cleared() {
        set_auto_thread_override(Some(3));
        assert_eq!(Parallelism::auto().threads(), 3);
        set_auto_thread_override(Some(7));
        assert_eq!(Parallelism::auto().threads(), 7);
        set_auto_thread_override(None);
        assert!(Parallelism::auto().threads() >= 1);
    }

    #[test]
    fn chunk_size_adapts_to_batch_and_threads() {
        // Single-threaded: one chunk, no pool.
        assert_eq!(chunk_size_for(10_000, 1), 10_000);
        // 10k items on 4 threads: ~8 chunks per thread.
        let c = chunk_size_for(10_000, 4);
        assert!((200..=400).contains(&c), "chunk={c}");
        // Tiny batches never shred below 16 items per chunk.
        assert_eq!(chunk_size_for(100, 8), 16);
        // Huge batches cap at 4096 so the tail still balances.
        assert_eq!(chunk_size_for(10_000_000, 2), 4096);
        assert_eq!(chunk_size_for(0, 1), 1);
    }
}
