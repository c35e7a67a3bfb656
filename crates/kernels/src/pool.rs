//! A deterministic chunked thread pool over **persistent workers**.
//!
//! Work over `0..n` is split into chunks; workers claim chunk indices from an
//! atomic counter and write each chunk's result at its own index in a
//! pre-sized output buffer, so the assembled output is **independent of the
//! thread count and of scheduling** — only wall-clock changes. One thread (or
//! one chunk) runs inline with zero pool overhead.
//!
//! The first parallel run spawns the worker threads once per process; after
//! that a batch costs two condvar handoffs, not N `std::thread::spawn`s. At
//! the ~300µs scale of a 1k-chip scoring batch the old per-call
//! `std::thread::scope` spent as long creating threads as scoring, which is
//! exactly the flat `packed_parallel` curve ROADMAP item 2 records. Filing
//! results by chunk index into a preallocated buffer also removes the old
//! `Mutex<Vec<(usize, R)>>` + sort + flatten: a steady-state `map_chunked`
//! performs one allocation (the output), however many chunks it runs.
//!
//! Lifetime erasure of the caller's closure and the disjoint chunk-indexed
//! writes are the crate's only `unsafe` (see the `SAFETY:` comments; lint
//! U003 pins `unsafe` to this module and `simd.rs`).

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

/// How many chunks each worker should see on average: enough that a slow
/// chunk rebalances across the pool, few enough that the claim counter stays
/// cold in the cache.
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

/// One installed job: the lifetime-erased task closure, how many task
/// indices it spans, and how many pool workers may join the crew (the
/// submitting caller always works too).
#[derive(Clone, Copy)]
struct Job {
    task: *const (dyn Fn(usize) + Sync),
    tasks: usize,
    participants: usize,
}

// SAFETY: crew members dereference the raw closure pointer only between job
// installation and `run_tasks` observing `active == 0`, and `run_tasks` never
// returns (or unwinds) before that; the pointee is `Sync`, so shared calls ok.
unsafe impl Send for Job {}

struct State {
    /// Bumped once per installed job so parked workers can tell a new job
    /// from a spurious wake.
    epoch: u64,
    job: Option<Job>,
    /// Workers that have joined the current job's crew (joining happens
    /// under this lock, so a joined worker is always covered by `active`
    /// before the submitting caller can observe completion).
    joined: usize,
    /// Pool workers still inside the current job.
    active: usize,
    /// First panic filed by any participant (workers or caller).
    panic: Option<Box<dyn std::any::Any + Send>>,
}

struct Shared {
    state: Mutex<State>,
    /// Workers park here between jobs.
    work_cv: Condvar,
    /// The submitting caller parks here until `active == 0`.
    done_cv: Condvar,
    /// Other would-be submitters park here until the single job slot frees.
    queue_cv: Condvar,
    /// Chunk claim counter of the current job.
    next: AtomicUsize,
    workers: usize,
}

thread_local! {
    /// Set while this thread is a pool worker or is inside `Pool::run`;
    /// nested parallel calls would deadlock on the single job slot, so they
    /// run inline instead.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// The process-wide pool, spawned on first parallel use.
static POOL: OnceLock<&'static Shared> = OnceLock::new();

fn pool() -> &'static Shared {
    POOL.get_or_init(|| {
        // Sized so the machinery is exercised even where
        // `available_parallelism` is 1 (CI containers): correctness never
        // depends on worker count, and idle workers park.
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .max(4)
            - 1;
        let shared: &'static Shared = Box::leak(Box::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                joined: 0,
                active: 0,
                panic: None,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            queue_cv: Condvar::new(),
            next: AtomicUsize::new(0),
            workers,
        }));
        for i in 0..workers {
            std::thread::Builder::new()
                .name(format!("pc-kernel-{i}"))
                .spawn(move || worker_loop(shared))
                .expect("spawn kernel pool worker");
        }
        shared
    })
}

/// Claims task indices until the counter runs dry, filing the first panic.
/// Returns whether this participant panicked.
fn claim_tasks(shared: &Shared, job: &Job) -> Option<Box<dyn std::any::Any + Send>> {
    let result = catch_unwind(AssertUnwindSafe(|| loop {
        let t = shared.next.fetch_add(1, Ordering::Relaxed);
        crate::sched::yield_point("pool.claim");
        if t >= job.tasks {
            return;
        }
        // SAFETY: the submitting caller keeps the closure alive until every
        // participant has drained the claim counter (it blocks on `done_cv`
        // and its own claim loop before returning) — see `Job`.
        (unsafe { &*job.task })(t);
    }));
    result.err()
}

fn worker_loop(shared: &'static Shared) {
    IN_POOL.with(|f| f.set(true));
    let mut last_epoch = 0u64;
    loop {
        // Joining happens under the state lock: a worker only ever acts on
        // the job it observed while holding the lock, and once joined it is
        // counted in `active`, so the submitting caller cannot retire the
        // job (and its borrowed closure) before this worker is done.
        let job = {
            let mut st = shared.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if st.epoch != last_epoch {
                    last_epoch = st.epoch;
                    if let Some(job) = st.job {
                        if st.joined < job.participants {
                            st.joined += 1;
                            break job;
                        }
                        // Full crew already; sleep until the next epoch.
                    }
                }
                st = shared.work_cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        crate::sched::yield_point("pool.work");
        let panic = claim_tasks(shared, &job);
        let mut st = shared.state.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(p) = panic {
            st.panic.get_or_insert(p);
        }
        st.active -= 1;
        if st.active == 0 {
            shared.done_cv.notify_all();
        }
    }
}

/// Runs `task(0)`, `task(1)`, …, `task(tasks - 1)` exactly once each, using
/// up to `par.threads() - 1` pool workers plus the calling thread. Blocks
/// until every index has run; propagates the first participant panic exactly
/// once after every crew member has finished (workers never see a poisoned
/// lock — there is no result lock to poison). As on the inline path, a task
/// nobody had claimed when the caller panicked may not run at all.
fn run_tasks(par: Parallelism, tasks: usize, task: &(dyn Fn(usize) + Sync)) {
    let inline = par.threads() <= 1 || tasks <= 1 || IN_POOL.with(|f| f.get());
    if inline {
        for t in 0..tasks {
            task(t);
        }
        return;
    }
    crate::sched::yield_point("pool.submit");
    let shared = pool();
    let participants = (par.threads() - 1).min(shared.workers).min(tasks - 1);
    if participants == 0 {
        for t in 0..tasks {
            task(t);
        }
        return;
    }

    // SAFETY: the transmute only erases the borrow's lifetime; this function
    // does not return (or unwind) until `active == 0` — see `Job`.
    let erased: *const (dyn Fn(usize) + Sync) =
        unsafe { std::mem::transmute(task as *const (dyn Fn(usize) + Sync + '_)) };
    let job = Job {
        task: erased,
        tasks,
        participants,
    };

    {
        let mut st = shared.state.lock().unwrap_or_else(|e| e.into_inner());
        while st.job.is_some() {
            st = shared.queue_cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        shared.next.store(0, Ordering::Release);
        st.job = Some(job);
        st.joined = 0;
        st.active = participants;
        st.epoch = st.epoch.wrapping_add(1);
        st.panic = None;
        // One wake per crew seat: waking every parked worker for a one-seat
        // crew only sends the rest back to sleep. A worker busy elsewhere
        // sees the new epoch without a wake.
        for _ in 0..participants {
            shared.work_cv.notify_one();
        }
    }
    crate::sched::yield_point("pool.installed");

    // The caller is always the (participants + 1)-th crew member.
    IN_POOL.with(|f| f.set(true));
    let caller_panic = claim_tasks(shared, &job);
    IN_POOL.with(|f| f.set(false));

    crate::sched::yield_point("pool.done");
    let panic = {
        let mut st = shared.state.lock().unwrap_or_else(|e| e.into_inner());
        // Every task is claimed (unless the caller panicked, which fails the
        // job anyway), so a seat no worker has taken yet has nothing left to
        // run: close the crew and wait only for the members still inside the
        // job. On a busy host a parked worker can take longer to wake than
        // the whole job takes.
        st.active -= participants - st.joined;
        st.joined = participants;
        while st.active > 0 {
            st = shared.done_cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        if let Some(p) = caller_panic {
            st.panic.get_or_insert(p);
        }
        st.job = None;
        let panic = st.panic.take();
        shared.queue_cv.notify_one();
        panic
    };
    if let Some(p) = panic {
        resume_unwind(p);
    }
}

/// A `Send`-wrapped raw output pointer for disjoint chunk-indexed writes.
struct OutPtr<R>(*mut R);
// SAFETY: participants write through the pointer at pairwise-disjoint
// indices (each task index is claimed exactly once), and the buffer outlives
// the job because the submitting caller owns it across `run_tasks`.
unsafe impl<R: Send> Send for OutPtr<R> {}
// SAFETY: as above — all access is to disjoint elements.
unsafe impl<R: Send> Sync for OutPtr<R> {}

/// Runs `fill(c, out)` for every task index `c` in `0..tasks`, then stamps
/// the output length. The `fill` closures must together initialize every
/// element in `0..total`, each exactly once.
fn with_output<R: Send, F: Fn(usize, &OutPtr<R>) + Sync>(
    par: Parallelism,
    tasks: usize,
    total: usize,
    fill: F,
) -> Vec<R> {
    let mut out: Vec<R> = Vec::with_capacity(total);
    let ptr = OutPtr(out.as_mut_ptr());
    run_tasks(par, tasks, &|c| fill(c, &ptr));
    // SAFETY: every index in `0..total` was written exactly once by the
    // completed tasks above; on the panic path `run_tasks` unwinds first, so
    // the vector keeps length 0 and written elements leak, never double-drop.
    unsafe {
        out.set_len(total);
    }
    out
}

/// Maps `f` over `0..n` in chunks of `chunk_size` claimed by the workers,
/// writing each value straight into its slot of the output (one allocation
/// per call, no per-chunk buffers), in index order, for every thread count.
///
/// # Panics
///
/// Panics if `chunk_size` is zero, or propagates the first worker panic
/// (exactly once, after all sibling chunks have finished).
pub fn map_chunked<R, F>(n: usize, chunk_size: usize, par: Parallelism, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    assert!(chunk_size > 0, "chunk size must be positive");
    let chunks = n.div_ceil(chunk_size);
    let range = |c: usize| c * chunk_size..((c + 1) * chunk_size).min(n);
    with_output(par, chunks, n, |c, out: &OutPtr<R>| {
        for i in range(c) {
            let r = f(i);
            // SAFETY: index `i` belongs to chunk `c` alone; each index is
            // written exactly once and is within the `n`-capacity buffer.
            unsafe {
                out.0.add(i).write(r);
            }
        }
    })
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
        // The old pool filed results through a Mutex; a panicking worker
        // poisoned it and siblings double-panicked on `lock().expect(…)`,
        // burying the original message. The lock-free pool must surface the
        // worker's own payload.
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
            // A nested parallel map from inside a task must not deadlock on
            // the single job slot.
            map_chunked(8, 2, Parallelism::new(4), |j| i * 8 + j)
                .into_iter()
                .sum::<usize>()
        });
        let want: Vec<usize> = (0..64).map(|i| (0..8).map(|j| i * 8 + j).sum()).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn concurrent_submitters_serialize_on_the_job_slot() {
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
