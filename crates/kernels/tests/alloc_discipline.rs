//! Allocation discipline of the worker pool: once the pool is warm, a
//! `map_chunked` call allocates the output buffer and nothing else — no
//! per-chunk boxes, no result filing vectors, no re-spawned threads. The
//! test runs alone in its own binary so the process-wide counter sees only
//! the pool's traffic.

use pc_kernels::{map_chunked, Parallelism};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// `System` with a process-wide allocation counter.
struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: pure pass-through to `System`; the counter is the only addition
// and allocator correctness (layout fidelity, pointer validity) is exactly
// `System`'s.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: caller upholds `GlobalAlloc`'s contract; forwarded verbatim.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller passed.
        unsafe { System.alloc(layout) }
    }
    // SAFETY: caller upholds `GlobalAlloc`'s contract; forwarded verbatim.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    // SAFETY: caller upholds `GlobalAlloc`'s contract; forwarded verbatim.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` was returned by `System.alloc` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

/// Allocations observed across one `map_chunked` call.
fn allocs_for(n: usize, chunk: usize, par: Parallelism) -> usize {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = map_chunked(n, chunk, par, |i| i as u64 * 3);
    assert_eq!(out.len(), n);
    assert_eq!(out[n / 2], (n / 2) as u64 * 3);
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn warm_pool_allocations_are_independent_of_chunk_count() {
    let par = Parallelism::new(4);
    // Warm: the first parallel call spawns the worker threads, which
    // allocate as they start. A job the caller can finish alone may end
    // before they do, so each of these four tasks waits for all four to
    // start: every worker must join, and so must have started, before the
    // counting begins.
    let started = AtomicUsize::new(0);
    map_chunked(4, 1, par, |i| {
        started.fetch_add(1, Ordering::SeqCst);
        while started.load(Ordering::SeqCst) < 4 {
            std::thread::yield_now();
        }
        i
    });

    let n = 100_000;
    // 2 chunks vs 6250 chunks over the same work.
    let coarse = allocs_for(n, 50_000, par);
    let fine = allocs_for(n, 16, par);
    assert_eq!(
        fine, coarse,
        "allocation count must not scale with chunk count"
    );
    // The only allocation budget is the output buffer (plus nothing hidden:
    // a small slack tolerates allocator-internal bookkeeping, not per-chunk
    // costs — 6250 chunks would blow straight past it).
    assert!(fine <= 4, "map_chunked allocated {fine} times");

    // Single-threaded calls run inline and obey the same discipline.
    let inline = allocs_for(n, 16, Parallelism::single());
    assert!(inline <= 4, "inline map_chunked allocated {inline} times");
}
