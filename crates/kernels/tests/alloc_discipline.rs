//! Allocation discipline of `map_chunked`: its allocations do not grow with
//! the chunk count — no per-chunk boxes, no result filing vectors. A parallel
//! call allocates its output and what spawning its helper threads costs; an
//! inline call allocates its output alone. The test runs alone in its own
//! binary so the process-wide counter sees only `map_chunked`'s traffic.

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
    // Warm: the first parallel call initializes process-wide state (such as
    // the cached helper cap) that later calls reuse.
    allocs_for(1_000, 16, par);

    let n = 100_000;
    // 4 chunks vs 6250 chunks over the same work, both on 4 threads: the
    // helpers spawned are the same, so the counts must match.
    let coarse = allocs_for(n, 25_000, par);
    let fine = allocs_for(n, 16, par);
    assert_eq!(
        fine, coarse,
        "allocation count must not scale with chunk count"
    );

    // Single-threaded calls run inline and allocate the output alone (a
    // small slack tolerates allocator-internal bookkeeping, not per-chunk
    // costs — 6250 chunks would blow straight past it).
    let inline = allocs_for(n, 16, Parallelism::single());
    assert!(inline <= 4, "inline map_chunked allocated {inline} times");
}
