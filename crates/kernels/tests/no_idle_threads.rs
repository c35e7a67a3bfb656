//! A parallel `map_chunked` leaves no thread behind: the process's thread
//! count returns to its starting value once the call has returned. Linux
//! only (it counts `/proc/self/task`); the test runs alone in its own binary
//! so no sibling test starts or ends threads meanwhile.

#![cfg(target_os = "linux")]

use pc_kernels::{map_chunked, Parallelism};
use std::time::{Duration, Instant};

fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("list /proc/self/task")
        .count()
}

#[test]
fn no_thread_outlives_a_parallel_call() {
    let before = thread_count();
    let out = map_chunked(64, 1, Parallelism::new(4), |i| i * 3);
    assert_eq!(out, (0..64).map(|i| i * 3).collect::<Vec<_>>());
    // A joined thread can stay listed for a moment after it exits.
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut after = thread_count();
    while after != before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
        after = thread_count();
    }
    assert_eq!(after, before, "threads before and after the call");
}
