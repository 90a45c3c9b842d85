//! Per-thread allocation counting for the zero-allocation proofs.
//!
//! Install [`ThreadCountingAlloc`] as the test binary's
//! `#[global_allocator]` and wrap the code under test in
//! [`count_allocations`]. Only allocations made *by the calling thread
//! while the closure runs* are counted: the flag and the counter are
//! `thread_local!`, so sibling tests running in parallel on other threads
//! (their warm-up, their fixtures, the harness itself) cannot leak into the
//! count. Work the code under test hands to other threads is not counted
//! either, so a test must make sure the work it proves allocation-free runs
//! on its own thread.
//!
//! This is deliberately narrower than `bench_fleet`'s tracking allocator,
//! which counts every thread on purpose: it measures the whole process's
//! footprint, not one code path.
//!
//! Shared by `crates/core/tests/alloc_free.rs` and
//! `crates/runtime/tests/alloc_free_bank.rs` through `#[path]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting the allocations of armed threads.
pub struct ThreadCountingAlloc;

fn note() {
    // `try_with`: the allocator can run while this thread's locals are
    // being torn down; nothing is armed then.
    let armed = ARMED.try_with(Cell::get).unwrap_or(false);
    if armed {
        let _ = COUNT.try_with(|c| c.set(c.get() + 1));
    }
}

unsafe impl GlobalAlloc for ThreadCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }
}

/// Runs `f` on the calling thread and returns its result with the number of
/// heap allocations (including reallocations) the thread made inside it.
pub fn count_allocations<R>(f: impl FnOnce() -> R) -> (R, usize) {
    COUNT.with(|c| c.set(0));
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (out, COUNT.with(Cell::get))
}
