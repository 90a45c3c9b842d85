//! Byte-tracking global allocator: the benchmark's heap instrument.
//!
//! `LIVE` follows every allocation, deallocation and reallocation on every
//! thread (requested sizes). The benchmark declares how much of that is its
//! own growable state (`GENERATOR`, see [`set_generator`]); the rest is the
//! program's, and `PEAK` is the program's high-water mark since the last
//! [`reset_peak`]. Generator-only work between program calls runs inside
//! [`off_peak`], so its transients never reach the peak. The readings are
//! taken at points where the benchmark itself is quiescent; relaxed
//! ordering suffices because each counter publishes no other data.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

pub struct TrackingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static GENERATOR: AtomicUsize = AtomicUsize::new(0);
static PAUSED: AtomicBool = AtomicBool::new(false);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    if PAUSED.load(Ordering::Relaxed) {
        return;
    }
    let program = live.saturating_sub(GENERATOR.load(Ordering::Relaxed));
    // A plain load first keeps the peak's cache line shared between cores
    // except when the peak actually moves.
    if program > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(program, Ordering::Relaxed);
    }
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's own pointer
// and layout, so `System` upholds the `GlobalAlloc` contract; the counters
// only observe sizes.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller guarantees `layout` has non-zero size.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: `ptr` was allocated by this allocator (hence by `System`)
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= layout.size() {
            grow(new_size - layout.size());
        } else {
            shrink(layout.size() - new_size);
        }
        // SAFETY: the caller guarantees `ptr`/`layout` describe a live
        // allocation of this allocator and `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap bytes the program holds: everything allocated, less the
/// generator's declared growth.
pub fn live() -> usize {
    LIVE.load(Ordering::Relaxed)
        .saturating_sub(GENERATOR.load(Ordering::Relaxed))
}

/// Highest [`live`] value since the last [`reset_peak`].
pub fn peak() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Restarts the high-water mark from the current live total.
pub fn reset_peak() {
    PEAK.store(live(), Ordering::Relaxed);
}

/// Declares the heap the generator's growable buffers have gained since
/// its baseline; [`live`] and the peak exclude it from then on.
pub fn set_generator(bytes: usize) {
    GENERATOR.store(bytes, Ordering::Relaxed);
}

/// Runs generator-only work — nothing of the program runs meanwhile, as
/// between the frames of a closed loop — without moving the peak. `f`
/// should end by declaring the generator's growth ([`set_generator`]).
pub fn off_peak<R>(f: impl FnOnce() -> R) -> R {
    PAUSED.store(true, Ordering::Relaxed);
    let r = f();
    PAUSED.store(false, Ordering::Relaxed);
    r
}
