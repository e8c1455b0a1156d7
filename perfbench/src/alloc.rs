//! Counting global allocator, installed in this binary only.
//!
//! Every allocation call (`alloc`, `alloc_zeroed`, `realloc`) is counted
//! while counting is switched on, which only the traced run does. The
//! count is exact: it does not sample and it does not depend on timing
//! when the counted code is single-threaded.
//!
//! Live heap bytes and their peak are tracked always: the peak is the
//! `peak_heap_mib` end-to-end metric.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

/// The system allocator plus an allocation counter.
pub struct Counting;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

// Relaxed ordering throughout: the counters publish no other data, and
// the reader takes them after joining every thread that allocated.
fn count() {
    if ENABLED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

fn grow(bytes: usize) {
    let bytes = bytes as i64;
    let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as i64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches no memory
// the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `layout` pass through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for it.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            grow(new_size);
            shrink(layout.size());
        }
        p
    }
}

/// Switches counting on or off.
pub fn set_counting(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Runs `f` with counting paused: the benchmark's own bookkeeping
/// inside a counted region stays out of the count. Counting is
/// process-wide, so call this only while no other thread allocates.
pub fn paused<T>(f: impl FnOnce() -> T) -> T {
    let was = ENABLED.swap(false, Ordering::Relaxed);
    let out = f();
    ENABLED.store(was, Ordering::Relaxed);
    out
}

/// Allocations counted so far.
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Restarts the live-heap peak from the current live bytes.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Peak live heap bytes since the last [`reset_peak`], in MiB.
pub fn peak_mib() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}
