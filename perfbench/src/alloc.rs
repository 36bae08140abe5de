//! A counting global allocator: live and peak heap bytes for the whole
//! process, plus allocation counts both process-wide and per thread (the
//! per-thread count is immune to allocations made by other threads, e.g.
//! sibling tests of the same test binary).
//!
//! The benchmark binary installs it with
//! `#[global_allocator] static A: CountingAlloc = CountingAlloc;`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Forwards to [`System`] and counts every allocation event.
pub struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD: Cell<Counts> = const { Cell::new(Counts { allocs: 0, bytes: 0 }) };
}

/// Allocation events and the bytes they requested (a `realloc` counts as
/// one event of its new size).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Allocation events.
    pub allocs: u64,
    /// Bytes requested by those events.
    pub bytes: u64,
}

impl Counts {
    /// Events and bytes since `earlier`.
    pub fn since(self, earlier: Counts) -> Counts {
        Counts {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

fn note_alloc(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    // `try_with`: the slot may already be gone while a thread tears down.
    let _ = THREAD.try_with(|c| {
        let t = c.get();
        c.set(Counts {
            allocs: t.allocs + 1,
            bytes: t.bytes + size as u64,
        });
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only updates counters on the side, so `System`'s guarantees
// carry over; the counters themselves never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            note_alloc(new_size);
        }
        p
    }
}

/// Process-wide allocation counts so far.
pub fn process_counts() -> Counts {
    Counts {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: ALLOC_BYTES.load(Ordering::Relaxed),
    }
}

/// The calling thread's allocation counts so far.
pub fn thread_counts() -> Counts {
    THREAD.with(Cell::get)
}

/// Starts a peak-heap window: the peak is reset to the current live bytes,
/// which are returned as the window's baseline.
pub fn start_peak_window() -> usize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// Peak live heap bytes above `baseline` since [`start_peak_window`].
pub fn peak_above(baseline: usize) -> usize {
    PEAK.load(Ordering::Relaxed).saturating_sub(baseline)
}
