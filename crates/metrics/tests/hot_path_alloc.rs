//! Proof that steady-state recording is allocation-free: counters, gauges,
//! and histogram shards must not touch the heap once registered.
//!
//! Uses a counting global allocator; the lib crate itself stays
//! `forbid(unsafe_code)` — the unsafe lives only in this test binary.

use lowbit_metrics::{HistSpec, Registry};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations made by the current thread: tests added to this binary
    /// run in parallel and must not count each other's allocations. The
    /// const initialiser and the `Drop`-free `Cell` keep the access itself
    /// allocation-free.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn recording_is_allocation_free_after_registration() {
    let registry = Registry::new();
    // Registration may allocate freely: families, label vectors, cells.
    let counter = registry.counter("serve_completed_total", "done", &[("class", "demo-w4")]);
    let gauge = registry.gauge("queue_depth", "depth", &[]);
    let hist = registry.histogram(
        "serve_total_ms",
        "latency",
        &[("class", "demo-w4")],
        HistSpec::latency_ms(),
    );
    let shard = hist.shard();

    // Touch every path once so lazy effects (if any) settle.
    counter.inc();
    gauge.set(1.0);
    shard.record(2.5);
    hist.record(3.5);

    let before = allocations();
    for i in 0..10_000u64 {
        counter.add(i % 3);
        gauge.set(i as f64);
        shard.record(0.5 + (i % 100) as f64);
        hist.record(0.25 + (i % 50) as f64);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "hot-path recording must not allocate (saw {} allocations)",
        after - before
    );
}
