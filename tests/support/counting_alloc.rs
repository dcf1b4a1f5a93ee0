//! A counting global allocator for the allocation-count tests
//! (`baggage_allocs.rs`, `invoke_allocs.rs`, `report_allocs.rs`,
//! `peer_names.rs`), pulled in with `#[path]`. Counts per thread, so the
//! harness's other threads do not interfere.

#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated minus bytes it freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn live(delta: i64) {
    LIVE.with(|b| b.set(b.get() + delta));
}

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is a bump of const-initialised, destructor-free thread-local counters,
// which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        live(layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        live(new_size as i64 - layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns how many times this thread asked for memory.
pub fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// Runs `f` and returns how many bytes this thread allocated in it and
/// did not free: what `f` left behind, its result included.
pub fn retained<R>(f: impl FnOnce() -> R) -> (i64, R) {
    let before = LIVE.with(Cell::get);
    let out = f();
    (LIVE.with(Cell::get) - before, out)
}
