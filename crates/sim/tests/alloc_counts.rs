//! Heap allocations of a controlled run and of a trace ring, counted by a
//! global allocator that tallies the calling thread's allocations and
//! live bytes before forwarding to the system allocator.
//!
//! A controlled run records its schedule into flat buffers, so ten times
//! more decisions cost only a few more (amortized) buffer growths, not
//! allocations per decision or per access. A trace ring grows on demand,
//! so a large bound costs nothing until it is used.

use elision_sim::{TraceEvent, TraceRing};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Tally one allocation call (`calls` is 1 for an allocation or a
/// reallocation, 0 for a free) and its change in live bytes.
fn tally(calls: u64, bytes: i64) {
    // `try_with`: a thread being torn down has no counters left.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + calls));
    let _ = LIVE_BYTES.try_with(|c| c.set(c.get() + bytes));
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the tally touches only const-initialized thread-locals,
// which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(1, layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        tally(0, -(layout.size() as i64));
        // SAFETY: `ptr` came from this allocator, that is from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(1, new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from `System`; the caller upholds the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

/// Allocations of one controlled 2-thread run in which each thread notes
/// one access before each of its `advances` advances, schedule included.
/// Counted on this thread only, so the fiber executor (which runs the
/// simulated threads on the calling thread) is required.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn controlled_run_allocs(advances: usize) -> u64 {
    use elision_sim::{ScheduleControl, SimBuilder};
    use std::sync::Arc;

    let before = allocs();
    let ctl = Arc::new(ScheduleControl::new(2, &[]));
    SimBuilder::new(2).control(Arc::clone(&ctl)).run(move |ctx| {
        for i in 0..advances {
            ctx.handle.note_access(((ctx.id + i) % 3) as u32, i % 2 == 0);
            ctx.handle.advance(5 + 3 * ctx.id as u64);
        }
    });
    let steps = ctl.steps();
    assert_eq!(steps.len(), 2 * advances);
    // Each thread's first access precedes the first decision: unrecorded.
    let recorded: usize = (0..steps.len()).map(|i| steps.accesses(i).len()).sum();
    assert_eq!(recorded, 2 * advances - 2);
    drop(steps);
    allocs() - before
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
#[test]
fn controlled_run_allocations_do_not_grow_per_decision() {
    // Warm up: the first run on a thread fills its fiber stack pool.
    controlled_run_allocs(50);
    let short = controlled_run_allocs(50);
    let long = controlled_run_allocs(500);
    assert!(
        long <= short + 32,
        "900 more decisions and accesses cost {} more allocations ({short} -> {long})",
        long.saturating_sub(short)
    );
}

#[test]
fn trace_ring_costs_what_it_holds_not_its_bound() {
    let before = live_bytes();
    let mut ring = TraceRing::new(4096);
    for t in 0..10 {
        ring.record(t, TraceEvent::Custom("step", t));
    }
    let held = live_bytes() - before;
    assert_eq!(ring.len(), 10);
    assert!(held <= 1024, "a ring holding 10 events takes {held} bytes");
}
