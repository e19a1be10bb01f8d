//! Heap allocations of a controlled run, counted by a global allocator
//! that tallies the calling thread's allocation calls before forwarding
//! to the system allocator.
//!
//! A controlled run records its schedule into flat buffers, so ten times
//! more decisions cost only a few more (amortized) buffer growths, not
//! allocations per decision or per access.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Tally one allocation or reallocation call.
fn tally() {
    // `try_with`: a thread being torn down has no counter left.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the tally touches only const-initialized thread-locals,
// which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        // SAFETY: `ptr` came from `System`; the caller upholds the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
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
