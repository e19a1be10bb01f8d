//! Heap allocations of lazy-subscription attempts over the CLH lock,
//! counted by a global allocator that tallies the calling thread's
//! allocation calls before forwarding to the system allocator.
//!
//! A `HardwareCommit` attempt hands the lock's subscription descriptor to
//! the commit, and a controlled commit reads the descriptor's lines into
//! its footprint. The CLH descriptor shares the lock's node table and the
//! lines come from an iterator, so neither allocates.

use elision_core::{make_scheme, LazyMode, LockKind, SchemeConfig, SchemeKind};
use elision_htm::{harness, HtmConfig, MemoryBuilder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

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

/// Allocations of `attempts` opt-SLR critical sections over CLH in
/// `mode`, each one committed speculative attempt, after ten warm-up
/// sections. Counted on the simulated thread, which is the calling host
/// thread's fiber in a `controlled` run.
fn clh_attempt_allocs(mode: LazyMode, controlled: bool, attempts: usize) -> u64 {
    let mut b = MemoryBuilder::new();
    let x = b.alloc_isolated(0);
    let cfg = SchemeConfig::paper().with_lazy_mode(mode);
    let scheme = make_scheme(SchemeKind::OptSlr, LockKind::Clh, cfg, &mut b, 1);
    let mem = Arc::new(b.freeze(1));
    let body = move |s: &mut elision_htm::Strand| {
        let section = |s: &mut elision_htm::Strand| {
            let out = scheme.execute(s, |s| s.fetch_add(x, 1));
            assert_eq!((out.attempts, out.nonspeculative), (1, false), "{mode:?}");
        };
        for _ in 0..10 {
            section(s);
        }
        let before = allocs();
        for _ in 0..attempts {
            section(s);
        }
        allocs() - before
    };
    let htm = HtmConfig::deterministic();
    let results = if controlled {
        harness::run_arc_controlled(1, htm, 1, &[], mem, body).1
    } else {
        harness::run_arc(1, 0, htm, 1, mem, body).0
    };
    results[0]
}

#[test]
fn steady_state_clh_hardware_commit_attempts_allocate_nothing() {
    for mode in [LazyMode::HardwareCommit, LazyMode::Unfenced] {
        assert_eq!(clh_attempt_allocs(mode, false, 200), 0, "{mode:?}");
    }
}

/// A controlled run records every decision into growing schedule
/// buffers, so its count is compared across lengths: ten times more
/// attempts may cost a few more amortized buffer growths, not one
/// allocation per attempt.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
#[test]
fn controlled_clh_hardware_commit_allocations_do_not_grow_per_attempt() {
    let short = clh_attempt_allocs(LazyMode::HardwareCommit, true, 50);
    let long = clh_attempt_allocs(LazyMode::HardwareCommit, true, 500);
    assert!(
        long <= short + 32,
        "450 more attempts cost {} more allocations ({short} -> {long})",
        long.saturating_sub(short)
    );
}
