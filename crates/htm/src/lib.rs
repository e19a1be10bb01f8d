//! A software-simulated best-effort hardware transactional memory.
//!
//! This crate models the TSX-style HTM that the PODC'14 paper
//! *Software-Improved Hardware Lock Elision* builds on, precisely enough
//! to reproduce its phenomena on hardware without TSX:
//!
//! * **Cache-line-granular conflict detection** with a *requestor-wins*
//!   policy: any incoming access (transactional or plain) that conflicts
//!   with a peer transaction's read/write set aborts the *peer* — the
//!   policy Haswell appears to use, which is prone to livelock and makes
//!   naive lock removal unsafe (paper §3.1, §5).
//! * **Write buffering / sandboxing**: speculative writes are invisible
//!   until commit; doomed transactions may observe inconsistent committed
//!   state but can never commit (the opacity discussion of §5).
//! * **HLE elision** ([`Strand::elide_rmw`]): an elided lock acquisition
//!   puts the lock's line in the *read set*, maintains a thread-local
//!   illusion that the lock is held, and requires the release to restore
//!   the lock's original value (§3). A real (non-transactional) lock
//!   acquisition therefore dooms every eliding transaction at once — the
//!   *lemming effect* (§4).
//! * **RTM** ([`Strand::begin`] / [`Strand::commit`] / [`Strand::xabort`])
//!   with an abort-status register ([`AbortStatus`]) carrying each
//!   abort's one classification, its [`elision_sim::AbortCause`].
//! * **Capacity and spurious aborts**, both configurable via
//!   [`HtmConfig`].
//!
//! Time is logical: every operation advances the owning simulated
//! thread's clock through [`elision_sim`].
//!
//! # Example: a transactional increment with fallback
//!
//! ```
//! use elision_htm::{harness, HtmConfig, MemoryBuilder};
//!
//! let mut b = MemoryBuilder::new();
//! let counter = b.alloc(0);
//! let mem = b.freeze(2);
//! let (_, mem, _) = harness::run(2, 0, HtmConfig::deterministic(), 42, mem, move |s| {
//!     for _ in 0..100 {
//!         loop {
//!             let done = s.attempt(|s| {
//!                 let v = s.load(counter)?;
//!                 s.store(counter, v + 1)
//!             });
//!             if done.is_ok() {
//!                 break;
//!             }
//!         }
//!     }
//! });
//! assert_eq!(mem.read_direct(counter), 200);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod abort;
mod config;
mod fault;
mod lineset;
mod memory;
pub mod placement;
mod sanitize;
mod strand;

pub use abort::{codes, Abort, AbortStatus, TxResult};
pub use config::{HtmConfig, HtmConfigError};
pub use fault::{AbortStorm, CapacitySqueeze, HotLine, HtmFaults};
pub use memory::{HwSubscription, LineId, Memory, MemoryBuilder, VarId};
pub use placement::{
    LayoutMap, PlacementConfig, PlacementPolicy, Placer, RecordArena, Region, ResolvedVar, VarRole,
};
pub use sanitize::{SanAccess, SanEvent, SanLog};
pub use strand::Strand;

/// Convenience harness: spawn `threads` simulated threads, each with a
/// [`Strand`] over the same memory, and run `body` on all of them.
pub mod harness {
    use crate::{HtmConfig, Memory, Strand};
    use elision_sim::{FaultPlan, FaultStats, Schedule, ScheduleControl, SimBuilder};
    use std::sync::Arc;

    /// Run `body` on `threads` simulated strands sharing `mem`.
    ///
    /// Returns the per-thread results, the (now quiescent) memory for
    /// post-run assertions, and the simulated makespan in cycles.
    pub fn run<R, F>(
        threads: usize,
        window: u64,
        cfg: HtmConfig,
        seed: u64,
        mem: Memory,
        body: F,
    ) -> (Vec<R>, Arc<Memory>, u64)
    where
        R: Send + 'static,
        F: Fn(&mut Strand) -> R + Clone + Send + Sync + 'static,
    {
        let mem = Arc::new(mem);
        let (results, makespan) = run_arc(threads, window, cfg, seed, Arc::clone(&mem), body);
        (results, mem, makespan)
    }

    /// Like [`run`], but over an already shared memory — used to run a
    /// separate single-threaded setup phase (e.g. pre-filling a tree)
    /// before the measured multi-threaded phase on the same memory.
    pub fn run_arc<R, F>(
        threads: usize,
        window: u64,
        cfg: HtmConfig,
        seed: u64,
        mem: Arc<Memory>,
        body: F,
    ) -> (Vec<R>, u64)
    where
        R: Send + 'static,
        F: Fn(&mut Strand) -> R + Clone + Send + Sync + 'static,
    {
        let (results, makespan, _) =
            run_arc_faulted(threads, window, cfg, seed, FaultPlan::none(), mem, body);
        (results, makespan)
    }

    /// Like [`run_arc`], but with a scheduler-level [`FaultPlan`] attached
    /// (simulated preemption and clock jitter). Also returns the
    /// per-thread injected-fault statistics (empty for an inactive plan).
    pub fn run_arc_faulted<R, F>(
        threads: usize,
        window: u64,
        cfg: HtmConfig,
        seed: u64,
        plan: FaultPlan,
        mem: Arc<Memory>,
        body: F,
    ) -> (Vec<R>, u64, Vec<FaultStats>)
    where
        R: Send + 'static,
        F: Fn(&mut Strand) -> R + Clone + Send + Sync + 'static,
    {
        if let Err(e) = cfg.validate() {
            panic!("invalid HtmConfig: {e}");
        }
        let out = SimBuilder::new(threads).window(window).faults(plan).run(move |ctx| {
            let mut strand = Strand::new(Arc::clone(&mem), ctx.handle, cfg, seed);
            body(&mut strand)
        });
        (out.results, out.makespan, out.fault_stats)
    }

    /// Like [`run_arc`], but serialized under a model-checker
    /// [`ScheduleControl`] replaying `overrides` (entry `i` forces decision
    /// `i`; `None` follows the default rule): every costed event becomes a
    /// decision point (always window 0, no faults). Returns the recorded
    /// [`Schedule`] along with the per-thread results and the makespan.
    pub fn run_arc_controlled<R, F>(
        threads: usize,
        cfg: HtmConfig,
        seed: u64,
        overrides: &[Option<usize>],
        mem: Arc<Memory>,
        body: F,
    ) -> (Schedule, Vec<R>, u64)
    where
        R: Send + 'static,
        F: Fn(&mut Strand) -> R + Clone + Send + Sync + 'static,
    {
        if let Err(e) = cfg.validate() {
            panic!("invalid HtmConfig: {e}");
        }
        let control = Arc::new(ScheduleControl::new(threads, overrides));
        let out = SimBuilder::new(threads).control(Arc::clone(&control)).run(move |ctx| {
            let mut strand = Strand::new(Arc::clone(&mem), ctx.handle, cfg, seed);
            body(&mut strand)
        });
        (control.steps(), out.results, out.makespan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abort::codes;
    use elision_sim::AbortCause;

    fn one_var_mem(threads: usize, init: u64) -> (Memory, VarId) {
        let mut b = MemoryBuilder::new();
        let v = b.alloc_isolated(init);
        (b.freeze(threads), v)
    }

    #[test]
    #[should_panic(expected = "invalid HtmConfig")]
    fn harness_rejects_out_of_range_config() {
        let (mem, _) = one_var_mem(1, 0);
        // 1500 permille storm: would silently mean "always abort".
        let cfg =
            HtmConfig::deterministic().with_faults(HtmFaults::none().with_storm(100, 10, 1500));
        harness::run(1, 0, cfg, 1, mem, |_| ());
    }

    #[test]
    fn buffered_writes_publish_only_on_commit() {
        let mut b = MemoryBuilder::new();
        let x = b.alloc(10);
        let mem = b.freeze(1);
        let (_, mem, _) = harness::run(1, 0, HtmConfig::deterministic(), 1, mem, move |s| {
            s.begin();
            s.store(x, 99).unwrap();
            // Speculative value visible to self...
            assert_eq!(s.load(x).unwrap(), 99);
            // ...but not in committed memory.
            assert_eq!(s.memory().read_direct(x), 10);
            s.commit().unwrap();
            assert_eq!(s.memory().read_direct(x), 99);
        });
        assert!(!mem.any_residual_bits());
    }

    #[test]
    fn xabort_discards_buffered_writes() {
        let mut b = MemoryBuilder::new();
        let x = b.alloc(10);
        let mem = b.freeze(1);
        let (_, mem, _) = harness::run(1, 0, HtmConfig::deterministic(), 1, mem, move |s| {
            s.begin();
            s.store(x, 99).unwrap();
            let _ = s.xabort(7, false);
            assert!(!s.in_txn());
            assert!(s.last_abort().is_explicit(7));
            assert_eq!(s.memory().read_direct(x), 10);
        });
        assert!(!mem.any_residual_bits());
    }

    #[test]
    fn nontransactional_write_dooms_reader() {
        let (mem, x) = one_var_mem(2, 0);
        let (results, ..) = harness::run(2, 0, HtmConfig::deterministic(), 1, mem, move |s| {
            if s.tid() == 0 {
                s.begin();
                s.load(x).unwrap();
                // Loop until the conflict dooms us.
                for _ in 0..10_000 {
                    if s.work(1).is_err() {
                        return Some(s.last_abort().cause);
                    }
                }
                None
            } else {
                // Give thread 0 time to begin and read, then clobber x.
                s.work(200).unwrap();
                s.store(x, 5).unwrap();
                None
            }
        });
        assert_eq!(results[0], Some(AbortCause::DataConflict));
    }

    #[test]
    fn nontransactional_read_dooms_speculative_writer() {
        let (mem, x) = one_var_mem(2, 0);
        let (results, mem, _) = harness::run(2, 0, HtmConfig::deterministic(), 1, mem, move |s| {
            if s.tid() == 0 {
                s.begin();
                s.store(x, 42).unwrap();
                for _ in 0..10_000 {
                    if s.work(1).is_err() {
                        return Some(s.last_abort().cause);
                    }
                }
                None
            } else {
                s.work(200).unwrap();
                let v = s.load(x).unwrap();
                assert_eq!(v, 0, "speculative write must not be visible");
                None
            }
        });
        assert_eq!(results[0], Some(AbortCause::DataConflict));
        assert_eq!(mem.read_direct(x), 0, "doomed writer must not publish");
    }

    #[test]
    fn transactional_read_dooms_speculative_writer() {
        let (mem, x) = one_var_mem(2, 0);
        let (results, ..) = harness::run(2, 0, HtmConfig::deterministic(), 1, mem, move |s| {
            if s.tid() == 0 {
                s.begin();
                s.store(x, 42).unwrap();
                for _ in 0..10_000 {
                    if s.work(1).is_err() {
                        return Some(s.last_abort().cause);
                    }
                }
                None
            } else {
                s.work(200).unwrap();
                s.begin();
                let v = s.load(x).unwrap();
                assert_eq!(v, 0);
                s.commit().unwrap();
                None
            }
        });
        assert_eq!(results[0], Some(AbortCause::DataConflict));
    }

    #[test]
    fn commit_dooms_concurrent_reader_of_published_line() {
        let (mem, x) = one_var_mem(2, 0);
        let (results, mem, _) = harness::run(2, 0, HtmConfig::deterministic(), 1, mem, move |s| {
            if s.tid() == 0 {
                s.begin();
                let v = s.load(x).unwrap();
                assert_eq!(v, 0);
                for _ in 0..10_000 {
                    if s.work(1).is_err() {
                        return Some(s.last_abort().cause);
                    }
                }
                None
            } else {
                s.work(200).unwrap();
                s.begin();
                s.store(x, 7).unwrap();
                s.commit().unwrap();
                None
            }
        });
        assert_eq!(results[0], Some(AbortCause::DataConflict));
        assert_eq!(mem.read_direct(x), 7);
    }

    #[test]
    fn hle_elision_restores_and_commits() {
        let (mem, lock) = one_var_mem(1, 0);
        let (_, mem, _) = harness::run(1, 0, HtmConfig::deterministic(), 1, mem, move |s| {
            s.begin();
            let old = s.elide_rmw(lock, |_| 1).unwrap();
            assert_eq!(old, 0);
            // The illusion: our own reads see the lock as taken...
            assert_eq!(s.load(lock).unwrap(), 1);
            // ...while committed memory still shows it free.
            assert_eq!(s.memory().read_direct(lock), 0);
            // XRELEASE: restore the original value.
            s.store(lock, 0).unwrap();
            s.commit().unwrap();
        });
        assert_eq!(mem.read_direct(lock), 0);
        assert!(!mem.any_residual_bits());
    }

    #[test]
    fn hle_commit_fails_without_restore() {
        let (mem, lock) = one_var_mem(1, 0);
        harness::run(1, 0, HtmConfig::deterministic(), 1, mem, move |s| {
            s.begin();
            s.elide_rmw(lock, |_| 1).unwrap();
            let err = s.commit().unwrap_err();
            assert_eq!(err.cause, AbortCause::HleRestore);
            assert!(!s.in_txn());
        });
    }

    #[test]
    fn concurrent_elision_of_same_lock_does_not_conflict() {
        let mut b = MemoryBuilder::new();
        let lock = b.alloc_isolated(0);
        let data = b.alloc_array(16, 0);
        b.pad_to_line();
        let mem = b.freeze(2);
        let (results, mem, _) = harness::run(2, 0, HtmConfig::deterministic(), 1, mem, move |s| {
            let tid = s.tid() as u32;
            // Each thread writes to its own line.
            let my = VarId::from_index(data.index() + tid * 8);
            let mut commits = 0;
            for _ in 0..50 {
                let r = s.attempt(|s| {
                    s.elide_rmw(lock, |_| 1)?;
                    let v = s.load(my)?;
                    s.store(my, v + 1)?;
                    s.store(lock, 0)?;
                    Ok(())
                });
                if r.is_ok() {
                    commits += 1;
                }
            }
            commits
        });
        // Disjoint data + elided lock: every attempt must commit.
        assert_eq!(results, vec![50, 50]);
        assert_eq!(mem.read_direct(data), 50);
    }

    #[test]
    fn real_lock_write_dooms_all_eliders_at_once() {
        let mut b = MemoryBuilder::new();
        let lock = b.alloc_isolated(0);
        let mem = b.freeze(3);
        let (results, ..) = harness::run(3, 0, HtmConfig::deterministic(), 1, mem, move |s| {
            if s.tid() < 2 {
                s.begin();
                s.elide_rmw(lock, |_| 1).unwrap();
                for _ in 0..10_000 {
                    if s.work(1).is_err() {
                        return Some(s.last_abort().cause);
                    }
                }
                None
            } else {
                s.work(300).unwrap();
                // The lemming trigger: a real test-and-set on the lock.
                let old = s.swap(lock, 1).unwrap();
                assert_eq!(old, 0);
                None
            }
        });
        assert_eq!(results[0], Some(AbortCause::DataConflict));
        assert_eq!(results[1], Some(AbortCause::DataConflict));
    }

    #[test]
    fn write_capacity_abort() {
        let mut b = MemoryBuilder::new().words_per_line(1);
        let vars = b.alloc_array(8, 0);
        let mem = b.freeze(1);
        let cfg = HtmConfig::deterministic().with_capacity(64, 4);
        harness::run(1, 0, cfg, 1, mem, move |s| {
            s.begin();
            for k in 0..4 {
                s.store(VarId::from_index(vars.index() + k), 1).unwrap();
            }
            let err = s.store(VarId::from_index(vars.index() + 4), 1).unwrap_err();
            assert_eq!(err, Abort);
            assert_eq!(s.last_abort().cause, AbortCause::Capacity);
            assert!(!s.last_abort().retry_recommended);
        });
    }

    #[test]
    fn read_capacity_abort() {
        let mut b = MemoryBuilder::new().words_per_line(1);
        let vars = b.alloc_array(8, 0);
        let mem = b.freeze(1);
        let cfg = HtmConfig::deterministic().with_capacity(3, 64);
        harness::run(1, 0, cfg, 1, mem, move |s| {
            s.begin();
            for k in 0..3 {
                s.load(VarId::from_index(vars.index() + k)).unwrap();
            }
            s.load(VarId::from_index(vars.index() + 3)).unwrap_err();
            assert_eq!(s.last_abort().cause, AbortCause::Capacity);
        });
    }

    #[test]
    fn spurious_aborts_fire_with_probability_one() {
        let (mem, x) = one_var_mem(1, 0);
        let cfg = HtmConfig::deterministic().with_spurious(1.0, 0.0);
        harness::run(1, 0, cfg, 1, mem, move |s| {
            s.begin();
            let mut aborted = false;
            for _ in 0..200 {
                if s.load(x).is_err() {
                    aborted = true;
                    break;
                }
            }
            assert!(aborted, "spurious fuse never fired");
            assert_eq!(s.last_abort().cause, AbortCause::FaultInjected);
            assert!(s.last_abort().retry_recommended);
        });
    }

    #[test]
    fn attempt_returns_value_on_commit() {
        let (mem, x) = one_var_mem(1, 5);
        harness::run(1, 0, HtmConfig::deterministic(), 1, mem, move |s| {
            let got = s.attempt(|s| {
                let v = s.load(x)?;
                s.store(x, v * 2)?;
                Ok(v)
            });
            assert_eq!(got.unwrap(), 5);
            assert_eq!(s.memory().read_direct(x), 10);
            assert!(!s.in_txn());
        });
    }

    #[test]
    #[should_panic(expected = "simulated thread panicked")]
    fn attempt_detects_swallowed_abort() {
        let (mem, x) = one_var_mem(1, 0);
        harness::run(1, 0, HtmConfig::deterministic(), 1, mem, move |s| {
            let _ = s.attempt(|s| {
                let _ = s.xabort(1, false);
                // Misuse: carry on as if nothing happened.
                let _ = x;
                Ok(())
            });
        });
    }

    #[test]
    fn rmw_primitives_in_and_out_of_txn() {
        let (mem, x) = one_var_mem(1, 10);
        harness::run(1, 0, HtmConfig::deterministic(), 1, mem, move |s| {
            // Non-transactional.
            assert_eq!(s.fetch_add(x, 5).unwrap(), 10);
            assert_eq!(s.swap(x, 100).unwrap(), 15);
            assert_eq!(s.cas(x, 100, 1).unwrap(), 100); // success
            assert_eq!(s.cas(x, 99, 2).unwrap(), 1); // failure
            assert_eq!(s.memory().read_direct(x), 1);
            // Transactional.
            s.begin();
            assert_eq!(s.fetch_add(x, 1).unwrap(), 1);
            assert_eq!(s.cas(x, 2, 50).unwrap(), 2);
            s.commit().unwrap();
            assert_eq!(s.memory().read_direct(x), 50);
        });
    }

    #[test]
    fn nontxn_rmw_is_atomic_across_threads() {
        let (mem, x) = one_var_mem(4, 0);
        let (_, mem, _) = harness::run(4, 32, HtmConfig::deterministic(), 1, mem, move |s| {
            for _ in 0..500 {
                s.fetch_add(x, 1).unwrap();
            }
        });
        assert_eq!(mem.read_direct(x), 2000);
    }

    #[test]
    fn spin_until_expires_inside_txn() {
        let (mem, x) = one_var_mem(1, 0);
        harness::run(1, 0, HtmConfig::deterministic(), 1, mem, move |s| {
            s.begin();
            let err = s.spin_until(x, 10, |v| v == 1).unwrap_err();
            assert_eq!(err, Abort);
            assert!(s.last_abort().is_explicit(codes::SPIN_EXPIRED));
        });
    }

    #[test]
    fn doomed_transaction_never_commits_inconsistent_state() {
        // SLR-style scenario from the paper's "erroneous example": T1 reads
        // X then Y while T2 non-transactionally writes Y then X between the
        // two reads. T1 may *observe* the inconsistency but must abort.
        let mut b = MemoryBuilder::new();
        let x = b.alloc_isolated(0);
        let y = b.alloc_isolated(0);
        let mem = b.freeze(2);
        let (results, ..) = harness::run(2, 0, HtmConfig::deterministic(), 1, mem, move |s| {
            if s.tid() == 0 {
                s.begin();
                let vx = match s.load(x) {
                    Ok(v) => v,
                    Err(_) => return "aborted-early",
                };
                // Wait long enough for T2 to write both.
                for _ in 0..60 {
                    if s.work(10).is_err() {
                        return "aborted-mid";
                    }
                }
                let vy = match s.load(y) {
                    Ok(v) => v,
                    Err(_) => return "aborted-on-y",
                };
                if vx == 0 && vy == 1 {
                    // Inconsistent snapshot observed; commit must fail.
                    assert!(s.commit().is_err());
                    return "observed-inconsistent-but-aborted";
                }
                match s.commit() {
                    Ok(()) => "committed-consistent",
                    Err(_) => "aborted-late",
                }
            } else {
                s.work(150).unwrap();
                s.store(y, 1).unwrap();
                s.store(x, 1).unwrap();
                "writer"
            }
        });
        // Whatever interleaving resulted, T1 never committed X=0,Y=1.
        assert_ne!(results[0], "committed-consistent-inconsistent");
        assert!(
            results[0].starts_with("aborted") || results[0] == "observed-inconsistent-but-aborted",
            "got {}",
            results[0]
        );
    }

    #[test]
    fn stats_count_events() {
        let mut b = MemoryBuilder::new();
        let x = b.alloc_isolated(0);
        b.enable_sanitizer();
        let mem = b.freeze(1);
        let (_, mem, _) = harness::run(1, 0, HtmConfig::deterministic(), 1, mem, move |s| {
            let _ = s.attempt(|s| s.store(x, 1));
            s.begin();
            let _ = s.xabort(3, true);
            assert_eq!(s.counters.causes.get(AbortCause::Explicit), 1);
            assert_eq!(s.counters.causes.total(), 1);
        });
        let log = mem.san_log().expect("sanitizer enabled");
        let count = |want: fn(&SanAccess) -> bool| {
            log.with_events(|events| events.iter().filter(|e| want(&e.access)).count())
        };
        assert_eq!(count(|a| *a == SanAccess::TxnBegin), 2);
        assert_eq!(count(|a| *a == SanAccess::TxnCommit), 1);
        assert_eq!(count(|a| matches!(a, SanAccess::TxnAbort { .. })), 1);
    }

    #[test]
    fn false_sharing_conflicts_on_same_line() {
        // Two words on one line: writing one dooms a reader of the other.
        let mut b = MemoryBuilder::new().words_per_line(8);
        b.pad_to_line();
        let a = b.alloc(0);
        let c = b.alloc(0);
        let mem = b.freeze(2);
        let (results, ..) = harness::run(2, 0, HtmConfig::deterministic(), 1, mem, move |s| {
            if s.tid() == 0 {
                s.begin();
                s.load(a).unwrap();
                for _ in 0..10_000 {
                    if s.work(1).is_err() {
                        return Some(s.last_abort().cause);
                    }
                }
                None
            } else {
                s.work(200).unwrap();
                s.store(c, 1).unwrap(); // same line as `a`
                None
            }
        });
        assert_eq!(results[0], Some(AbortCause::DataConflict));
    }

    #[test]
    fn abort_storm_fires_only_inside_window() {
        let (mem, x) = one_var_mem(1, 0);
        // Storm covering all of time at rate 1000/1000: every access aborts.
        let cfg = HtmConfig::deterministic().with_faults(HtmFaults::none().with_storm(
            u64::MAX,
            u64::MAX,
            1000,
        ));
        harness::run(1, 0, cfg, 1, mem, move |s| {
            s.begin();
            s.load(x).unwrap_err();
            assert_eq!(s.last_abort().cause, AbortCause::FaultInjected);
            assert!(s.last_abort().retry_recommended);
        });

        // Zero-duration storm: never fires, behaves like the baseline.
        let (mem, x) = one_var_mem(1, 0);
        let cfg =
            HtmConfig::deterministic().with_faults(HtmFaults::none().with_storm(u64::MAX, 0, 1000));
        harness::run(1, 0, cfg, 1, mem, move |s| {
            s.begin();
            for _ in 0..50 {
                s.load(x).unwrap();
            }
            s.commit().unwrap();
        });
    }

    #[test]
    fn capacity_squeeze_shrinks_budget_inside_window() {
        let mut b = MemoryBuilder::new().words_per_line(1);
        let vars = b.alloc_array(8, 0);
        let mem = b.freeze(1);
        // Configured budget is generous; the (always-open) squeeze caps
        // reads at two lines.
        let cfg = HtmConfig::deterministic()
            .with_capacity(64, 64)
            .with_faults(HtmFaults::none().with_squeeze(u64::MAX, u64::MAX, 2, 2));
        harness::run(1, 0, cfg, 1, mem, move |s| {
            s.begin();
            s.load(VarId::from_index(vars.index())).unwrap();
            s.load(VarId::from_index(vars.index() + 1)).unwrap();
            s.load(VarId::from_index(vars.index() + 2)).unwrap_err();
            assert_eq!(s.last_abort().cause, AbortCause::Capacity);
        });
    }

    #[test]
    fn hot_line_injects_persistent_conflicts() {
        let (mem, x) = one_var_mem(1, 0);
        let hot = mem.line_of(x).0;
        let cfg =
            HtmConfig::deterministic().with_faults(HtmFaults::none().with_hot_line(hot, 1000));
        harness::run(1, 0, cfg, 1, mem, move |s| {
            s.begin();
            s.load(x).unwrap_err();
            assert_eq!(s.last_abort().cause, AbortCause::DataConflict);
            assert_eq!(s.last_abort().conflict_line, Some(hot));
            assert!(s.last_abort().retry_recommended);
        });
    }

    #[test]
    fn abort_causes_classified_by_lock_line() {
        use elision_sim::SlotSeries;
        let mut b = MemoryBuilder::new();
        let lock = b.alloc_lock_word(0);
        let data = b.alloc_isolated(0);
        let mem = b.freeze(1);
        let cfg = HtmConfig::deterministic().with_capacity(1, 64);
        harness::run(1, 0, cfg, 1, mem, move |s| {
            s.slots = Some(SlotSeries::new(1_000_000));
            // Conflict on the lock word's line -> lock-word conflict.
            s.begin();
            s.load(lock).unwrap();
            let line = s.memory().line_of(lock);
            s.memory().doom_thread(0, line);
            s.load(lock).unwrap_err();
            assert_eq!(s.counters.causes.get(AbortCause::LockWordConflict), 1);
            // Conflict on a data line -> data conflict.
            s.begin();
            s.load(data).unwrap();
            let line = s.memory().line_of(data);
            s.memory().doom_thread(0, line);
            s.load(data).unwrap_err();
            assert_eq!(s.counters.causes.get(AbortCause::DataConflict), 1);
            // Read-set overflow -> capacity.
            s.begin();
            s.load(data).unwrap();
            s.load(lock).unwrap_err();
            assert_eq!(s.last_abort().cause, AbortCause::Capacity);
            assert_eq!(s.counters.causes.get(AbortCause::Capacity), 1);
            // XABORT -> explicit.
            s.begin();
            let _ = s.xabort(7, false);
            assert_eq!(s.counters.causes.get(AbortCause::Explicit), 1);
            // The slot series buckets every abort.
            let slots = s.slots.take().expect("enabled");
            assert_eq!(slots.totals(), s.counters.causes);
        });
    }

    #[test]
    fn injected_spurious_aborts_classify_as_fault_injected() {
        let (mem, x) = one_var_mem(1, 0);
        let cfg = HtmConfig::deterministic().with_faults(HtmFaults::none().with_storm(
            u64::MAX,
            u64::MAX,
            1000,
        ));
        harness::run(1, 0, cfg, 1, mem, move |s| {
            s.begin();
            s.load(x).unwrap_err();
            assert_eq!(s.counters.causes.get(AbortCause::FaultInjected), 1);
            assert_eq!(s.counters.causes.total(), 1);
        });
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let run_once = || {
            let mut b = MemoryBuilder::new();
            let counter = b.alloc(0);
            let mem = b.freeze(2);
            let cfg = HtmConfig::deterministic()
                .with_faults(HtmFaults::none().with_storm(5_000, 500, 400).with_hot_line(0, 50));
            let (results, mem, makespan) = harness::run(2, 0, cfg, 42, mem, move |s| {
                let mut commits = 0u64;
                for _ in 0..50 {
                    loop {
                        let done = s.attempt(|s| {
                            let v = s.load(counter)?;
                            s.store(counter, v + 1)
                        });
                        if done.is_ok() {
                            commits += 1;
                            break;
                        }
                    }
                }
                (commits, s.counters.causes.total())
            });
            (results, mem.read_direct(counter), makespan)
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a, b, "same seeds must replay the same faulted run");
        assert_eq!(a.1, 100, "all increments must land despite faults");
        assert!(a.0.iter().any(|&(_, aborts)| aborts > 0), "faults must bite");
    }
}
