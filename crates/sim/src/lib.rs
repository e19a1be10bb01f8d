//! A deterministic logical-time multicore simulator.
//!
//! The lock-elision paper this workspace reproduces ("Software-Improved
//! Hardware Lock Elision", PODC 2014) measures throughput, abort rates and
//! serialization dynamics of threads racing through critical sections on a
//! real 4-core/8-thread Haswell machine. This host has neither TSX hardware
//! nor multiple cores, so the workspace substitutes a *simulated* multicore:
//! every simulated thread owns a monotonically increasing logical clock
//! (measured in abstract "cycles"), and every memory access / spin
//! iteration / transaction event advances that clock by a cost taken from a
//! [`CostModel`].
//!
//! Exactly one simulated thread runs at a time: the one holding the
//! scheduler's baton. At each advance one decision function picks who runs
//! next: the bounded-lag rule, which keeps the running thread going while
//! its clock is within [`SimBuilder::window`] of its slowest live peer, or
//! a model checker's [`ScheduleControl`]. Critical sections therefore
//! *overlap in logical time* exactly as the clocks say, whatever the host,
//! which is the property every experiment in the paper depends on, and
//! every run is deterministic. At window `0` the running thread is always
//! the lexicographically smallest `(clock, thread id)`. Free runs back the
//! simulated threads with OS threads; model-checker runs (see [`control`])
//! with fibers on the caller's thread.
//!
//! # Quick example
//!
//! ```
//! use elision_sim::SimBuilder;
//! use std::sync::atomic::{AtomicU64, Ordering};
//! use std::sync::Arc;
//!
//! let hits = Arc::new(AtomicU64::new(0));
//! let outcome = SimBuilder::new(4).window(0).run({
//!     let hits = Arc::clone(&hits);
//!     move |ctx| {
//!         for _ in 0..100 {
//!             ctx.handle.advance(3);
//!             hits.fetch_add(1, Ordering::Relaxed);
//!         }
//!         ctx.id
//!     }
//! });
//! assert_eq!(hits.load(Ordering::Relaxed), 400);
//! assert_eq!(outcome.results, vec![0, 1, 2, 3]);
//! assert!(outcome.makespan >= 300);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod arrivals;
pub mod control;
mod cost;
mod fault;
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
#[allow(unsafe_code)]
mod fiber;
mod rng;
mod sched;
mod slots;
mod stats;

pub use arrivals::{generate_arrivals, Arrival, ArrivalPhase, Zipf};
pub use control::{Schedule, ScheduleControl, StepAccess, StepRecord};
pub use cost::CostModel;
pub use fault::{FaultPlan, FaultStats, PreemptSpec};
pub use rng::DetRng;
pub use sched::{Scheduler, SimHandle};
pub use slots::{CauseSlotRecorder, CauseSlotSeries, SlotRecorder, SlotSeries};
pub use stats::{AbortCause, AttemptKind, CauseHistogram, ConflictLineHistogram, OpCounters};

use std::sync::Arc;

/// Per-thread context handed to each simulated thread's body.
#[derive(Debug)]
pub struct ThreadCtx {
    /// The simulated thread's index in `0..threads`.
    pub id: usize,
    /// Handle used to advance logical time (and thereby yield to peers).
    pub handle: SimHandle,
}

/// The result of running a simulation to completion.
#[derive(Debug)]
pub struct SimOutcome<R> {
    /// Per-thread return values, indexed by thread id.
    pub results: Vec<R>,
    /// Final logical clock of each thread.
    pub end_times: Vec<u64>,
    /// The simulated makespan: the largest per-thread end time.
    pub makespan: u64,
    /// Per-thread injected-fault counters; empty when the run had no
    /// fault plan attached.
    pub fault_stats: Vec<FaultStats>,
}

impl<R> SimOutcome<R> {
    /// Throughput in operations per 1000 simulated cycles, given a total
    /// operation count performed across all threads.
    ///
    /// Returns `0.0` for an empty (zero-cycle) run.
    pub fn throughput(&self, total_ops: u64) -> f64 {
        if self.makespan == 0 {
            0.0
        } else {
            total_ops as f64 * 1000.0 / self.makespan as f64
        }
    }
}

/// Builder for a simulated multicore run.
///
/// A simulation consists of `threads` simulated threads all executing the
/// same closure (distinguished by [`ThreadCtx::id`]). Each closure must
/// call [`SimHandle::advance`] for every costed event, and only the thread
/// holding the scheduler's baton runs: an `advance` may pass the baton on
/// and block until it comes back. In a free run each closure runs on an OS
/// thread of its own. In a run under a [`ScheduleControl`] the closures
/// run as fibers on the thread that calls [`SimBuilder::run`] (on x86_64
/// Linux; OS threads elsewhere).
#[derive(Debug, Clone)]
pub struct SimBuilder {
    threads: usize,
    window: u64,
    faults: FaultPlan,
    control: Option<Arc<ScheduleControl>>,
}

impl SimBuilder {
    /// Create a builder for `threads` simulated threads.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero or greater than 64 (the HTM layer's
    /// conflict-bitmap width).
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "need at least one simulated thread");
        assert!(
            threads <= sched::MAX_THREADS,
            "at most {} simulated threads are supported",
            sched::MAX_THREADS
        );
        SimBuilder { threads, window: 64, faults: FaultPlan::none(), control: None }
    }

    /// Set the bounded-lag window, in cycles.
    ///
    /// The running thread keeps the baton while
    /// `clock <= min(other live clocks) + window`. `0` selects *strict*
    /// mode: the running thread is always the lexicographically smallest
    /// `(clock, id)`. Every window is deterministic; a wider one trades
    /// interleaving granularity for fewer handoffs.
    pub fn window(mut self, window: u64) -> Self {
        self.window = window;
        self
    }

    /// Attach a deterministic fault-injection plan (simulated preemption
    /// and clock jitter) to the run. See [`FaultPlan`]. The default plan
    /// injects nothing.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Serialize the run under a model-checker [`ScheduleControl`]: every
    /// [`SimHandle::advance`] becomes a decision point replayed from the
    /// control's schedule. Forces window 0 semantics and bypasses any
    /// attached fault plan (see the [`control`] module docs).
    pub fn control(mut self, control: Arc<ScheduleControl>) -> Self {
        self.control = Some(control);
        self
    }

    /// Number of simulated threads this builder will run.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `body` once per simulated thread and collect the outcome.
    ///
    /// `body` is cloned per thread; shared state should be captured via
    /// `Arc`. The call blocks until every simulated thread finishes.
    ///
    /// # Panics
    ///
    /// If a simulated thread panics, every other one unwinds from the
    /// point where it waits for the baton, and then `run` panics with
    /// `simulated thread panicked: <message>`.
    pub fn run<R, F>(&self, body: F) -> SimOutcome<R>
    where
        R: Send + 'static,
        F: Fn(ThreadCtx) -> R + Clone + Send + 'static,
    {
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        if let Some(ctl) = &self.control {
            return self.run_fibers(Arc::clone(ctl), body);
        }
        self.run_threads(body)
    }

    /// Run each simulated thread on an OS thread of its own.
    fn run_threads<R, F>(&self, body: F) -> SimOutcome<R>
    where
        R: Send + 'static,
        F: Fn(ThreadCtx) -> R + Clone + Send + 'static,
    {
        let sched = Arc::new(match &self.control {
            Some(ctl) => Scheduler::with_control(self.threads, Arc::clone(ctl)),
            None => Scheduler::with_faults(self.threads, self.window, self.faults),
        });
        let mut joins = Vec::with_capacity(self.threads);
        for id in 0..self.threads {
            let body = body.clone();
            let handle = SimHandle::new(Arc::clone(&sched), id);
            joins.push(
                std::thread::Builder::new()
                    .name(format!("sim-{id}"))
                    .spawn(move || {
                        let _poison = PoisonOnPanic(handle.scheduler());
                        handle.wait_for_start();
                        let r = body(ThreadCtx { id, handle: handle.clone() });
                        let end = handle.now();
                        handle.finish();
                        (r, end)
                    })
                    .expect("spawning simulated thread"),
            );
        }
        sched.release_start();
        let mut results = Vec::with_capacity(self.threads);
        let mut end_times = Vec::with_capacity(self.threads);
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for j in joins {
            match j.join() {
                Ok((r, end)) => {
                    results.push(r);
                    end_times.push(end);
                }
                // Report the first thread's own panic, not a peer's unwind.
                Err(p) => {
                    if panic.as_ref().is_none_or(|q| q.is::<sched::PeerPanicked>()) {
                        panic = Some(p);
                    }
                }
            }
        }
        if let Some(p) = panic {
            raise(&*p);
        }
        self.outcome(&sched, results, end_times)
    }

    /// Run the simulated threads as fibers on the calling thread, each
    /// decision point a direct switch to the thread `control` picks.
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    fn run_fibers<R, F>(&self, control: Arc<ScheduleControl>, body: F) -> SimOutcome<R>
    where
        R: Send + 'static,
        F: Fn(ThreadCtx) -> R + Clone + Send + 'static,
    {
        let sched = Arc::new(Scheduler::with_fibers(self.threads, control));
        let slots = Arc::new(parking_lot::Mutex::new(
            (0..self.threads).map(|_| None).collect::<Vec<Option<(R, u64)>>>(),
        ));
        for id in 0..self.threads {
            let body = body.clone();
            let handle = SimHandle::new(Arc::clone(&sched), id);
            let slots = Arc::clone(&slots);
            sched.fibers().spawn(
                id,
                Box::new(move || {
                    let r = body(ThreadCtx { id, handle: handle.clone() });
                    slots.lock()[id] = Some((r, handle.now()));
                    handle.scheduler().finish(id)
                }),
            );
        }
        if let Err(payload) = sched.fibers().run() {
            raise(&*payload);
        }
        let (results, end_times) = std::mem::take(&mut *slots.lock())
            .into_iter()
            .map(|slot| slot.expect("a finished fiber stored its result"))
            .unzip();
        self.outcome(&sched, results, end_times)
    }

    fn outcome<R>(&self, sched: &Scheduler, results: Vec<R>, end_times: Vec<u64>) -> SimOutcome<R> {
        let makespan = end_times.iter().copied().max().unwrap_or(0);
        let fault_stats = (0..self.threads).filter_map(|id| sched.fault_stats(id)).collect();
        SimOutcome { results, end_times, makespan, fault_stats }
    }
}

/// Poisons the scheduler once its simulated thread has unwound, so that
/// peers parked waiting for the baton unwind too instead of waiting
/// forever.
struct PoisonOnPanic<'a>(&'a Scheduler);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// Re-raise a simulated thread's panic on the thread that called `run`.
fn raise(payload: &(dyn std::any::Any + Send)) -> ! {
    let msg = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload");
    panic!("simulated thread panicked: {msg}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn single_thread_clock_accumulates() {
        let out = SimBuilder::new(1).window(0).run(|ctx| {
            for _ in 0..10 {
                ctx.handle.advance(7);
            }
            ctx.handle.now()
        });
        assert_eq!(out.results[0], 70);
        assert_eq!(out.makespan, 70);
    }

    #[test]
    fn threads_progress_in_lockstep_with_zero_window() {
        // With window 0, at any advance the running thread is the global
        // minimum, so observing a peer's clock far ahead is impossible.
        let n = 4;
        let sched_times: Arc<Vec<AtomicU64>> =
            Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
        let out = SimBuilder::new(n).window(0).run({
            let times = Arc::clone(&sched_times);
            move |ctx| {
                let mut max_lead = 0i64;
                for _ in 0..500 {
                    ctx.handle.advance(1);
                    times[ctx.id].store(ctx.handle.now(), Ordering::SeqCst);
                    let me = ctx.handle.now() as i64;
                    for t in times.iter() {
                        let other = t.load(Ordering::SeqCst) as i64;
                        if other > 0 {
                            max_lead = max_lead.max(me - other);
                        }
                    }
                }
                max_lead
            }
        });
        for lead in out.results {
            // A thread can lead a peer by at most one step's cost (the
            // peer may not have republished its clock yet).
            assert!(lead <= 2, "thread led by {lead} cycles in strict mode");
        }
    }

    #[test]
    fn makespan_is_max_thread_time() {
        let out = SimBuilder::new(3).window(16).run(|ctx| {
            let steps = (ctx.id as u64 + 1) * 10;
            for _ in 0..steps {
                ctx.handle.advance(2);
            }
            ctx.handle.now()
        });
        assert_eq!(out.makespan, 60);
        assert_eq!(out.end_times, vec![20, 40, 60]);
    }

    #[test]
    fn uneven_finish_does_not_deadlock() {
        // Thread 0 finishes immediately; the others must still be able to
        // advance past it.
        let out = SimBuilder::new(4).window(0).run(|ctx| {
            if ctx.id == 0 {
                return 0;
            }
            for _ in 0..1000 {
                ctx.handle.advance(1);
            }
            ctx.handle.now()
        });
        assert_eq!(out.results[0], 0);
        for id in 1..4 {
            assert_eq!(out.results[id], 1000);
        }
    }

    #[test]
    fn throughput_helper() {
        let out = SimBuilder::new(2).window(0).run(|ctx| {
            for _ in 0..50 {
                ctx.handle.advance(10);
            }
        });
        assert_eq!(out.makespan, 500);
        let thr = out.throughput(100);
        assert!((thr - 200.0).abs() < 1e-9);
    }

    #[test]
    fn fault_plan_extends_makespan_deterministically() {
        let run = |plan: FaultPlan| {
            SimBuilder::new(2).window(0).faults(plan).run(|ctx| {
                for _ in 0..200 {
                    ctx.handle.advance(5);
                }
                ctx.handle.now()
            })
        };
        let base = run(FaultPlan::none());
        assert!(base.fault_stats.is_empty(), "inactive plan records no stats");
        let plan = FaultPlan::none().with_preempt(100, 400).with_jitter(100).with_seed(11);
        let a = run(plan);
        let b = run(plan);
        assert_eq!(a.end_times, b.end_times, "same seed, same schedule");
        assert_eq!(a.fault_stats, b.fault_stats, "same seed, same stats");
        assert!(a.makespan > base.makespan, "faults must cost simulated time");
        assert!(a.fault_stats.iter().any(|s| s.preemptions > 0));
    }

    /// Run `run` on a helper thread and return its panic message. Fails,
    /// rather than hanging the suite, if the run never returns.
    fn panic_message_of(run: impl FnOnce() + Send + 'static) -> String {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run));
            let msg = caught.err().map(|p| match p.downcast::<String>() {
                Ok(s) => *s,
                Err(p) => p.downcast_ref::<&str>().map_or("?", |s| s).to_string(),
            });
            let _ = tx.send(msg);
        });
        match rx.recv_timeout(std::time::Duration::from_secs(60)) {
            Ok(Some(msg)) => msg,
            Ok(None) => panic!("the run returned although a simulated thread panicked"),
            Err(_) => panic!("the run hung after a simulated thread panicked"),
        }
    }

    /// Three threads of 64 advances each, more than a window of 8 lets a
    /// peer run ahead of a dead thread; thread `culprit` panics at its
    /// fourth advance. Checks the first and the last thread as culprit.
    fn assert_panic_propagates(builder: fn() -> SimBuilder, on_threads: bool) {
        for culprit in [0, 2] {
            let msg = panic_message_of(move || {
                let body = move |ctx: ThreadCtx| {
                    for i in 0..64 {
                        assert!(!(ctx.id == culprit && i == 3), "thread {culprit} failed");
                        ctx.handle.advance(1);
                    }
                };
                if on_threads {
                    builder().run_threads(body);
                } else {
                    builder().run(body);
                }
            });
            assert_eq!(msg, format!("simulated thread panicked: thread {culprit} failed"));
        }
    }

    fn controlled(threads: usize) -> SimBuilder {
        SimBuilder::new(threads).control(Arc::new(ScheduleControl::new(threads, &[])))
    }

    #[test]
    fn panic_in_a_window_0_run_propagates() {
        assert_panic_propagates(|| SimBuilder::new(3).window(0), false);
    }

    #[test]
    fn panic_in_a_window_8_run_propagates() {
        assert_panic_propagates(|| SimBuilder::new(3).window(8), false);
    }

    #[test]
    fn panic_in_a_controlled_run_propagates() {
        assert_panic_propagates(|| controlled(3), false);
    }

    #[test]
    fn panic_in_a_controlled_run_on_threads_propagates() {
        assert_panic_propagates(|| controlled(3), true);
    }

    #[test]
    fn controlled_64_thread_run_is_round_robin() {
        let ctl = Arc::new(ScheduleControl::new(64, &[]));
        let out = SimBuilder::new(64).control(Arc::clone(&ctl)).run(|ctx| {
            for _ in 0..3 {
                ctx.handle.advance(10);
            }
            ctx.id
        });
        assert_eq!(out.results, (0..64).collect::<Vec<_>>());
        let order: Vec<usize> = ctl.steps().iter().map(|s| s.chosen).collect();
        let want: Vec<usize> = (0..3).flat_map(|_| 0..64).collect();
        assert_eq!(order, want);
    }

    #[test]
    fn deep_recursion_across_decision_points() {
        // About 0.5 MiB of frames per thread in a debug build, with a
        // switch to the peer at every level on the way down and up.
        fn depth(h: &SimHandle, n: u64, pad: [u8; 256]) -> u64 {
            if n == 0 {
                std::hint::black_box(pad);
                return 0;
            }
            h.advance(1);
            let mut next = pad;
            next[(n % 256) as usize] = next[(n % 256) as usize].wrapping_add(1);
            let below = depth(h, n - 1, std::hint::black_box(next));
            h.advance(1);
            1 + below
        }
        let out = controlled(2).run(|ctx| depth(&ctx.handle, 1000, [0; 256]));
        assert_eq!(out.results, vec![1000, 1000]);
        assert_eq!(out.makespan, 2000);
    }

    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    #[test]
    fn fiber_stacks_are_reused_and_captures_dropped() {
        let owned = Arc::new(());
        let run = |k: u32| {
            let owned = Arc::clone(&owned);
            controlled(2).run(move |ctx| {
                let _keep = &owned;
                for i in 0..3 {
                    assert!(!(ctx.id == 1 && i == 2 && k % 2500 == 1), "run {k} failed");
                    ctx.handle.advance(1);
                }
            })
        };
        run(0);
        let mapped = fiber::stacks_mapped();
        for k in 1..10_000 {
            if k % 2500 == 1 {
                let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(k)));
                assert!(failed.is_err(), "run {k} must panic");
            } else {
                run(k);
            }
            assert_eq!(Arc::strong_count(&owned), 1, "run {k} leaked a capture");
        }
        assert_eq!(fiber::stacks_mapped(), mapped, "every run after the first reuses its stacks");
    }

    #[test]
    fn zero_cost_advance_is_allowed() {
        let out = SimBuilder::new(2).window(0).run(|ctx| {
            for _ in 0..10 {
                ctx.handle.advance(0);
                ctx.handle.advance(1);
            }
        });
        assert_eq!(out.makespan, 10);
    }
}
