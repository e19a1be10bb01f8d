//! The scheduler: one decision function and one baton.
//!
//! Every simulated thread owns a logical clock, and exactly one simulated
//! thread runs at a time: the one holding the baton. At each
//! [`SimHandle::advance`], and when it finishes, the holder asks one
//! decision function (`Scheduler::next`) which thread runs next, and hands
//! the baton over with one `Scheduler::switch`.
//! [`Scheduler::release_start`] hands the baton to thread 0, so threads
//! start in id order, each running up to its first `advance`.
//!
//! # Who runs next
//!
//! Under a [`ScheduleControl`] the control decides: it records the step,
//! then applies its override or picks the `(clock, id)` minimum. In a free
//! run the *bounded-lag* rule decides. The running thread keeps the baton
//! while
//!
//! ```text
//! window == 0:  (clock(self), self) < min((clock(t), t) for other live t)
//! window  > 0:  clock(self) <= min(clock(t) for other live t) + window
//! ```
//!
//! and otherwise hands it to the other live thread with the smallest
//! `(clock, id)`. At window 0 only the lexicographically smallest
//! `(clock, id)` runs. At every window the schedule is a pure function of
//! the clock vector, so every run is deterministic: it is the schedule a
//! single-CPU host would produce. A wider window only lets a thread run
//! further ahead before it yields.
//!
//! # Handoff
//!
//! [`crate::SimBuilder::run`] executes a controlled run's threads as
//! fibers on the calling thread (x86_64 Linux, see `fiber.rs`), where a
//! switch is a stack switch. Otherwise each simulated thread is an OS
//! thread with a parker of its own: a switch stores the baton, notifies
//! the target's parker and parks until the baton comes back.
//!
//! No wakeup is lost. A parker checks the baton under its own mutex before
//! it waits, and the wait releases that mutex atomically; a passer stores
//! the baton first and then takes the target's mutex to notify. So either
//! the target's check sees the baton, or the target is already waiting
//! when the notification comes. Only the baton holder writes the clocks
//! and the baton, so a decision never races with a peer.
//!
//! # Panics
//!
//! A simulated thread that panics holds the baton and keeps it while it
//! unwinds. An OS thread then *poisons* the scheduler and wakes every
//! parked peer, and each peer unwinds from its park, so the run ends
//! instead of waiting forever for the dead thread. Fibers unwind their
//! suspended peers the same way inside `fiber.rs`.

use crate::control::ScheduleControl;
use crate::fault::{FaultPlan, FaultStats, FaultThreadState};
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
use crate::fiber::Fibers;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Maximum number of simulated threads (bounded by the conflict-bitmap
/// width used in the HTM layer).
pub(crate) const MAX_THREADS: usize = 64;

/// Sentinel clock value marking a finished thread.
const DONE: u64 = u64::MAX;

/// The baton's holder before [`Scheduler::release_start`]: nobody.
const NOBODY: usize = usize::MAX;

/// The unwind payload of a simulated thread torn down because a peer
/// panicked; [`crate::SimBuilder::run`] reports the peer's panic instead.
pub(crate) struct PeerPanicked;

/// Pads an atomic to its own cache line to avoid host-level false sharing.
#[derive(Debug)]
#[repr(align(128))]
struct PaddedClock(AtomicU64);

/// One OS thread's parking place, padded like the clocks so parkers never
/// false-share. Only its owner waits on `cv`; whoever passes it the baton
/// notifies.
#[derive(Debug, Default)]
#[repr(align(128))]
struct Parker {
    mutex: Mutex<()>,
    cv: Condvar,
}

/// The shared scheduler state for one simulation run.
#[derive(Debug)]
pub struct Scheduler {
    window: u64,
    times: Vec<PaddedClock>,
    /// The baton: the id of the one simulated thread allowed to run.
    turn: AtomicUsize,
    /// Per-thread parking places of the OS-thread executor.
    parkers: Vec<Parker>,
    /// Per-thread fault-schedule state; empty when no faults are injected.
    /// Each entry is only ever locked by its own thread, so the mutexes are
    /// uncontended — they exist to make the state shareable via `&self`.
    faults: Vec<Mutex<FaultThreadState>>,
    /// When set, the model checker decides who runs next instead of the
    /// bounded-lag rule.
    control: Option<Arc<ScheduleControl>>,
    /// Set when a simulated thread of an OS-thread run panicked.
    poisoned: AtomicBool,
    /// The fibers a controlled run executes on its host thread; `None`
    /// when the simulated threads are OS threads.
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    fibers: Option<Fibers>,
}

impl Scheduler {
    /// Create a scheduler for `threads` simulated threads with the given
    /// bounded-lag `window`.
    pub fn new(threads: usize, window: u64) -> Self {
        Self::with_faults(threads, window, FaultPlan::none())
    }

    /// Create a scheduler that additionally injects the faults described by
    /// `plan` (see [`FaultPlan`]). An inactive plan is free.
    pub fn with_faults(threads: usize, window: u64, plan: FaultPlan) -> Self {
        assert!((1..=MAX_THREADS).contains(&threads));
        let faults = if plan.is_active() {
            (0..threads).map(|tid| Mutex::new(FaultThreadState::new(plan, tid))).collect()
        } else {
            Vec::new()
        };
        Scheduler {
            window,
            times: (0..threads).map(|_| PaddedClock(AtomicU64::new(0))).collect(),
            turn: AtomicUsize::new(NOBODY),
            parkers: (0..threads).map(|_| Parker::default()).collect(),
            faults,
            control: None,
            poisoned: AtomicBool::new(false),
            #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
            fibers: None,
        }
    }

    /// Create a scheduler whose interleaving is dictated by `control`
    /// (see [`ScheduleControl`]). Controlled runs are always window 0 and
    /// never inject faults: the clock still accrues per-thread costs (it
    /// feeds the default min-clock choice and the final makespan), but the
    /// control decides who holds the baton.
    ///
    /// Used as is, each simulated thread runs on its own OS thread and
    /// parks until it holds the baton. The crate's `Scheduler::with_fibers`
    /// builds on it to run the threads as fibers on the calling thread
    /// instead, which is what [`crate::SimBuilder::run`] does for
    /// controlled runs on x86_64 Linux.
    pub fn with_control(threads: usize, control: Arc<ScheduleControl>) -> Self {
        assert_eq!(control.threads(), threads, "control sized for a different thread count");
        let mut s = Self::with_faults(threads, 0, FaultPlan::none());
        s.control = Some(control);
        s
    }

    /// As [`Scheduler::with_control`], but the simulated threads are fibers
    /// on the calling host thread: spawn and run them through
    /// [`Scheduler::fibers`]. Each fiber's body returns
    /// [`Scheduler::finish`]'s result, the thread to switch to after it.
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    pub(crate) fn with_fibers(threads: usize, control: Arc<ScheduleControl>) -> Self {
        let mut s = Self::with_control(threads, control);
        s.fibers = Some(Fibers::new(threads));
        s
    }

    /// The fibers of a scheduler made by [`Scheduler::with_fibers`].
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    pub(crate) fn fibers(&self) -> &Fibers {
        self.fibers.as_ref().expect("scheduler was not made by with_fibers")
    }

    /// A simulated thread of an OS-thread run panicked: make every parked
    /// peer unwind.
    pub(crate) fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
        for t in 0..self.parkers.len() {
            self.notify(t);
        }
    }

    /// The faults injected so far into thread `id`, or `None` when the run
    /// has no fault plan.
    pub fn fault_stats(&self, id: usize) -> Option<FaultStats> {
        self.faults.get(id).map(|f| f.lock().stats())
    }

    /// Number of simulated threads.
    pub fn threads(&self) -> usize {
        self.times.len()
    }

    /// The bounded-lag window.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Start the run: hand the baton to thread 0.
    pub fn release_start(&self) {
        self.pass(0);
    }

    /// Read thread `id`'s clock (`u64::MAX` once finished).
    pub fn time_of(&self, id: usize) -> u64 {
        self.times[id].0.load(Ordering::SeqCst)
    }

    /// The one decision function. Thread `id`, which holds the baton, has
    /// reached a decision point (or finished, when `finished`): return the
    /// thread that runs next, `id` itself to keep the baton, or `None` once
    /// every thread has finished.
    pub(crate) fn next(&self, id: usize, finished: bool) -> Option<usize> {
        if let Some(ctl) = &self.control {
            return ctl.on_event(id, finished, &|t| self.time_of(t));
        }
        // The other live thread with the smallest `(clock, id)`.
        let (mut min, mut min_id) = (DONE, id);
        for (t, clock) in self.times.iter().enumerate() {
            let v = clock.0.load(Ordering::SeqCst);
            if t != id && v < min {
                min = v;
                min_id = t;
            }
        }
        if min == DONE {
            return (!finished).then_some(id);
        }
        let mine = self.time_of(id);
        let keep = !finished
            && if self.window == 0 {
                (mine, id) < (min, min_id)
            } else {
                mine <= min.saturating_add(self.window)
            };
        Some(if keep { id } else { min_id })
    }

    /// The one handoff: pass the baton from the running thread `from` to
    /// `to` and return once `from` holds it again.
    fn switch(&self, from: usize, to: Option<usize>) {
        if to == Some(from) {
            return;
        }
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        if let Some(fibers) = &self.fibers {
            return fibers.switch(from, to);
        }
        self.pass(to.expect("a live thread always has a successor"));
        self.park(from);
    }

    /// Hand the baton to OS thread `to` and wake it.
    fn pass(&self, to: usize) {
        self.turn.store(to, Ordering::SeqCst);
        self.notify(to);
    }

    /// Notify thread `t`'s parker. Taking its mutex orders this after the
    /// parker either checked the baton and the poison flag (seeing the
    /// caller's store) or started waiting, so no wakeup is lost.
    fn notify(&self, t: usize) {
        let p = &self.parkers[t];
        let _g = p.mutex.lock();
        p.cv.notify_one();
    }

    /// Park OS thread `id` until it holds the baton, or unwind if a peer
    /// panicked.
    fn park(&self, id: usize) {
        let p = &self.parkers[id];
        let mut guard = p.mutex.lock();
        while self.turn.load(Ordering::SeqCst) != id {
            if self.poisoned.load(Ordering::SeqCst) {
                drop(guard);
                std::panic::resume_unwind(Box::new(PeerPanicked));
            }
            p.cv.wait(&mut guard);
        }
    }

    fn advance(&self, id: usize, cost: u64) {
        let cost = match self.faults.get(id) {
            Some(f) => {
                let now = self.times[id].0.load(Ordering::SeqCst);
                cost + f.lock().extra_cycles(now, cost)
            }
            None => cost,
        };
        self.times[id].0.fetch_add(cost, Ordering::SeqCst);
        // Single-thread fast path: alone in a free run, a thread always
        // keeps the baton (fill phases and single-thread baselines take
        // this branch on every advance).
        if self.times.len() == 1 && self.control.is_none() {
            return;
        }
        // An unwinding thread keeps the baton until it has unwound.
        if std::thread::panicking() {
            return;
        }
        self.switch(id, self.next(id, false));
    }

    /// Mark `id` finished and return the thread that runs next (`None`:
    /// every thread has finished).
    pub(crate) fn finish(&self, id: usize) -> Option<usize> {
        self.times[id].0.store(DONE, Ordering::SeqCst);
        self.next(id, true)
    }
}

/// A per-thread handle onto the scheduler.
///
/// Cloning is cheap; clones share the same underlying clock.
#[derive(Debug, Clone)]
pub struct SimHandle {
    sched: Arc<Scheduler>,
    id: usize,
}

impl SimHandle {
    /// Create a handle for simulated thread `id`.
    pub fn new(sched: Arc<Scheduler>, id: usize) -> Self {
        assert!(id < sched.threads());
        SimHandle { sched, id }
    }

    /// The simulated thread id this handle represents.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Total number of simulated threads in this run.
    pub fn threads(&self) -> usize {
        self.sched.threads()
    }

    /// The thread's current logical clock, in cycles.
    pub fn now(&self) -> u64 {
        self.sched.time_of(self.id)
    }

    /// Advance the thread's logical clock by `cost` cycles, then pass the
    /// baton if the scheduler picks another thread, blocking until this
    /// thread holds it again.
    ///
    /// This is the simulation's only yield point: all simulated work —
    /// memory accesses, spin iterations, transaction bookkeeping, pure
    /// compute — must be accounted through it.
    pub fn advance(&self, cost: u64) {
        self.sched.advance(self.id, cost);
    }

    /// Block until this thread first holds the baton (see
    /// [`Scheduler::release_start`]).
    pub fn wait_for_start(&self) {
        self.sched.park(self.id);
    }

    /// Whether this run is serialized under a [`ScheduleControl`].
    pub fn controlled(&self) -> bool {
        self.sched.control.is_some()
    }

    /// Report a shared-line access for model-checker footprints. A no-op
    /// outside controlled runs, so instrumentation can call this
    /// unconditionally on hot paths.
    pub fn note_access(&self, line: u32, write: bool) {
        if let Some(ctl) = &self.sched.control {
            ctl.note_access(self.id, line, write);
        }
    }

    /// Decision steps taken so far in a controlled run (0 otherwise).
    /// Monotone over the serialized execution, so usable as a logical
    /// timestamp for operation-history recording.
    pub fn steps_taken(&self) -> u64 {
        self.sched.control.as_ref().map_or(0, |c| c.steps_taken() as u64)
    }

    /// Mark the thread finished, excluding it from min-clock computation
    /// so peers may run ahead freely, and hand the baton on.
    pub fn finish(&self) {
        if let Some(to) = self.sched.finish(self.id) {
            self.sched.pass(to);
        }
    }

    /// The scheduler this handle drives.
    pub(crate) fn scheduler(&self) -> &Scheduler {
        &self.sched
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A free-run scheduler whose threads stand at `clocks`. These tests
    /// only call `next` and `finish`, which never park.
    fn at_clocks(window: u64, clocks: &[u64]) -> Scheduler {
        let s = Scheduler::new(clocks.len(), window);
        for (t, &c) in clocks.iter().enumerate() {
            s.times[t].0.store(c, Ordering::SeqCst);
        }
        s
    }

    #[test]
    fn min_clock_ignores_finished_threads() {
        let s = at_clocks(0, &[0, 0, 5]);
        assert_eq!(s.finish(0), Some(1), "the baton goes to the smallest live peer");
        assert_eq!(s.time_of(0), u64::MAX, "finished threads report DONE");
        s.times[1].0.store(9, Ordering::SeqCst);
        assert_eq!(s.next(1, false), Some(2), "finished thread 0 is not the minimum");
        assert_eq!(s.finish(1), Some(2));
        s.times[2].0.store(1_000, Ordering::SeqCst);
        assert_eq!(s.next(2, false), Some(2), "a thread alone keeps the baton");
    }

    #[test]
    fn runnable_respects_window() {
        let s = at_clocks(8, &[8, 0]);
        assert_eq!(s.next(0, false), Some(0), "8 <= 0 + 8 keeps the baton");
        s.times[0].0.store(9, Ordering::SeqCst);
        assert_eq!(s.next(0, false), Some(1), "9 > 0 + 8 hands it on");
        let s = at_clocks(8, &[20, 3, 3, 1]);
        assert_eq!(s.next(0, false), Some(3), "the baton goes to the smallest clock");
    }

    #[test]
    fn strict_mode_breaks_ties_by_id() {
        let s = at_clocks(0, &[0, 0]);
        assert_eq!(s.next(0, false), Some(0));
        assert_eq!(s.next(1, false), Some(0));
        let s = at_clocks(8, &[20, 3, 3]);
        assert_eq!(s.next(0, false), Some(1));
    }

    #[test]
    fn all_done_yields_none() {
        let s = at_clocks(0, &[0, 0]);
        assert_eq!(s.finish(0), Some(1));
        assert_eq!(s.finish(1), None);
    }

    #[test]
    fn next_hands_the_baton_to_the_minimum() {
        let s = at_clocks(0, &[10, 0, 4]);
        assert_eq!(s.next(0, false), Some(1));
        s.times[1].0.store(7, Ordering::SeqCst);
        assert_eq!(s.next(0, false), Some(2));
        assert_eq!(s.next(2, false), Some(2), "the minimum keeps the baton");
    }

    #[test]
    fn directed_wakeup_is_not_lost() {
        // Thread 0 switches to thread 1 while thread 1 is about to park
        // for the baton, and thread 1 passes it back the same way. Either
        // side may get there first; both must wake holding the baton.
        for _ in 0..200 {
            let s = Arc::new(Scheduler::new(2, 0));
            s.release_start();
            let one = {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    s.park(1);
                    s.pass(0);
                })
            };
            let zero = {
                let s = Arc::clone(&s);
                std::thread::spawn(move || s.switch(0, Some(1)))
            };
            zero.join().expect("thread 0 must get the baton back");
            one.join().expect("thread 1 must be woken");
            assert_eq!(s.turn.load(Ordering::SeqCst), 0);
        }
    }
}
