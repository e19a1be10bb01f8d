//! Controlled serialized scheduling for the model checker.
//!
//! In controlled mode the simulator runs exactly one thread at a time:
//! every [`crate::SimHandle::advance`] call is a *decision point* where a
//! [`ScheduleControl`] picks which thread executes the next segment. The
//! default choice is the same `(clock, id)`-minimal rule the window-0
//! scheduler uses, so a run with no overrides reproduces the standard
//! window-0 execution exactly. A schedule is a slice of overrides indexed
//! by decision: entry `i` forces decision `i`'s thread, and a hole
//! (`None`) or a missing entry leaves it to the default rule. Forcing a
//! choice different from the default is a *divergence* (a preemption the
//! free-running scheduler would not take).
//!
//! The explorer in `elision-analysis` replays many such schedules to
//! enumerate interleavings. To make that sound, instrumented code reports
//! the shared cache lines each segment touches via
//! [`crate::SimHandle::note_access`]; those per-step footprints drive
//! dynamic partial-order reduction.
//!
//! The recorded [`Schedule`] is flat: a [`StepRecord`] holds no heap
//! data (its enabled threads are a bit set, its footprint a range of the
//! schedule's one access buffer), so a run allocates amortized O(1)
//! times for its schedule however many decisions it takes.
//!
//! The control only decides and records: it is the scheduler's decision
//! function in a controlled run, and the scheduler's baton carries out
//! each decision. [`crate::SimBuilder::run`] executes a controlled run's
//! threads as fibers on the calling thread (x86_64 Linux), otherwise as OS
//! threads; both executors ask the same decision function, so they record
//! identical schedules.
//!
//! Controlled runs ignore fault plans (the chaos layer's extra-cycle and
//! preemption hooks are bypassed) — chaos explores timing, the model
//! checker explores orderings, and mixing the two would double-count.

use crate::sched::MAX_THREADS;
use parking_lot::Mutex;
use std::ops::{Deref, Range};

// Thread sets are `u64` bit sets.
const _: () = assert!(MAX_THREADS <= u64::BITS as usize);

/// One shared-memory access performed during a schedule step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepAccess {
    /// Cache line index touched.
    pub line: u32,
    /// Whether the access can modify shared state (write/RMW/publication).
    pub write: bool,
}

/// One scheduling decision and the execution segment that followed it.
///
/// A record holds no heap data: the enabled threads are a bit set, and
/// the segment's accesses live in the owning [`Schedule`]'s one access
/// buffer, read back with [`Schedule::accesses`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StepRecord {
    /// Thread granted at this decision point.
    pub chosen: usize,
    /// Thread the window-0 `(clock, id)`-minimal rule would have picked.
    pub default: usize,
    /// Threads that had not yet finished at this decision point: bit `t`
    /// is thread `t` (a run has at most 64 threads).
    pub enabled: u64,
    /// The granted segment's accesses, as a range of the schedule's
    /// access buffer.
    pub accesses: Range<usize>,
}

impl StepRecord {
    /// The enabled threads, in ascending id.
    pub fn enabled_threads(&self) -> impl Iterator<Item = usize> {
        threads_in(self.enabled)
    }
}

/// The threads of a bit set (bit `t` is thread `t`), in ascending id.
fn threads_in(mut set: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (set != 0).then(|| {
            let t = set.trailing_zeros() as usize;
            set &= set - 1;
            t
        })
    })
}

/// A recorded schedule: one [`StepRecord`] per decision point, in
/// decision order (it dereferences to that slice), plus the one buffer
/// holding every step's accesses in program order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Schedule {
    steps: Vec<StepRecord>,
    accesses: Vec<StepAccess>,
}

impl Schedule {
    /// Append a decision: `chosen` was granted where the default rule
    /// picked `default`, with the threads of the `enabled` bit set live.
    /// Its segment has no accesses until [`Schedule::push_access`] adds
    /// some.
    pub fn push_step(&mut self, chosen: usize, default: usize, enabled: u64) {
        let at = self.accesses.len();
        self.steps.push(StepRecord { chosen, default, enabled, accesses: at..at });
    }

    /// Append an access to the last step's segment.
    ///
    /// # Panics
    ///
    /// Panics if no step was pushed yet.
    pub fn push_access(&mut self, access: StepAccess) {
        let step = self.steps.last_mut().expect("an access belongs to a step");
        self.accesses.push(access);
        step.accesses.end = self.accesses.len();
    }

    /// The accesses of step `i`'s segment, in program order.
    pub fn accesses(&self, i: usize) -> &[StepAccess] {
        &self.accesses[self.steps[i].accesses.clone()]
    }
}

impl Deref for Schedule {
    type Target = [StepRecord];

    fn deref(&self) -> &[StepRecord] {
        &self.steps
    }
}

struct CtlInner {
    /// All threads have reached their first decision point (or finished).
    started: bool,
    /// Thread currently allowed to run, if any.
    granted: Option<usize>,
    /// Threads that have not finished: bit `t` is thread `t`.
    live: u64,
    schedule: Schedule,
}

/// Serializes a simulated run and records/replays its schedule.
///
/// Construct one per run, hand it to [`crate::SimBuilder::control`], and
/// move the recorded schedule out with [`ScheduleControl::steps`] after the
/// run completes. Overrides index into the decision sequence: entry `i`
/// forces decision `i`, and a `None` entry or one past the slice's end
/// follows the default rule. An override whose target thread has already
/// finished (or whose index is never reached) is silently ignored, which
/// keeps schedule minimization robust when dropping earlier forced
/// choices shortens the run.
pub struct ScheduleControl {
    inner: Mutex<CtlInner>,
    threads: usize,
    overrides: Box<[Option<usize>]>,
}

impl std::fmt::Debug for ScheduleControl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScheduleControl")
            .field("threads", &self.threads)
            .field("overrides", &self.overrides)
            .field("steps_taken", &self.steps_taken())
            .finish_non_exhaustive()
    }
}

impl ScheduleControl {
    /// Runaway backstop on the number of decision steps of one run.
    pub const DEFAULT_MAX_STEPS: usize = 200_000;

    /// New control for `threads` simulated threads replaying `overrides`
    /// (entry `i` forces decision `i`; `None` follows the default rule).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is 0 or above the simulator's limit, or if an
    /// override names a thread id not below `threads`.
    #[must_use]
    pub fn new(threads: usize, overrides: &[Option<usize>]) -> Self {
        assert!(
            (1..=MAX_THREADS).contains(&threads),
            "controlled run needs 1 to {MAX_THREADS} threads, not {threads}"
        );
        for (idx, tid) in overrides.iter().enumerate() {
            if let &Some(tid) = tid {
                assert!(tid < threads, "override at step {idx} targets out-of-range thread {tid}");
            }
        }
        Self {
            inner: Mutex::new(CtlInner {
                started: false,
                granted: None,
                live: u64::MAX >> (64 - threads),
                schedule: Schedule::default(),
            }),
            threads,
            overrides: overrides.into(),
        }
    }

    /// Pick the next thread to run. Caller holds the inner lock; every
    /// live thread other than the caller is suspended or waiting for its
    /// turn.
    fn decide(&self, g: &mut CtlInner, clock_of: &dyn Fn(usize) -> u64) {
        debug_assert!(g.live != 0, "decide called with no live threads");
        let default =
            threads_in(g.live).min_by_key(|&t| (clock_of(t), t)).expect("nonempty enabled");
        let idx = g.schedule.len();
        assert!(
            idx < Self::DEFAULT_MAX_STEPS,
            "controlled run exceeded {} decision steps (runaway schedule?)",
            Self::DEFAULT_MAX_STEPS
        );
        let mut chosen = default;
        if let Some(&Some(want)) = self.overrides.get(idx) {
            if g.live & (1 << want) != 0 {
                chosen = want;
            }
        }
        g.schedule.push_step(chosen, default, g.live);
        g.granted = Some(chosen);
    }

    /// The decision function of a controlled run: record that `id`
    /// reached a decision point (or finished, when `finished`) and return
    /// the thread granted the next segment, or `None` once every thread has
    /// finished. Threads start in id order: until the last one has reached
    /// its first decision point (or finished), each passes the turn to the
    /// next id, and no step is recorded.
    pub(crate) fn on_event(
        &self,
        id: usize,
        finished: bool,
        clock_of: &dyn Fn(usize) -> u64,
    ) -> Option<usize> {
        let mut g = self.inner.lock();
        if finished {
            g.live &= !(1 << id);
        }
        if g.started {
            // Only the granted thread can be executing; it just ended its
            // segment, so pick the next one.
            debug_assert_eq!(g.granted, Some(id), "non-granted thread reached a decision point");
            g.granted = None;
        } else if id + 1 < self.threads {
            return Some(id + 1);
        } else {
            g.started = true;
        }
        if g.live == 0 {
            return None;
        }
        self.decide(&mut g, clock_of);
        g.granted
    }

    /// Record a shared-line access by the currently granted thread.
    pub(crate) fn note_access(&self, id: usize, line: u32, write: bool) {
        let mut g = self.inner.lock();
        if let Some(step) = g.schedule.last() {
            debug_assert_eq!(step.chosen, id, "access noted by non-granted thread");
            g.schedule.push_access(StepAccess { line, write });
        }
    }

    /// Number of decisions taken so far; monotone over the serialized
    /// execution, so usable as a logical timestamp for history recording.
    #[must_use]
    pub fn steps_taken(&self) -> usize {
        self.inner.lock().schedule.len()
    }

    /// Move the recorded schedule (one entry per decision point) out of
    /// the control. Call it once, after the run: the control keeps no
    /// copy, so a later call returns what was recorded since.
    #[must_use]
    pub fn steps(&self) -> Schedule {
        std::mem::take(&mut self.inner.lock().schedule)
    }

    /// Number of simulated threads under control.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimBuilder;
    use std::collections::HashSet;
    use std::sync::Arc;

    /// `threads` threads, `advances` advances each: run one controlled
    /// schedule and return the per-step chosen/default/enabled records.
    fn run_toy(threads: usize, advances: usize, overrides: &[Option<usize>]) -> Schedule {
        let ctl = Arc::new(ScheduleControl::new(threads, overrides));
        SimBuilder::new(threads).control(Arc::clone(&ctl)).run(move |ctx| {
            for _ in 0..advances {
                ctx.handle.advance(10);
            }
        });
        ctl.steps()
    }

    /// One toy execution on the fiber executor (`SimBuilder::run`) or on
    /// OS threads: thread `t` makes `advances` advances of cost `5 + 3t`,
    /// each after reporting an access to a line its peers also touch.
    fn run_toy_on(
        threads: usize,
        advances: usize,
        overrides: &[Option<usize>],
        on_threads: bool,
    ) -> (Schedule, Vec<u64>) {
        let ctl = Arc::new(ScheduleControl::new(threads, overrides));
        let builder = SimBuilder::new(threads).control(Arc::clone(&ctl));
        let body = move |ctx: crate::ThreadCtx| {
            for i in 0..advances {
                ctx.handle.note_access(((ctx.id + i) % 3) as u32, i % 2 == 0);
                ctx.handle.advance(5 + 3 * ctx.id as u64);
            }
            ctx.handle.steps_taken()
        };
        let out = if on_threads { builder.run_threads(body) } else { builder.run(body) };
        (ctl.steps(), out.results)
    }

    #[test]
    fn fiber_and_thread_executors_record_identical_schedules() {
        // Enumerate toy schedules by forcing every alternative choice at
        // every step (as the explorer does); both executors must record
        // the same steps and return the same results for each.
        for (threads, advances) in [(2, 2), (3, 2), (2, 4)] {
            let mut stack: Vec<Vec<Option<usize>>> = vec![Vec::new()];
            let mut queued: HashSet<Vec<Option<usize>>> = HashSet::new();
            let mut runs = 0;
            while let Some(overrides) = stack.pop() {
                runs += 1;
                if runs > 120 {
                    break;
                }
                let fibers = run_toy_on(threads, advances, &overrides, false);
                let os_threads = run_toy_on(threads, advances, &overrides, true);
                assert_eq!(fibers, os_threads, "{threads}x{advances} under {overrides:?}");
                let steps = fibers.0;
                for (i, step) in steps.iter().enumerate().skip(overrides.len()) {
                    for t in step.enabled_threads().filter(|&t| t != step.chosen) {
                        let mut child: Vec<Option<usize>> =
                            steps[..i].iter().map(|s| Some(s.chosen)).collect();
                        child.push(Some(t));
                        if queued.insert(child.clone()) {
                            stack.push(child);
                        }
                    }
                }
            }
            assert!(runs >= 6, "{threads}x{advances}: only {runs} schedules explored");
        }
    }

    #[test]
    fn empty_schedule_matches_window0_defaults() {
        let steps = run_toy(2, 2, &[]);
        assert_eq!(steps.len(), 4);
        for s in steps.iter() {
            assert_eq!(s.chosen, s.default, "unforced run must follow defaults");
        }
        // Equal costs: min-(clock, id) alternates t0, t1, t0, t1.
        let order: Vec<usize> = steps.iter().map(|s| s.chosen).collect();
        assert_eq!(order, vec![0, 1, 0, 1]);
    }

    #[test]
    fn dense_prefix_dfs_enumerates_all_six_interleavings() {
        // 2 threads x 2 segments each => C(4,2) = 6 maximal interleavings.
        let mut seen: HashSet<Vec<usize>> = HashSet::new();
        let mut queued: HashSet<Vec<usize>> = HashSet::new();
        let mut stack: Vec<Vec<usize>> = vec![Vec::new()];
        queued.insert(Vec::new());
        let mut runs = 0;
        while let Some(prefix) = stack.pop() {
            let overrides: Vec<Option<usize>> = prefix.iter().copied().map(Some).collect();
            let steps = run_toy(2, 2, &overrides);
            runs += 1;
            assert!(runs <= 64, "toy DFS exploded");
            let choices: Vec<usize> = steps.iter().map(|s| s.chosen).collect();
            assert_eq!(&choices[..prefix.len()], &prefix[..], "prefix must replay verbatim");
            seen.insert(choices.clone());
            for i in prefix.len()..steps.len() {
                for t in steps[i].enabled_threads() {
                    if t == choices[i] {
                        continue;
                    }
                    let mut child = choices[..i].to_vec();
                    child.push(t);
                    if queued.insert(child.clone()) {
                        stack.push(child);
                    }
                }
            }
        }
        assert_eq!(seen.len(), 6, "expected all C(4,2) interleavings, got {seen:?}");
        // Every execution schedules each thread exactly twice.
        for choices in &seen {
            assert_eq!(choices.len(), 4);
            assert_eq!(choices.iter().filter(|&&t| t == 0).count(), 2);
        }
    }

    /// How many decisions of `steps` differ from the default rule's choice.
    fn divergences(steps: &Schedule) -> usize {
        steps.iter().filter(|s| s.chosen != s.default).count()
    }

    #[test]
    fn overrides_divergences_are_counted_and_replayed() {
        // Force t1 to run both its segments first.
        let steps = run_toy(2, 2, &[Some(1), Some(1)]);
        let choices: Vec<usize> = steps.iter().map(|s| s.chosen).collect();
        assert_eq!(choices, vec![1, 1, 0, 0]);
        // Step 0 diverges (default t0); step 1 diverges too (after t1 ran
        // one segment its clock is ahead, default returns to t0).
        assert_eq!(divergences(&steps), 2);
    }

    #[test]
    fn override_of_finished_thread_falls_back_to_default() {
        // t1 has only finished segments by step 3; forcing it is ignored.
        let steps = run_toy(2, 2, &[Some(1), Some(1), Some(1)]);
        let choices: Vec<usize> = steps.iter().map(|s| s.chosen).collect();
        assert_eq!(choices, vec![1, 1, 0, 0], "step 2 override must fall back to t0");
    }

    #[test]
    fn three_thread_enabled_sets_shrink_as_threads_finish() {
        let steps = run_toy(3, 1, &[]);
        assert_eq!(steps.len(), 3);
        let enabled = |i: usize| steps[i].enabled_threads().collect::<Vec<_>>();
        assert_eq!(enabled(0), vec![0, 1, 2]);
        assert_eq!(enabled(1), vec![1, 2]);
        assert_eq!(enabled(2), vec![2]);
    }

    /// The choices a 2-thread, 2-advance toy run makes under `overrides`,
    /// and how many of them diverged from the default rule.
    fn toy_choices(overrides: &[Option<usize>]) -> (Vec<usize>, usize) {
        let steps = run_toy(2, 2, overrides);
        (steps.iter().map(|s| s.chosen).collect(), divergences(&steps))
    }

    #[test]
    fn a_hole_follows_the_default_and_only_set_entries_force() {
        // The default order is t0, t1, t0, t1.
        assert_eq!(toy_choices(&[]), (vec![0, 1, 0, 1], 0));
        // Forcing decision 1 to the thread the rule picks anyway changes
        // nothing; the hole at 0 is not a forced t1.
        assert_eq!(toy_choices(&[None, Some(1)]), (vec![0, 1, 0, 1], 0));
        assert_eq!(toy_choices(&[Some(1), Some(1)]), (vec![1, 1, 0, 0], 2));
        // Decision 0 follows the rule, decision 1 alone is forced.
        assert_eq!(toy_choices(&[None, Some(0)]), (vec![0, 0, 1, 1], 1));
    }

    #[test]
    fn overrides_past_the_run_or_to_finished_threads_are_ignored() {
        // The run has four decisions: index 4 is never reached.
        assert_eq!(toy_choices(&[None, None, None, None, Some(1)]), (vec![0, 1, 0, 1], 0));
        // t0 has finished by decision 3, so forcing it there falls back.
        assert_eq!(toy_choices(&[None, Some(0), None, Some(0)]), (vec![0, 0, 1, 1], 1));
    }

    #[test]
    #[should_panic(expected = "override at step 1 targets out-of-range thread 2")]
    fn an_out_of_range_override_panics() {
        let _ = ScheduleControl::new(2, &[None, Some(2)]);
    }
}
