//! Controlled serialized scheduling for the model checker.
//!
//! In controlled mode the simulator runs exactly one thread at a time:
//! every [`crate::SimHandle::advance`] call is a *decision point* where a
//! [`ScheduleControl`] picks which thread executes the next segment. The
//! default choice is the same `(clock, id)`-minimal rule the window-0
//! scheduler uses, so a run with no overrides reproduces the standard
//! window-0 execution exactly. A schedule is a sparse map from decision
//! index to thread id; forcing a choice different from the default is a
//! *divergence* (a preemption the free-running scheduler would not take).
//!
//! The explorer in `elision-analysis` replays many such schedules to
//! enumerate interleavings. To make that sound, instrumented code reports
//! the shared cache lines each segment touches via
//! [`crate::SimHandle::note_access`]; the per-step footprints are stored
//! on the [`StepRecord`] and drive dynamic partial-order reduction.
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

use parking_lot::Mutex;
use std::collections::BTreeMap;

/// One shared-memory access performed during a schedule step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepAccess {
    /// Cache line index touched.
    pub line: u32,
    /// Whether the access can modify shared state (write/RMW/publication).
    pub write: bool,
}

/// One scheduling decision and the execution segment that followed it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StepRecord {
    /// Thread granted at this decision point.
    pub chosen: usize,
    /// Thread the window-0 `(clock, id)`-minimal rule would have picked.
    pub default: usize,
    /// Threads that had not yet finished at this decision point (sorted).
    pub enabled: Vec<usize>,
    /// Simulated clock of the chosen thread at grant time.
    pub clock: u64,
    /// Shared lines touched by the granted segment, in program order.
    pub accesses: Vec<StepAccess>,
}

struct CtlInner {
    /// All threads have reached their first decision point (or finished).
    started: bool,
    /// Thread currently allowed to run, if any.
    granted: Option<usize>,
    done: Vec<bool>,
    steps: Vec<StepRecord>,
    divergences: u32,
}

/// Serializes a simulated run and records/replays its schedule.
///
/// Construct one per run, hand it to
/// [`crate::SimBuilder::control`], and read back [`ScheduleControl::steps`]
/// after the run completes. Overrides index into the decision sequence; an
/// override whose target thread has already finished (or whose index is
/// never reached) is silently ignored, which keeps schedule minimization
/// robust when dropping earlier forced choices shortens the run.
pub struct ScheduleControl {
    inner: Mutex<CtlInner>,
    threads: usize,
    overrides: BTreeMap<usize, usize>,
    max_steps: usize,
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
    /// Default runaway backstop on the number of decision steps.
    pub const DEFAULT_MAX_STEPS: usize = 200_000;

    /// New control for `threads` simulated threads replaying `overrides`.
    #[must_use]
    pub fn new(threads: usize, overrides: BTreeMap<usize, usize>) -> Self {
        Self::with_max_steps(threads, overrides, Self::DEFAULT_MAX_STEPS)
    }

    /// As [`ScheduleControl::new`] with an explicit step backstop.
    #[must_use]
    pub fn with_max_steps(
        threads: usize,
        overrides: BTreeMap<usize, usize>,
        max_steps: usize,
    ) -> Self {
        assert!(threads >= 1, "controlled run needs at least one thread");
        for (&idx, &tid) in &overrides {
            assert!(tid < threads, "override at step {idx} targets out-of-range thread {tid}");
        }
        Self {
            inner: Mutex::new(CtlInner {
                started: false,
                granted: None,
                done: vec![false; threads],
                steps: Vec::new(),
                divergences: 0,
            }),
            threads,
            overrides,
            max_steps,
        }
    }

    /// Pick the next thread to run. Caller holds the inner lock; every
    /// live thread other than the caller is suspended or waiting for its
    /// turn.
    fn decide(&self, g: &mut CtlInner, clock_of: &dyn Fn(usize) -> u64) {
        let enabled: Vec<usize> = (0..self.threads).filter(|&t| !g.done[t]).collect();
        debug_assert!(!enabled.is_empty(), "decide called with no live threads");
        let default =
            enabled.iter().copied().min_by_key(|&t| (clock_of(t), t)).expect("nonempty enabled");
        let idx = g.steps.len();
        assert!(
            idx < self.max_steps,
            "controlled run exceeded {} decision steps (runaway schedule?)",
            self.max_steps
        );
        let mut chosen = default;
        if let Some(&want) = self.overrides.get(&idx) {
            if !g.done[want] {
                chosen = want;
            }
        }
        if chosen != default {
            g.divergences += 1;
        }
        g.steps.push(StepRecord {
            chosen,
            default,
            enabled,
            clock: clock_of(chosen),
            accesses: Vec::new(),
        });
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
            g.done[id] = true;
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
        if g.done.iter().all(|&d| d) {
            return None;
        }
        self.decide(&mut g, clock_of);
        g.granted
    }

    /// Record a shared-line access by the currently granted thread.
    pub(crate) fn note_access(&self, id: usize, line: u32, write: bool) {
        let mut g = self.inner.lock();
        if let Some(step) = g.steps.last_mut() {
            debug_assert_eq!(step.chosen, id, "access noted by non-granted thread");
            step.accesses.push(StepAccess { line, write });
        }
    }

    /// Number of decisions taken so far; monotone over the serialized
    /// execution, so usable as a logical timestamp for history recording.
    #[must_use]
    pub fn steps_taken(&self) -> usize {
        self.inner.lock().steps.len()
    }

    /// The recorded schedule (one entry per decision point).
    #[must_use]
    pub fn steps(&self) -> Vec<StepRecord> {
        self.inner.lock().steps.clone()
    }

    /// How many decisions differed from the window-0 default choice.
    #[must_use]
    pub fn divergences(&self) -> u32 {
        self.inner.lock().divergences
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

    /// Two threads, two advances each: run one controlled schedule and
    /// return the per-step chosen/default/enabled records.
    fn run_toy(
        threads: usize,
        advances: usize,
        overrides: BTreeMap<usize, usize>,
    ) -> Vec<StepRecord> {
        let ctl = Arc::new(ScheduleControl::new(threads, overrides));
        let ctl_body = Arc::clone(&ctl);
        SimBuilder::new(threads).control(Arc::clone(&ctl)).run(move |ctx| {
            let _ = &ctl_body;
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
        overrides: BTreeMap<usize, usize>,
        on_threads: bool,
    ) -> (Vec<StepRecord>, Vec<u64>) {
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
            let mut stack: Vec<BTreeMap<usize, usize>> = vec![BTreeMap::new()];
            let mut queued: HashSet<Vec<(usize, usize)>> = HashSet::new();
            let mut runs = 0;
            while let Some(overrides) = stack.pop() {
                runs += 1;
                if runs > 120 {
                    break;
                }
                let fibers = run_toy_on(threads, advances, overrides.clone(), false);
                let os_threads = run_toy_on(threads, advances, overrides.clone(), true);
                assert_eq!(fibers, os_threads, "{threads}x{advances} under {overrides:?}");
                let steps = fibers.0;
                for (i, step) in steps.iter().enumerate().skip(overrides.len()) {
                    for &t in step.enabled.iter().filter(|&&t| t != step.chosen) {
                        let mut child: BTreeMap<usize, usize> =
                            steps[..i].iter().map(|s| s.chosen).enumerate().collect();
                        child.insert(i, t);
                        if queued.insert(child.iter().map(|(&k, &v)| (k, v)).collect()) {
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
        let steps = run_toy(2, 2, BTreeMap::new());
        assert_eq!(steps.len(), 4);
        for s in &steps {
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
            let overrides: BTreeMap<usize, usize> = prefix.iter().copied().enumerate().collect();
            let steps = run_toy(2, 2, overrides);
            runs += 1;
            assert!(runs <= 64, "toy DFS exploded");
            let choices: Vec<usize> = steps.iter().map(|s| s.chosen).collect();
            assert_eq!(&choices[..prefix.len()], &prefix[..], "prefix must replay verbatim");
            seen.insert(choices.clone());
            for i in prefix.len()..steps.len() {
                for &t in &steps[i].enabled {
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

    #[test]
    fn overrides_divergences_are_counted_and_replayed() {
        // Force t1 to run both its segments first.
        let overrides: BTreeMap<usize, usize> = [(0, 1), (1, 1)].into_iter().collect();
        let ctl = Arc::new(ScheduleControl::new(2, overrides));
        SimBuilder::new(2).control(Arc::clone(&ctl)).run(move |ctx| {
            for _ in 0..2 {
                ctx.handle.advance(10);
            }
        });
        let steps = ctl.steps();
        let choices: Vec<usize> = steps.iter().map(|s| s.chosen).collect();
        assert_eq!(choices, vec![1, 1, 0, 0]);
        // Step 0 diverges (default t0); step 1 diverges too (after t1 ran
        // one segment its clock is ahead, default returns to t0).
        assert_eq!(ctl.divergences(), 2);
    }

    #[test]
    fn override_of_finished_thread_falls_back_to_default() {
        // t1 has only finished segments by step 3; forcing it is ignored.
        let overrides: BTreeMap<usize, usize> = [(0, 1), (1, 1), (2, 1)].into_iter().collect();
        let steps = run_toy(2, 2, overrides);
        let choices: Vec<usize> = steps.iter().map(|s| s.chosen).collect();
        assert_eq!(choices, vec![1, 1, 0, 0], "step 2 override must fall back to t0");
    }

    #[test]
    fn three_thread_enabled_sets_shrink_as_threads_finish() {
        let steps = run_toy(3, 1, BTreeMap::new());
        assert_eq!(steps.len(), 3);
        assert_eq!(steps[0].enabled, vec![0, 1, 2]);
        assert_eq!(steps[1].enabled, vec![1, 2]);
        assert_eq!(steps[2].enabled, vec![2]);
    }
}
