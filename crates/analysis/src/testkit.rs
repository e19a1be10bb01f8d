//! Shared known-bad fixtures: the sanitizer's and model checker's
//! negative tests.
//!
//! A sanitizer that has never caught anything is indistinguishable from
//! one that cannot. The fixtures here deliberately violate the protocol
//! and are shared by the unit tests, the `sanitize_all` CI job, and the
//! `model_check` explorer so none of them duplicates the setup. They come
//! in two flavours:
//!
//! * **Fixed-schedule runs** — the violation fires on the standard
//!   window-0 schedule, so a single run exhibits it:
//!   [`broken_slr_schedule`] (the unsafe-lazy-subscription pitfall of
//!   paper §5 — expected [`LintId::DataRace`] +
//!   [`LintId::CommitWhileLockHeld`] + [`LintId::SlrUnsubscribedCommit`])
//!   and [`double_release_schedule`] (expected
//!   [`LintId::ReleaseWithoutAcquire`]).
//! * **Schedule-dependent runs** — the *default* schedule is clean and
//!   only a reordered interleaving exposes the bug, which is exactly what
//!   the [`crate::explore`] model checker exists to find:
//!   [`broken_slr_explore`] (an unsubscribed read-only transaction that
//!   only commits inside the lock holder's critical section when the
//!   scheduler is adversarial) and [`double_release_explore`] (a
//!   double-release gated on a probe word another thread must win the
//!   race to set).
//!
//! Every fixture hands its run to [`crate::driver::analyze`], the same
//! pipeline the sanitizer and the explorer use, so each gets the race,
//! opacity, lint and residual-bit passes over its sanitizer log. A
//! fixture only picks its [`Checks`]: the bare-TTAS fixtures state their
//! lock and policy, the lazy-subscription ones take their scheme's.
//!
//! [`LintId::DataRace`]: crate::LintId::DataRace
//! [`LintId::CommitWhileLockHeld`]: crate::LintId::CommitWhileLockHeld
//! [`LintId::SlrUnsubscribedCommit`]: crate::LintId::SlrUnsubscribedCommit
//! [`LintId::ReleaseWithoutAcquire`]: crate::LintId::ReleaseWithoutAcquire

use crate::driver::{analyze, Checks};
use crate::opacity::OpacityPolicy;
use crate::Finding;
use elision_core::{make_scheme, LazyMode, LockKind, SchemeConfig, SchemeKind};
use elision_htm::{codes, harness, HtmConfig, HwSubscription, Memory, MemoryBuilder, VarId};
use elision_locks::{RawLock, TtasLock};
use elision_sim::Schedule;
use std::sync::Arc;

/// Run the broken eager-commit SLR variant: the transaction skips the
/// subscription read (Figure 5 line 24) and commits while the lock
/// holder is mid-critical-section. Returns all findings.
pub fn broken_slr_schedule() -> Vec<Finding> {
    let mut b = MemoryBuilder::new();
    b.enable_sanitizer();
    let lock = Arc::new(TtasLock::new(&mut b));
    let x = b.alloc_isolated(0);
    let y = b.alloc_isolated(0);
    let mem = Arc::new(b.freeze(2));
    let threads = 2;
    let checks = Checks::for_lock(lock.lock_word(), OpacityPolicy::Sandboxed, true, threads);

    let (_, makespan) = harness::run_arc(
        threads,
        0, // strict window: the violation fires on the window-0 schedule
        HtmConfig::deterministic(),
        7,
        Arc::clone(&mem),
        move |s| {
            if s.tid() == 0 {
                // The honest lock holder: a long critical section
                // mutating x then (much later) y.
                lock.acquire(s).expect("non-speculative acquire");
                s.store(x, 1).expect("plain store");
                s.work(5_000).expect("non-transactional work");
                s.store(y, 2).expect("plain store");
                lock.release(s).expect("non-speculative release");
            } else {
                // The broken SLR transaction: reads the holder's
                // in-flight data and commits without subscribing.
                s.work(50).expect("non-transactional work");
                s.attempt(|s| {
                    s.load(x)?;
                    s.load(y)?;
                    Ok(())
                })
                .expect("uncontended read-only txn commits");
            }
        },
    );

    analyze(&checks, &mem, makespan)
}

/// Run a schedule where a thread releases the lock twice. Returns all
/// findings.
pub fn double_release_schedule() -> Vec<Finding> {
    double_release_run().1
}

/// [`double_release_schedule`]'s run: its memory, whose sanitizer log the
/// findings' sites index, and its findings.
fn double_release_run() -> (Arc<Memory>, Vec<Finding>) {
    let mut b = MemoryBuilder::new();
    b.enable_sanitizer();
    let lock = Arc::new(TtasLock::new(&mut b));
    let data = b.alloc_isolated(0);
    let mem = Arc::new(b.freeze(1));
    let checks = Checks::for_lock(lock.lock_word(), OpacityPolicy::Strict, false, 1);

    let (_, makespan) =
        harness::run_arc(1, 0, HtmConfig::deterministic(), 7, Arc::clone(&mem), move |s| {
            lock.acquire(s).expect("non-speculative acquire");
            s.store(data, 1).expect("plain store");
            lock.release(s).expect("non-speculative release");
            // The bug: a second release of a lock this thread no
            // longer holds.
            lock.release(s).expect("non-speculative release");
        });

    let findings = analyze(&checks, &mem, makespan);
    (mem, findings)
}

/// A controlled run's observable outcome: the schedule that was executed
/// (one [`elision_sim::StepRecord`] per decision) and everything the
/// analysis passes found on it.
pub type ExploreRun = (Schedule, Vec<Finding>);

/// Schedule-dependent broken SLR: an unsubscribed read-only transaction
/// racing a non-speculative lock holder, arranged so the *default*
/// window-0 schedule is clean.
///
/// Thread 1's transaction reads `x` and `y` and commits immediately,
/// while thread 0 first burns a long stretch of non-critical work and
/// only then takes the lock and writes both words. Under the default
/// `(clock, id)`-minimal schedule the transaction therefore commits long
/// before the lock is even acquired — no race (the later plain writes
/// join the global commit clock) and no commit-while-locked. Only an
/// adversarial schedule that delays the reader into the critical section
/// exposes the missing subscription as
/// [`LintId::CommitWhileLockHeld`](crate::LintId::CommitWhileLockHeld)
/// and/or [`LintId::DataRace`](crate::LintId::DataRace).
///
/// The lint pass runs with `require_subscription: false` on purpose: the
/// always-firing subscription lint would otherwise mask the
/// schedule-dependence this fixture exists to demonstrate.
pub fn broken_slr_explore(overrides: &[Option<usize>]) -> ExploreRun {
    let mut b = MemoryBuilder::new();
    b.enable_sanitizer();
    let lock = Arc::new(TtasLock::new(&mut b));
    let x = b.alloc_isolated(0);
    let y = b.alloc_isolated(0);
    let mem = Arc::new(b.freeze(2));
    let threads = 2;
    let checks = Checks::for_lock(lock.lock_word(), OpacityPolicy::Sandboxed, false, threads);

    let (steps, _, makespan) = harness::run_arc_controlled(
        threads,
        HtmConfig::deterministic(),
        7,
        overrides,
        Arc::clone(&mem),
        move |s| {
            if s.tid() == 0 {
                // Long non-critical prelude, then the critical
                // section. Under the default schedule the peer's
                // whole transaction fits inside the prelude.
                s.work(200).expect("non-transactional work");
                lock.acquire(s).expect("non-speculative acquire");
                s.store(x, 1).expect("plain store");
                s.work(20).expect("non-transactional work");
                s.store(y, 2).expect("plain store");
                lock.release(s).expect("non-speculative release");
            } else {
                // Unsubscribed read-only transaction, bounded retry:
                // adversarial schedules may doom it repeatedly.
                for _ in 0..4 {
                    let done = s
                        .attempt(|s| {
                            s.load(x)?;
                            s.load(y)?;
                            Ok(())
                        })
                        .is_ok();
                    if done {
                        break;
                    }
                }
            }
        },
    );
    (steps, analyze(&checks, &mem, makespan))
}

/// Schedule-dependent double release: thread 0 releases the lock a
/// second time only when it observes `probe == 1`, and thread 1 — which
/// publishes the probe through a properly subscribed transaction — loses
/// the race under the default schedule.
///
/// Thread 0 samples the probe *inside* its critical section, and thread
/// 1's transaction validates its lock subscription before committing
/// (the correct SLR shape — it deliberately contains no bug and never
/// spins on the lock), so no schedule produces a data race or a
/// commit-while-locked: the *only* finding any schedule can produce is
/// [`LintId::ReleaseWithoutAcquire`](crate::LintId::ReleaseWithoutAcquire)
/// — and only on interleavings where thread 1's transaction commits
/// before thread 0 samples the probe.
pub fn double_release_explore(overrides: &[Option<usize>]) -> ExploreRun {
    let mut b = MemoryBuilder::new();
    b.enable_sanitizer();
    let lock = Arc::new(TtasLock::new(&mut b));
    let data = b.alloc_isolated(0);
    let probe = b.alloc_isolated(0);
    let mem = Arc::new(b.freeze(2));
    let threads = 2;
    let checks = Checks::for_lock(lock.lock_word(), OpacityPolicy::Strict, false, threads);

    let (steps, _, makespan) = harness::run_arc_controlled(
        threads,
        HtmConfig::deterministic(),
        7,
        overrides,
        Arc::clone(&mem),
        move |s| {
            if s.tid() == 0 {
                lock.acquire(s).expect("non-speculative acquire");
                s.store(data, 1).expect("plain store");
                let p = s.load(probe).expect("plain load under the lock");
                lock.release(s).expect("non-speculative release");
                if p == 1 {
                    // The bug: releasing again because a peer was
                    // observed to have run first.
                    lock.release(s).expect("non-speculative release");
                }
            } else {
                // Late-starting peer: under the default schedule its
                // transaction commits after thread 0 sampled the
                // probe. The transaction itself is a *correct* SLR
                // shape: subscribe-and-validate before committing.
                s.work(60).expect("non-transactional work");
                for _ in 0..4 {
                    let done = s
                        .attempt(|s| {
                            s.store(probe, 1)?;
                            if lock.is_locked(s)? {
                                return Err(s.xabort(codes::LOCK_BUSY, true));
                            }
                            Ok(())
                        })
                        .is_ok();
                    if done {
                        break;
                    }
                }
            }
        },
    );
    (steps, analyze(&checks, &mem, makespan))
}

/// Which of arXiv 1407.6968's hardware fixes a lazy-subscription fixture
/// runs with. `Default` is the unfixed stock-Haswell configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LazyFixes {
    /// Hardware dangerous-instruction detection
    /// ([`HtmConfig::dangerous_abort`]): the zombie's wild store aborts
    /// at the offending access. Fixes the zombie class only — the
    /// commit-time subscription race involves no dangerous instruction.
    pub dangerous_abort: bool,
    /// Hardware commit-time subscription ([`LazyMode::HardwareCommit`]):
    /// the commit itself verifies the lock-free descriptor atomically
    /// with publication. Fixes both unsafe classes.
    pub hardware_commit: bool,
}

impl LazyFixes {
    /// The four sweep configurations, unfixed first.
    pub const ALL: [LazyFixes; 4] = [
        LazyFixes { dangerous_abort: false, hardware_commit: false },
        LazyFixes { dangerous_abort: true, hardware_commit: false },
        LazyFixes { dangerous_abort: false, hardware_commit: true },
        LazyFixes { dangerous_abort: true, hardware_commit: true },
    ];

    /// Stable snake_case label for artifacts.
    pub fn label(&self) -> &'static str {
        match (self.dangerous_abort, self.hardware_commit) {
            (false, false) => "unfixed",
            (true, false) => "dangerous_abort",
            (false, true) => "hardware_commit",
            (true, true) => "both",
        }
    }

    /// The HTM configuration this fix set implies.
    pub fn htm(&self) -> HtmConfig {
        HtmConfig::deterministic().with_dangerous_abort(self.dangerous_abort)
    }

    /// The scheme configuration this fix set implies, given the software
    /// subscription shape (`unfixed_mode`) the fixture models when the
    /// hardware commit-time subscription is absent.
    pub fn scheme_cfg(&self, unfixed_mode: LazyMode) -> SchemeConfig {
        let mode = if self.hardware_commit { LazyMode::HardwareCommit } else { unfixed_mode };
        SchemeConfig::explore().with_lazy_mode(mode)
    }
}

/// The wild store the class-A zombie issues after a torn read: a
/// `(target, value)` pair aimed at the lock so that the zombie's *own*
/// subscription check — served from its write buffer — reads the lock as
/// free. Derived from the lock's hardware descriptor so every family
/// gets the family-appropriate corruption.
fn zombie_wild_store(lock: &dyn RawLock, threads: usize) -> (VarId, u64) {
    match lock.hw_subscription() {
        HwSubscription::ValueIs { word, free } => (word, free),
        // Ticket: overwrite `next` with `owner`'s initial value (0, and
        // still 0 while the victim holds its first acquisition), making
        // next == owner read as free.
        HwSubscription::WordsEqual { a, .. } => (a, 0),
        // CLH: point the tail back at the initial node, which stays
        // unlocked while the victim spins on its own node.
        HwSubscription::IndirectValueIs { ptr, .. } => (ptr, threads as u64),
    }
}

/// Class A of arXiv 1407.6968 — the **zombie dangerous instruction**.
///
/// Thread 0 is an honest non-speculative lock holder maintaining the
/// invariant `sel == val` (both written inside the critical section,
/// with a gap). Thread 1 runs the same data through an SLR (lazy
/// subscription) transaction whose write *target* depends on what it
/// read: on a consistent snapshot it writes a scratch word, but on a
/// torn snapshot (`sel != val`) the computed "pointer" resolves to the
/// main lock word — and the value it writes there is exactly the lock's
/// free encoding, so the zombie's own commit-time subscription check,
/// served from its write buffer, passes on fabricated state and the wild
/// store escapes to memory. The default schedule is clean (the whole
/// transaction fits inside thread 0's prelude); only an adversarial
/// interleaving exposes [`crate::LintId::LazyDangerousInstruction`] +
/// [`crate::LintId::CommitWhileLockHeld`].
///
/// MCS is deliberately not offered here: its free encoding is a nil
/// tail, and publishing that while the victim is queued wedges the
/// victim's release in an unbounded spin — the corruption manifests as
/// a hang rather than a finite counterexample, which a bounded explorer
/// cannot exhibit (see DESIGN.md §5g).
pub fn lazy_zombie_explore(
    lock: LockKind,
    fixes: LazyFixes,
    overrides: &[Option<usize>],
) -> ExploreRun {
    assert!(lock != LockKind::Mcs, "MCS wild store wedges the victim; not explorable");
    let threads = 2;
    let mut b = MemoryBuilder::new();
    b.enable_sanitizer();
    let scheme =
        make_scheme(SchemeKind::OptSlr, lock, fixes.scheme_cfg(LazyMode::ReadSet), &mut b, threads);
    let sel = b.alloc_isolated(0);
    let val = b.alloc_isolated(0);
    let scratch = b.alloc_isolated(0);
    let (wild_target, wild_value) = zombie_wild_store(scheme.main_lock().as_ref(), threads);
    let mem = Arc::new(b.freeze(threads));
    let checks = Checks::for_scheme(&scheme, threads);
    let main = Arc::clone(scheme.main_lock());

    let (steps, _, makespan) = harness::run_arc_controlled(
        threads,
        fixes.htm(),
        7,
        overrides,
        Arc::clone(&mem),
        move |s| {
            if s.tid() == 0 {
                // Long non-critical prelude (keeps the default
                // schedule clean), then the invariant-maintaining
                // critical section.
                s.work(200).expect("non-transactional work");
                main.acquire(s).expect("non-speculative acquire");
                s.store(sel, 1).expect("plain store");
                s.work(20).expect("non-transactional work");
                s.store(val, 1).expect("plain store");
                main.release(s).expect("non-speculative release");
            } else {
                scheme.execute(s, |s| {
                    let a = s.load(sel)?;
                    let v = s.load(val)?;
                    if a == v {
                        s.store(scratch, a + v)?;
                    } else {
                        // Torn snapshot: the data-dependent write
                        // target resolves to the lock word.
                        s.store(wild_target, wild_value)?;
                    }
                    Ok(())
                });
            }
        },
    );
    (steps, analyze(&checks, &mem, makespan))
}

/// Class B of arXiv 1407.6968 — the **commit-time subscription race**.
///
/// Thread 1's transaction touches only a private counter and performs
/// its lazy subscription check the way stock hardware runs it
/// ([`LazyMode::Unfenced`]): a racy sample of the lock that joins no
/// read set. Thread 0 acquires the lock between that sample and the
/// commit — the commit publishes into an active critical section, seen
/// as [`crate::LintId::ZombieCommit`] (the sampled lock word went stale)
/// plus [`crate::LintId::CommitWhileLockHeld`]. The default schedule is
/// clean; all four lock families are explorable.
pub fn lazy_race_explore(
    lock: LockKind,
    fixes: LazyFixes,
    overrides: &[Option<usize>],
) -> ExploreRun {
    let threads = 2;
    let mut b = MemoryBuilder::new();
    b.enable_sanitizer();
    let scheme = make_scheme(
        SchemeKind::OptSlr,
        lock,
        fixes.scheme_cfg(LazyMode::Unfenced),
        &mut b,
        threads,
    );
    let x = b.alloc_isolated(0);
    let y = b.alloc_isolated(0);
    let mem = Arc::new(b.freeze(threads));
    let checks = Checks::for_scheme(&scheme, threads);
    let main = Arc::clone(scheme.main_lock());

    let (steps, _, makespan) = harness::run_arc_controlled(
        threads,
        fixes.htm(),
        7,
        overrides,
        Arc::clone(&mem),
        move |s| {
            if s.tid() == 0 {
                s.work(200).expect("non-transactional work");
                main.acquire(s).expect("non-speculative acquire");
                s.store(x, 1).expect("plain store");
                main.release(s).expect("non-speculative release");
            } else {
                scheme.execute(s, |s| {
                    let v = s.load(y)?;
                    s.store(y, v + 1)?;
                    Ok(())
                });
            }
        },
    );
    (steps, analyze(&checks, &mem, makespan))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LintId;
    use elision_htm::SanAccess;

    #[test]
    fn broken_slr_trips_race_lock_held_and_subscription_lints() {
        let findings = broken_slr_schedule();
        for expected in
            [LintId::DataRace, LintId::CommitWhileLockHeld, LintId::SlrUnsubscribedCommit]
        {
            let hit = findings.iter().find(|f| f.lint == expected);
            let hit = hit.unwrap_or_else(|| panic!("{expected} not detected: {findings:#?}"));
            assert!(!hit.sites.is_empty(), "{expected} finding lacks provenance");
        }
        // The race must implicate both threads with real provenance.
        let race = findings.iter().find(|f| f.lint == LintId::DataRace).expect("checked above");
        let tids: Vec<usize> = race.sites.iter().map(|s| s.tid).collect();
        assert!(tids.contains(&0) && tids.contains(&1), "race sites: {:?}", race.sites);
    }

    #[test]
    fn double_release_trips_the_lint() {
        let findings = double_release_schedule();
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert_eq!(findings[0].lint, LintId::ReleaseWithoutAcquire);
        assert!(!findings[0].sites.is_empty());
    }

    #[test]
    fn a_lint_site_names_its_sanitizer_log_entry() {
        let (mem, findings) = double_release_run();
        let site = findings
            .iter()
            .find(|f| f.lint == LintId::ReleaseWithoutAcquire)
            .and_then(|f| f.sites.first())
            .unwrap_or_else(|| panic!("no release-without-acquire site: {findings:#?}"));
        let logged = mem.san_log().expect("sanitizer enabled").snapshot()[site.seq];
        assert!(
            matches!(logged.access, SanAccess::LockRelease { word } if Some(word.index()) == site.var),
            "{logged:?}"
        );
        assert_eq!((logged.tid, logged.time), (site.tid, site.time));
    }

    #[test]
    fn explore_fixtures_are_clean_on_the_default_schedule() {
        let (steps, findings) = broken_slr_explore(&[]);
        assert!(!steps.is_empty(), "controlled run recorded no decisions");
        assert!(findings.is_empty(), "default broken-SLR schedule must be clean: {findings:#?}");

        let (steps, findings) = double_release_explore(&[]);
        assert!(!steps.is_empty(), "controlled run recorded no decisions");
        assert!(
            findings.is_empty(),
            "default double-release schedule must be clean: {findings:#?}"
        );
    }

    #[test]
    fn lazy_fixtures_are_clean_on_the_default_schedule() {
        // Every (class, lock, fixes) cell the sweep visits must be clean
        // on the default schedule — the unsafety is schedule-dependent.
        for fixes in LazyFixes::ALL {
            for lock in [LockKind::Ttas, LockKind::Ticket, LockKind::Clh] {
                let (steps, findings) = lazy_zombie_explore(lock, fixes, &[]);
                assert!(!steps.is_empty(), "controlled run recorded no decisions");
                assert!(
                    findings.is_empty(),
                    "default zombie schedule ({} / {}) must be clean: {findings:#?}",
                    lock.label(),
                    fixes.label()
                );
            }
            for lock in [LockKind::Ttas, LockKind::Mcs, LockKind::Ticket, LockKind::Clh] {
                let (steps, findings) = lazy_race_explore(lock, fixes, &[]);
                assert!(!steps.is_empty(), "controlled run recorded no decisions");
                assert!(
                    findings.is_empty(),
                    "default subscription-race schedule ({} / {}) must be clean: {findings:#?}",
                    lock.label(),
                    fixes.label()
                );
            }
        }
    }

    #[test]
    fn explore_fixtures_replay_deterministically() {
        let (a_steps, a_findings) = broken_slr_explore(&[]);
        let (b_steps, b_findings) = broken_slr_explore(&[]);
        assert_eq!(a_steps, b_steps);
        assert_eq!(a_findings, b_findings);
    }
}
