//! Property tests for the model checker's two trust anchors.
//!
//! * **Bounds actually bound.** Whatever limits the explorer is given —
//!   down to a single schedule, a single run, a handful of steps — it
//!   terminates promptly, never panics, respects every cap it reports,
//!   and only claims a complete (non-truncated) search when enlarging
//!   the budget could not change the verdict.
//! * **Minimization is sound.** Shrinking a failing forced schedule may
//!   drop incidental decisions, but the minimized schedule must still
//!   reproduce the lint it was minimized for — a "minimal
//!   counterexample" that no longer fails would poison the golden
//!   corpus.
//!
//! Both properties run against the lazy-subscription fixtures the
//! `lazy_safety` sweep gates on, so the explorer is exercised exactly
//! where its counterexamples carry the most weight.

use elision_analysis::explore::{explore_and_minimize, minimize, overrides_for, Bounds};
use elision_analysis::testkit::{lazy_race_explore, lazy_zombie_explore, LazyFixes};
use elision_analysis::LintId;
use elision_core::LockKind;
use proptest::prelude::*;
use std::collections::HashSet;

proptest! {
    // Each case runs a full (bounded) model-checking search; keep the
    // case count modest so the suite stays fast.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary tight bounds: the search must terminate within its
    /// caps, and a non-truncated verdict must be stable under a larger
    /// budget (a complete search has nothing left to discover).
    #[test]
    fn tight_bounds_truncate_and_never_hang(
        max_schedules in 1usize..12,
        max_runs in 1usize..24,
        max_steps in 1usize..64,
        divergence in 0u32..5,
        fixes_idx in 0usize..4,
    ) {
        let fixes = LazyFixes::ALL[fixes_idx];
        let bounds = Bounds {
            divergence: Some(divergence),
            max_schedules,
            max_runs,
            max_steps,
        };
        let runner = |ov: &[Option<usize>]| {
            lazy_race_explore(LockKind::Ttas, fixes, ov)
        };
        let (stats, findings) = explore_and_minimize(&bounds, runner);
        prop_assert!(stats.executions >= 1, "the default schedule always runs");
        prop_assert!(
            stats.executions <= max_schedules,
            "executions {} exceed the schedule cap {max_schedules}",
            stats.executions
        );
        prop_assert!(
            stats.runs <= max_runs.max(1),
            "runs {} exceed the run cap {max_runs}",
            stats.runs
        );

        if !stats.truncated {
            // Complete search: every budget increase must reproduce the
            // same verdict, finding for finding.
            let bigger = Bounds {
                divergence: Some(divergence + 1),
                max_schedules: max_schedules + 16,
                max_runs: max_runs + 32,
                max_steps: max_steps + 128,
            };
            let (_, more) = explore_and_minimize(&bigger, runner);
            let lints: HashSet<LintId> = findings.iter().map(|f| f.finding.lint).collect();
            let more_lints: HashSet<LintId> = more.iter().map(|f| f.finding.lint).collect();
            prop_assert_eq!(
                lints,
                more_lints,
                "a complete search's verdict changed when the budget grew"
            );
        }
    }

    /// Arbitrary dense forced prefixes: whenever a schedule trips any
    /// lints, minimizing it for one of them must succeed, and replaying
    /// the minimized schedule must still trip at least one of the
    /// original lints.
    #[test]
    fn minimization_preserves_an_original_lint(
        choices in proptest::collection::vec(0usize..2, 1..14),
        use_zombie in any::<bool>(),
    ) {
        let runner = move |ov: &[Option<usize>]| {
            if use_zombie {
                lazy_zombie_explore(LockKind::Ttas, LazyFixes::default(), ov)
            } else {
                lazy_race_explore(LockKind::Ttas, LazyFixes::default(), ov)
            }
        };
        let overrides: Vec<Option<usize>> = choices.iter().copied().map(Some).collect();
        let (_, findings) = runner(&overrides);
        if let Some(first) = findings.first() {
            let original: HashSet<LintId> = findings.iter().map(|f| f.lint).collect();
            let (minimized, _, witness) = minimize(runner, &overrides, first.lint)
                .expect("the schedule just tripped this lint; minimization must reproduce it");
            prop_assert_eq!(witness.lint, first.lint);
            prop_assert!(
                minimized.len() <= overrides.len(),
                "minimization grew the schedule: {} -> {}",
                overrides.len(),
                minimized.len()
            );
            let (_, replayed) = runner(&overrides_for(&minimized));
            prop_assert!(
                replayed.iter().any(|f| original.contains(&f.lint)),
                "minimized schedule trips none of the original lints \
                 {original:?}: {replayed:#?}"
            );
        }
    }
}

/// The random-prefix property above is opportunistic (most prefixes are
/// clean); this deterministic companion guarantees the minimizer is
/// exercised on real counterexamples of both unsafe classes every run.
#[test]
fn minimization_is_sound_on_both_unsafe_classes() {
    type Runner = fn(&[Option<usize>]) -> elision_analysis::testkit::ExploreRun;
    let cases: [(&str, Runner, LintId); 2] = [
        (
            "zombie",
            |ov: &[Option<usize>]| lazy_zombie_explore(LockKind::Ttas, LazyFixes::default(), ov),
            LintId::LazyDangerousInstruction,
        ),
        (
            "subscription race",
            |ov: &[Option<usize>]| lazy_race_explore(LockKind::Ttas, LazyFixes::default(), ov),
            LintId::ZombieCommit,
        ),
    ];
    for (name, runner, marker) in cases {
        let (_, findings) = explore_and_minimize(&Bounds::lazy_safety(), runner);
        let hit = findings
            .iter()
            .find(|f| f.finding.lint == marker)
            .unwrap_or_else(|| panic!("{name}: {marker} not found: {findings:#?}"));

        // Bloat the witness with every decision the run actually took,
        // then demand the minimizer strip it back down without losing
        // the lint.
        let mut bloated = overrides_for(&hit.forced);
        let (steps, _) = runner(&bloated);
        bloated.resize(bloated.len().max(steps.len()), None);
        for (slot, s) in bloated.iter_mut().zip(steps.iter()) {
            slot.get_or_insert(s.chosen);
        }
        let (minimized, _, witness) =
            minimize(runner, &bloated, marker).expect("bloated witness must reproduce");
        assert_eq!(witness.lint, marker, "{name}: minimizer returned the wrong lint");
        assert!(
            minimized.len() <= hit.forced.len(),
            "{name}: minimizing a bloated schedule ({} overrides) produced more forced \
             steps ({}) than the search's own minimized witness ({})",
            bloated.len(),
            minimized.len(),
            hit.forced.len()
        );
        let (_, replayed) = runner(&overrides_for(&minimized));
        assert!(
            replayed.iter().any(|f| f.lint == marker),
            "{name}: minimized schedule no longer trips {marker}: {replayed:#?}"
        );
    }
}
