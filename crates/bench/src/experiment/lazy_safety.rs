//! The lazy-subscription safety gate: sweep the two unsafe execution
//! classes of arXiv 1407.6968 across {unfixed, dangerous-abort,
//! hardware-commit, both} × lock families and assert the paper's result
//! mechanically.
//!
//! * **Class A — zombie dangerous instruction** ([`lazy_zombie_explore`]):
//!   a lazily subscribed transaction reads a torn invariant and issues a
//!   data-dependent wild store aimed at the lock word itself, encoded so
//!   its own write-buffer-served subscription check passes. Unfixed
//!   cells MUST produce a minimized counterexample
//!   ([`LintId::LazyDangerousInstruction`]); either hardware fix closes
//!   the class. MCS is excluded from this class: its free encoding is a
//!   nil tail, and publishing that wedges the victim's release in an
//!   unbounded spin — the corruption is a hang, not a finite
//!   counterexample (see DESIGN.md §5g).
//! * **Class B — commit-time subscription race**
//!   ([`lazy_race_explore`]): the unfenced subscription sample reads the
//!   lock free, the lock holder acquires, and the commit publishes into
//!   the live critical section. Unfixed AND dangerous-abort cells MUST
//!   both produce counterexamples ([`LintId::ZombieCommit`] +
//!   [`LintId::CommitWhileLockHeld`]) — the dangerous-instruction screen
//!   is no help against a window that contains no dangerous instruction.
//!   Only the hardware commit-time subscription closes this class.
//!
//! Every cell — failing and clean alike — runs under the identical
//! [`Bounds::lazy_safety`] budget, so "fixed verifies clean" means
//! "clean under the same bounded search that found the counterexample
//! next door". Results are rendered as a table and, with `--metrics
//! DIR`, written as `LAZY_SAFETY.json`; the report carries no job
//! counts, timestamps or wall-clock data, so it is byte-identical
//! across `--jobs` values.
//!
//! [`lazy_zombie_explore`]: elision_analysis::testkit::lazy_zombie_explore
//! [`lazy_race_explore`]: elision_analysis::testkit::lazy_race_explore
//! [`LintId::LazyDangerousInstruction`]: LintId::LazyDangerousInstruction
//! [`LintId::ZombieCommit`]: LintId::ZombieCommit
//! [`LintId::CommitWhileLockHeld`]: LintId::CommitWhileLockHeld

use super::{assert_counterexamples, cell_report, cell_report_json, Run};
use crate::metrics::{Json, SCHEMA_VERSION};
use crate::report::Table;
use crate::sweep::Cell;
use elision_analysis::explore::{explore_and_minimize, Bounds, CellReport, Mode};
use elision_analysis::testkit::{lazy_race_explore, lazy_zombie_explore, LazyFixes};
use elision_analysis::LintId;
use elision_core::LockKind;

/// Acceptance bound on a minimized counterexample: replaying at most
/// this many forced decisions must reproduce the violation.
const MAX_COUNTEREXAMPLE_STEPS: usize = 15;

/// Which unsafe execution class a cell exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UnsafeClass {
    /// Class A: zombie dangerous instruction (wild store to the lock).
    Zombie,
    /// Class B: lock acquired between subscription check and commit.
    SubscriptionRace,
}

impl UnsafeClass {
    fn label(self) -> &'static str {
        match self {
            UnsafeClass::Zombie => "zombie",
            UnsafeClass::SubscriptionRace => "subscription_race",
        }
    }

    /// The lock families this class is explorable on. MCS's wild store
    /// wedges the victim (hang, not counterexample), so class A skips it.
    fn locks(self) -> &'static [LockKind] {
        match self {
            UnsafeClass::Zombie => &[LockKind::Ttas, LockKind::Ticket, LockKind::Clh],
            UnsafeClass::SubscriptionRace => {
                &[LockKind::Ttas, LockKind::Mcs, LockKind::Ticket, LockKind::Clh]
            }
        }
    }

    /// Whether a cell with these fixes must still produce a
    /// counterexample — the paper's fix-coverage matrix. The
    /// dangerous-instruction screen closes only class A; the hardware
    /// commit-time subscription closes both.
    fn must_fail(self, fixes: LazyFixes) -> bool {
        match self {
            UnsafeClass::Zombie => !fixes.dangerous_abort && !fixes.hardware_commit,
            UnsafeClass::SubscriptionRace => !fixes.hardware_commit,
        }
    }

    /// The lint that marks this class in a counterexample.
    fn marker(self) -> LintId {
        match self {
            UnsafeClass::Zombie => LintId::LazyDangerousInstruction,
            UnsafeClass::SubscriptionRace => LintId::ZombieCommit,
        }
    }

    fn run(self, lock: LockKind, fixes: LazyFixes) -> CellReport {
        let bounds = Bounds::lazy_safety();
        cell_report(match self {
            UnsafeClass::Zombie => {
                explore_and_minimize(Mode::Dpor, &bounds, |ov| lazy_zombie_explore(lock, fixes, ov))
            }
            UnsafeClass::SubscriptionRace => {
                explore_and_minimize(Mode::Dpor, &bounds, |ov| lazy_race_explore(lock, fixes, ov))
            }
        })
    }
}

pub(super) fn run(run: &mut Run) {
    let bounds = Bounds::lazy_safety();

    println!("== Lazy-subscription safety: unsafe classes x hardware fixes x locks ==\n");

    let mut keys: Vec<(UnsafeClass, LockKind, LazyFixes)> = Vec::new();
    let mut cells: Vec<Cell<'_, CellReport>> = Vec::new();
    for class in [UnsafeClass::Zombie, UnsafeClass::SubscriptionRace] {
        for fixes in LazyFixes::ALL {
            for &lock in class.locks() {
                let key = format!("{}/{}/{}", class.label(), lock.label(), fixes.label());
                keys.push((class, lock, fixes));
                cells.push(Cell::new(key, 2, move || class.run(lock, fixes)));
            }
        }
    }

    let results = run.sweep(cells);

    let mut rows: Vec<Json> = Vec::new();
    let mut table = Table::new(&["cell", "verdict", "executions", "runs", "findings"]);
    let mut counterexamples = 0usize;
    let mut clean = 0usize;
    for (&(class, lock, fixes), r) in keys.iter().zip(&results) {
        let key = format!("{}/{}/{}", class.label(), lock.label(), fixes.label());
        let must_fail = class.must_fail(fixes);
        table.row(vec![
            key.clone(),
            if must_fail { "must-fail".to_string() } else { "must-verify".to_string() },
            r.executions.to_string(),
            r.runs.to_string(),
            r.findings.len().to_string(),
        ]);
        let labels = vec![
            ("class", Json::Str(class.label().to_string())),
            ("lock", Json::Str(lock.label().to_string())),
            ("fixes", Json::Str(fixes.label().to_string())),
            ("must_fail", Json::Bool(must_fail)),
        ];
        rows.push(cell_report_json(labels, r, false));
        if must_fail {
            assert_counterexamples(&key, r, &[class.marker()], MAX_COUNTEREXAMPLE_STEPS);
            println!(
                "  {key}: {} counterexample(s), all within {MAX_COUNTEREXAMPLE_STEPS} \
                 forced steps",
                r.findings.len()
            );
            for f in &r.findings {
                println!("    {} ({} forced steps)", f.finding, f.forced.len());
            }
            counterexamples += 1;
        } else {
            assert!(
                !r.truncated || r.executions > 1,
                "{key}: the fixed cell was not actually searched"
            );
            assert!(
                r.findings.is_empty(),
                "{key}: a fixed cell produced findings under the shared bounds: {:?}",
                r.findings.iter().map(|f| f.finding.lint).collect::<Vec<_>>()
            );
            clean += 1;
        }
    }

    // The headline asymmetry, asserted in one place rather than left
    // implicit in the per-cell rule: the screen alone leaves class B
    // open, the hardware subscription alone closes both classes.
    let screen_only = LazyFixes { dangerous_abort: true, hardware_commit: false };
    assert!(
        UnsafeClass::SubscriptionRace.must_fail(screen_only)
            && !UnsafeClass::Zombie.must_fail(screen_only),
        "fix-coverage matrix lost the paper's asymmetry"
    );

    run.table(&table, None);
    println!(
        "\n{counterexamples} unsafe cells produced counterexamples, \
         {clean} fixed cells verified clean under identical bounds"
    );

    run.document(Json::obj(vec![
        ("schema_version", Json::Uint(SCHEMA_VERSION)),
        ("binary", Json::Str("lazy_safety".to_string())),
        (
            "config",
            Json::obj(vec![
                ("threads", Json::Uint(2)),
                ("mode", Json::Str("dpor".to_string())),
                (
                    "bounds",
                    Json::obj(vec![
                        (
                            "divergence",
                            bounds.divergence.map_or(Json::Null, |d| Json::Uint(u64::from(d))),
                        ),
                        ("max_schedules", Json::Uint(bounds.max_schedules as u64)),
                        ("max_runs", Json::Uint(bounds.max_runs as u64)),
                        ("max_steps", Json::Uint(bounds.max_steps as u64)),
                    ]),
                ),
                ("max_counterexample_steps", Json::Uint(MAX_COUNTEREXAMPLE_STEPS as u64)),
            ]),
        ),
        ("cells", Json::Arr(rows)),
    ]));
    println!("\nall lazy-safety assertions passed");
}
