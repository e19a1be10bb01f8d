//! Golden counterexample corpus for the two unsafe lazy-subscription
//! classes of arXiv 1407.6968.
//!
//! The DPOR explorer *finds* the counterexamples; these tests pin what
//! it found. Each test re-runs the bounded search, replays the
//! minimized schedule of the class-marker finding twice through the
//! fixture, asserts the replays are bit-identical (same findings, same
//! messages, same provenance), and compares an FNV-1a hash of a
//! canonical rendering — forced schedule plus every replayed finding —
//! against a golden captured when the corpus was created. A drifting
//! hash means the counterexample itself changed (different schedule,
//! different lints, different sites), which must be a deliberate
//! decision, never an accident.
//!
//! If one of these fails after an intentional change to the explorer,
//! the fixtures, or the analysis passes, regenerate the constants from
//! the failure message — the test prints the actual hash.

use elision_analysis::explore::{explore_and_minimize, overrides_for, Bounds};
use elision_analysis::testkit::{lazy_race_explore, lazy_zombie_explore, LazyFixes};
use elision_analysis::{Finding, LintId};
use elision_core::LockKind;
use std::collections::HashSet;

/// FNV-1a 64-bit, as in `artifact_goldens.rs`: an equality gate, not
/// security.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Canonical rendering of a counterexample: the forced schedule, then
/// every finding its replay produces, with full provenance. Everything
/// the corpus promises is in here, so the hash pins all of it.
fn canon(forced: &[(usize, usize)], findings: &[Finding]) -> String {
    let mut s = String::new();
    for &(step, thread) in forced {
        s.push_str(&format!("s{step}t{thread};"));
    }
    s.push('\n');
    for f in findings {
        s.push_str(&format!("{}|{}", f.lint.label(), f.message));
        for site in &f.sites {
            s.push_str(&format!(
                "|t{}v{:?}l{:?}@{}#{}",
                site.tid, site.var, site.line, site.time, site.seq
            ));
        }
        s.push('\n');
    }
    s
}

/// Search for the class marker, then replay its minimized schedule and
/// check the golden. Returns the replayed lint set for extra assertions.
fn check_counterexample(
    runner: impl Fn(&[Option<usize>]) -> (elision_sim::Schedule, Vec<Finding>),
    marker: LintId,
    golden: u64,
) -> HashSet<LintId> {
    let (_, findings) = explore_and_minimize(&Bounds::lazy_safety(), |ov| runner(ov));
    let hit = findings
        .iter()
        .find(|f| f.finding.lint == marker)
        .unwrap_or_else(|| panic!("{marker} not found by the bounded search: {findings:#?}"));
    assert!(
        hit.forced.len() <= 15,
        "minimized {marker} counterexample needs {} forced steps (budget 15)",
        hit.forced.len()
    );

    // The minimized schedule is a complete reproduction recipe: forcing
    // exactly these decisions must yield exactly these findings, run
    // after run.
    let overrides = overrides_for(&hit.forced);
    let (_, replay_a) = runner(&overrides);
    let (_, replay_b) = runner(&overrides);
    assert_eq!(replay_a, replay_b, "replaying the minimized schedule must be bit-identical");

    let lints: HashSet<LintId> = replay_a.iter().map(|f| f.lint).collect();
    assert!(lints.contains(&marker), "replay lost the class marker: {lints:?}");

    let got = fnv1a(canon(&hit.forced, &replay_a).as_bytes());
    assert_eq!(
        got, golden,
        "{marker} counterexample changed: fnv1a {got:#018x} != golden {golden:#018x} \
         (update only for an intentional explorer/fixture/analysis change)"
    );
    lints
}

/// Class A on TTAS: the zombie's published wild store to the lock word.
#[test]
fn zombie_counterexample_replays_bit_identically() {
    let lints = check_counterexample(
        |ov| lazy_zombie_explore(LockKind::Ttas, LazyFixes::default(), ov),
        LintId::LazyDangerousInstruction,
        GOLDEN_ZOMBIE_TTAS,
    );
    // The wild store lands inside the victim's critical section, so the
    // zombie's commit is also a commit-while-locked.
    assert!(lints.contains(&LintId::CommitWhileLockHeld), "replay lints: {lints:?}");
}

/// Class B on TTAS: the lock acquired inside the check-to-commit window.
#[test]
fn subscription_race_counterexample_replays_bit_identically() {
    let lints = check_counterexample(
        |ov| lazy_race_explore(LockKind::Ttas, LazyFixes::default(), ov),
        LintId::ZombieCommit,
        GOLDEN_RACE_TTAS,
    );
    assert!(lints.contains(&LintId::CommitWhileLockHeld), "replay lints: {lints:?}");
}

/// Class B survives the dangerous-instruction screen: same search, same
/// marker, on the cell where the *wrong* fix is enabled. This is the
/// paper's central asymmetry, pinned as a golden of its own.
#[test]
fn screen_only_subscription_race_counterexample_is_pinned() {
    let screen_only = LazyFixes { dangerous_abort: true, hardware_commit: false };
    check_counterexample(
        |ov| lazy_race_explore(LockKind::Ttas, screen_only, ov),
        LintId::ZombieCommit,
        GOLDEN_RACE_TTAS_SCREENED,
    );
}

// Golden hashes of the minimized counterexamples, captured from the
// run that created this corpus. The screened class-B golden equals the
// unfixed one by design: the dangerous-instruction screen changes
// *nothing* about the subscription race — same schedule, same findings,
// byte for byte — which is exactly the asymmetry worth pinning.
const GOLDEN_ZOMBIE_TTAS: u64 = 0x3aaa_0e6e_c9c2_943f;
const GOLDEN_RACE_TTAS: u64 = 0xe177_0d5d_1b2f_e039;
const GOLDEN_RACE_TTAS_SCREENED: u64 = 0xe177_0d5d_1b2f_e039;
