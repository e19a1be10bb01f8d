//! Opacity/race sanitizer and lock-discipline lints for the elision stack.
//!
//! The paper's correctness argument rests on three claims that are easy
//! to state and easy to silently break while tuning the schemes:
//!
//! 1. **Data-race freedom** — every access to critical-section data is
//!    ordered by the locking/elision protocol (happens-before), so a
//!    committed speculative run is indistinguishable from a locked one.
//! 2. **Opacity / sandboxing** (paper §5) — an HLE or eagerly-subscribed
//!    SCM transaction never *observes* inconsistent state (opacity);
//!    a lazily-subscribed SLR transaction may observe inconsistent state
//!    as a doomed "zombie" but must never *commit* it (sandboxing), and
//!    no transaction may commit while a non-speculative peer holds the
//!    main lock.
//! 3. **Lock discipline** — SLR/SCM transactions subscribe to the main
//!    lock before committing, SCM threads take the main lock only while
//!    holding their auxiliary lock, and acquires/releases balance.
//!
//! This crate checks all three *post hoc* over the one event stream the
//! lower layers produce: the [`elision_htm::SanLog`] (every memory
//! access, transaction event, lock transition and protocol marker, in
//! global execution order — one simulated thread runs at a time).
//! [`driver::analyze`] is the one pipeline every run goes through: it
//! runs all three passes plus the residual conflict-bit check.
//! [`driver::sanitize_run`] feeds it a whole scheme × lock × fault-plan
//! cell; [`testkit`] provides known-bad schedules and workloads that must
//! trip specific lints (the sanitizer's own negative tests).
//!
//! On top of the sampling passes, [`explore`] turns the sanitizer into a
//! bounded *model checker*: it drives the controlled scheduler through the
//! interleavings of small configurations, up to bounds on executions,
//! runs, steps and preemptions (with dynamic partial-order reduction),
//! runs every new execution through the passes above plus the
//! [`linearize`] history oracle, and minimizes any failing schedule into a
//! counterexample small enough to read.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advisor;
pub mod driver;
pub mod explore;
pub mod footprint;
pub mod layout;
pub mod linearize;
pub mod lint;
pub mod opacity;
pub mod race;
pub mod testkit;

use std::fmt;

/// The sanitizer's lint taxonomy: every finding carries exactly one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LintId {
    /// Two unordered accesses to the same data word, at least one a
    /// write (vector-clock happens-before violation).
    DataRace,
    /// A live transaction performed a read while a previously-read word
    /// had been overwritten by a peer — an inconsistent snapshot,
    /// forbidden for opacity-preserving (eagerly subscribed) schemes.
    OpacityInconsistentRead,
    /// A transaction committed after one of its reads went stale: a
    /// zombie escaped the sandbox (forbidden for *every* scheme).
    ZombieCommit,
    /// A transaction committed while a different thread held the main
    /// lock non-speculatively — the unsafe-lazy-subscription failure
    /// mode of paper §5.
    CommitWhileLockHeld,
    /// Conflict-bitmap reader/writer bits survived the run: some
    /// transaction leaked its read/write-set registration.
    ResidualConflictBits,
    /// Transaction begin/commit/abort events do not balance.
    UnbalancedTxn,
    /// A lock release by a thread that did not hold the lock.
    ReleaseWithoutAcquire,
    /// A lock acquisition while another thread held the lock (mutual
    /// exclusion violation at the level of lock events).
    OverlappingAcquire,
    /// A transaction committed without subscribing to the main lock —
    /// SLR's lazy subscription (Figure 5 line 24) was skipped.
    SlrUnsubscribedCommit,
    /// The main lock was acquired non-speculatively by an SCM thread
    /// that held no auxiliary lock (paper §6: only the aux holder may
    /// take the main lock).
    ScmMainWithoutAux,
    /// A concurrent operation history admits no sequential order that is
    /// consistent with real-time precedence and the sequential reference
    /// model — the execution is not linearizable.
    NotLinearizable,
    /// Static (advisor) lint: two operations that never touch a common
    /// variable nevertheless conflict on a cache line, because distinct
    /// variables share the line (arXiv 1504.04640's placement-induced
    /// aborts).
    FalseSharing,
    /// Static (advisor) lint: an operation's read- or write-line
    /// footprint is within the configured margin of the HTM's `LineSet`
    /// capacity — capacity aborts are predicted.
    CapacityRisk,
    /// Static (advisor) lint: a data or metadata variable shares a cache
    /// line with a lock word, so every elided critical section touching
    /// it conflicts with its own lock — the classic HLE self-abort.
    LockWordCoResidency,
    /// Static (advisor) lint: a lazily-subscribed (SLR-style) section
    /// contains writes whose target depends on data read inside the
    /// section — the "dangerous instruction" class of arXiv 1407.6968: a
    /// zombie running such a section can target wild addresses before
    /// the subscription check would have stopped it.
    LazyDangerousInstruction,
}

impl LintId {
    /// Every lint the sanitizer can report.
    pub const ALL: [LintId; 15] = [
        LintId::DataRace,
        LintId::OpacityInconsistentRead,
        LintId::ZombieCommit,
        LintId::CommitWhileLockHeld,
        LintId::ResidualConflictBits,
        LintId::UnbalancedTxn,
        LintId::ReleaseWithoutAcquire,
        LintId::OverlappingAcquire,
        LintId::SlrUnsubscribedCommit,
        LintId::ScmMainWithoutAux,
        LintId::NotLinearizable,
        LintId::FalseSharing,
        LintId::CapacityRisk,
        LintId::LockWordCoResidency,
        LintId::LazyDangerousInstruction,
    ];

    /// Stable kebab-case identifier (used in JSON reports and docs).
    pub fn label(&self) -> &'static str {
        match self {
            LintId::DataRace => "data-race",
            LintId::OpacityInconsistentRead => "opacity-inconsistent-read",
            LintId::ZombieCommit => "zombie-commit",
            LintId::CommitWhileLockHeld => "commit-while-lock-held",
            LintId::ResidualConflictBits => "residual-conflict-bits",
            LintId::UnbalancedTxn => "unbalanced-txn",
            LintId::ReleaseWithoutAcquire => "release-without-acquire",
            LintId::OverlappingAcquire => "overlapping-acquire",
            LintId::SlrUnsubscribedCommit => "slr-unsubscribed-commit",
            LintId::ScmMainWithoutAux => "scm-main-without-aux",
            LintId::NotLinearizable => "not-linearizable",
            LintId::FalseSharing => "false-sharing",
            LintId::CapacityRisk => "capacity-risk",
            LintId::LockWordCoResidency => "lock-word-co-residency",
            LintId::LazyDangerousInstruction => "lazy-dangerous-instruction",
        }
    }
}

impl fmt::Display for LintId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Provenance of one access involved in a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessSite {
    /// The simulated thread that performed the access.
    pub tid: usize,
    /// The word accessed (raw [`elision_htm::VarId`] index), if any.
    pub var: Option<u32>,
    /// The cache line involved, if known.
    pub line: Option<u32>,
    /// The thread's logical clock at the access.
    pub time: u64,
    /// Global sequence number: the access's index in the sanitizer log.
    pub seq: usize,
}

impl fmt::Display for AccessSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}@{}#{}", self.tid, self.time, self.seq)?;
        if let Some(v) = self.var {
            write!(f, " var {v}")?;
        }
        if let Some(l) = self.line {
            write!(f, " line {l}")?;
        }
        Ok(())
    }
}

/// One sanitizer finding: a lint, a human-readable message, and the
/// access sites that witness the violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which invariant was violated.
    pub lint: LintId,
    /// Human-readable description with concrete values.
    pub message: String,
    /// The witnessing accesses, in the order they appear in the log.
    pub sites: Vec<AccessSite>,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.lint, self.message)?;
        for s in &self.sites {
            write!(f, "\n    at {s}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct_kebab_case() {
        for (i, a) in LintId::ALL.iter().enumerate() {
            assert!(a.label().chars().all(|c| c.is_ascii_lowercase() || c == '-'));
            for b in &LintId::ALL[i + 1..] {
                assert_ne!(a.label(), b.label());
            }
        }
    }

    #[test]
    fn finding_display_carries_provenance() {
        let f = Finding {
            lint: LintId::DataRace,
            message: "write/read on var 3".into(),
            sites: vec![AccessSite { tid: 1, var: Some(3), line: Some(0), time: 42, seq: 7 }],
        };
        let s = f.to_string();
        assert!(s.contains("data-race"));
        assert!(s.contains("t1@42#7"));
        assert!(s.contains("var 3"));
    }
}
