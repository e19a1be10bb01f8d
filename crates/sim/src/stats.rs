//! Execution counters matching the paper's Section 4 definitions.
//!
//! For each run the paper measures, per completed operation:
//!
//! * `S` — operations that completed via a *successful speculative*
//!   (transactional) execution,
//! * `A` — *aborted* speculative attempts,
//! * `N` — operations that completed via a *non-speculative* execution
//!   (holding the real lock),
//!
//! from which it derives the fraction of non-speculative completions
//! `N / (N + S)` and the average number of critical-section attempts per
//! operation `(A + N + S) / (N + S)`. It also counts arrivals that found
//! the lock held (the "TTAS Arrival with Lock Held" line in Figure 2).

/// Why a speculative attempt aborted: the one classification of each
/// abort, carried by the HTM's abort status, tallied into
/// [`OpCounters::causes`] and logged by the sanitizer.
///
/// The taxonomy separates the conflict class the paper's analysis hinges
/// on: a *lock-word* conflict (the lemming-effect trigger — some thread
/// wrote the lock's cache line, dooming every eliding transaction at
/// once) versus an ordinary *data* conflict on the protected structure.
/// The HTM layer performs the classification where it builds the abort
/// status, since only it knows which cache lines hold lock words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbortCause {
    /// A conflicting access on a data (non-lock) cache line.
    DataConflict,
    /// A conflicting access on a cache line holding a lock word — the
    /// signature of the lemming effect.
    LockWordConflict,
    /// Read- or write-set capacity overflow.
    Capacity,
    /// The transaction aborted itself (`XABORT`), e.g. on observing the
    /// lock busy under SLR's commit-time subscription.
    Explicit,
    /// An injected abort: the seeded spurious-abort model or a chaos
    /// fault (abort storm).
    FaultInjected,
    /// An HLE commit failed because the elided lock word was not restored
    /// to its original value.
    HleRestore,
    /// The hardware dangerous-instruction screen (arXiv 1407.6968) caught
    /// a lazily subscribed transaction writing a lock-marked line — a
    /// zombie's wild store, aborted at the offending access.
    DangerousInstruction,
}

impl AbortCause {
    /// Every cause, in the fixed order used by [`CauseHistogram`] and the
    /// JSON/CSV emitters.
    pub const ALL: [AbortCause; 7] = [
        AbortCause::DataConflict,
        AbortCause::LockWordConflict,
        AbortCause::Capacity,
        AbortCause::Explicit,
        AbortCause::FaultInjected,
        AbortCause::HleRestore,
        AbortCause::DangerousInstruction,
    ];

    /// A stable snake_case label (JSON keys, CSV headers).
    pub fn label(&self) -> &'static str {
        match self {
            AbortCause::DataConflict => "data_conflict",
            AbortCause::LockWordConflict => "lock_word_conflict",
            AbortCause::Capacity => "capacity",
            AbortCause::Explicit => "explicit",
            AbortCause::FaultInjected => "fault_injected",
            AbortCause::HleRestore => "hle_restore",
            AbortCause::DangerousInstruction => "dangerous_instruction",
        }
    }

    fn index(self) -> usize {
        match self {
            AbortCause::DataConflict => 0,
            AbortCause::LockWordConflict => 1,
            AbortCause::Capacity => 2,
            AbortCause::Explicit => 3,
            AbortCause::FaultInjected => 4,
            AbortCause::HleRestore => 5,
            AbortCause::DangerousInstruction => 6,
        }
    }
}

/// A fixed-size histogram over [`AbortCause`].
///
/// The telemetry invariant — checked by the `diag_aborts` binary and the
/// chaos property tests — is that [`CauseHistogram::total`] equals the
/// aborted-attempt count `A` of the owning [`OpCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CauseHistogram {
    counts: [u64; 7],
}

impl CauseHistogram {
    /// An all-zero histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one abort of the given cause.
    pub fn record(&mut self, cause: AbortCause) {
        self.counts[cause.index()] += 1;
    }

    /// The count recorded for `cause`.
    pub fn get(&self, cause: AbortCause) -> u64 {
        self.counts[cause.index()]
    }

    /// Total aborts across all causes.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Add another histogram into this one.
    pub fn merge(&mut self, other: &CauseHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// `(cause, count)` pairs in the fixed [`AbortCause::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (AbortCause, u64)> + '_ {
        AbortCause::ALL.iter().map(move |&c| (c, self.get(c)))
    }
}

/// How a single critical-section attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttemptKind {
    /// The attempt committed speculatively (counts toward `S`).
    Speculative,
    /// The attempt aborted (counts toward `A`).
    Aborted,
    /// The operation completed under the real lock (counts toward `N`).
    NonSpeculative,
}

/// Per-thread operation counters (the paper's `S`, `A`, `N`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounters {
    /// Successful speculative completions (`S`).
    pub speculative: u64,
    /// Aborted speculative attempts (`A`).
    pub aborted: u64,
    /// Non-speculative completions (`N`).
    pub nonspeculative: u64,
    /// Arrivals that observed the lock held before attempting elision.
    pub arrived_lock_held: u64,
    /// Abort-cause breakdown of the `aborted` attempts, recorded by the
    /// HTM layer as each abort unwinds. Invariant: `causes.total()`
    /// equals `aborted` whenever every transaction of the strand runs
    /// under an elision scheme.
    pub causes: CauseHistogram,
}

impl OpCounters {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one attempt outcome.
    pub fn record(&mut self, kind: AttemptKind) {
        match kind {
            AttemptKind::Speculative => self.speculative += 1,
            AttemptKind::Aborted => self.aborted += 1,
            AttemptKind::NonSpeculative => self.nonspeculative += 1,
        }
    }

    /// Total completed operations (`S + N`).
    pub fn completed(&self) -> u64 {
        self.speculative + self.nonspeculative
    }

    /// Total critical-section attempts (`A + N + S`).
    pub fn total_attempts(&self) -> u64 {
        self.aborted + self.completed()
    }

    /// The fraction of operations completing non-speculatively,
    /// `N / (N + S)`; `0.0` when nothing completed.
    pub fn frac_nonspeculative(&self) -> f64 {
        let c = self.completed();
        if c == 0 {
            0.0
        } else {
            self.nonspeculative as f64 / c as f64
        }
    }

    /// Average execution attempts per completed operation,
    /// `(A + N + S) / (N + S)`; `0.0` when nothing completed.
    pub fn attempts_per_op(&self) -> f64 {
        let c = self.completed();
        if c == 0 {
            0.0
        } else {
            (self.aborted + c) as f64 / c as f64
        }
    }

    /// Fraction of arrivals that found the lock already held, relative to
    /// completed operations.
    pub fn frac_arrived_lock_held(&self) -> f64 {
        let c = self.completed();
        if c == 0 {
            0.0
        } else {
            self.arrived_lock_held as f64 / c as f64
        }
    }

    /// Merge another counter set into this one (summing fields).
    pub fn merge(&mut self, other: &OpCounters) {
        self.speculative += other.speculative;
        self.aborted += other.aborted;
        self.nonspeculative += other.nonspeculative;
        self.arrived_lock_held += other.arrived_lock_held;
        self.causes.merge(&other.causes);
    }

    /// Sum an iterator of counters.
    pub fn sum<'a>(iter: impl IntoIterator<Item = &'a OpCounters>) -> OpCounters {
        let mut acc = OpCounters::new();
        for c in iter {
            acc.merge(c);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics_match_paper_formulas() {
        let mut c = OpCounters::new();
        for _ in 0..70 {
            c.record(AttemptKind::Speculative);
        }
        for _ in 0..30 {
            c.record(AttemptKind::NonSpeculative);
        }
        for _ in 0..50 {
            c.record(AttemptKind::Aborted);
        }
        assert_eq!(c.completed(), 100);
        assert!((c.frac_nonspeculative() - 0.3).abs() < 1e-12);
        assert!((c.attempts_per_op() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn empty_counters_do_not_divide_by_zero() {
        let c = OpCounters::new();
        assert_eq!(c.frac_nonspeculative(), 0.0);
        assert_eq!(c.attempts_per_op(), 0.0);
        assert_eq!(c.frac_arrived_lock_held(), 0.0);
    }

    #[test]
    fn merge_and_sum() {
        let mut a = OpCounters {
            speculative: 1,
            aborted: 2,
            nonspeculative: 3,
            arrived_lock_held: 4,
            ..OpCounters::new()
        };
        a.causes.record(AbortCause::DataConflict);
        a.causes.record(AbortCause::LockWordConflict);
        let b = a;
        a.merge(&b);
        assert_eq!(a.speculative, 2);
        assert_eq!(a.arrived_lock_held, 8);
        assert_eq!(a.causes.total(), 4);
        assert_eq!(a.causes.get(AbortCause::LockWordConflict), 2);
        let total = OpCounters::sum([&a, &b]);
        assert_eq!(total.nonspeculative, 9);
        assert_eq!(total.causes.total(), 6);
        assert_eq!(total.total_attempts(), 18);
    }

    #[test]
    fn cause_histogram_tallies_and_iterates() {
        let mut h = CauseHistogram::new();
        h.record(AbortCause::Capacity);
        h.record(AbortCause::Capacity);
        h.record(AbortCause::FaultInjected);
        assert_eq!(h.total(), 3);
        assert_eq!(h.get(AbortCause::Capacity), 2);
        assert_eq!(h.get(AbortCause::Explicit), 0);
        let pairs: Vec<_> = h.iter().collect();
        assert_eq!(pairs.len(), 7);
        assert_eq!(pairs[2], (AbortCause::Capacity, 2));
        // Labels are stable snake_case identifiers (JSON keys).
        for (cause, _) in h.iter() {
            assert!(cause.label().chars().all(|c| c.is_ascii_lowercase() || c == '_'));
        }
    }
}
