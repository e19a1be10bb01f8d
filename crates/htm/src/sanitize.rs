//! Sanitizer instrumentation: a global, totally ordered log of every
//! simulated memory access and transaction lifecycle event.
//!
//! When a [`crate::Memory`] is built with
//! [`crate::MemoryBuilder::enable_sanitizer`], every `Strand` access —
//! speculative loads, commit-time publications, non-transactional
//! reads/writes/RMWs — appends a [`SanEvent`] to the memory's [`SanLog`].
//! The `elision-analysis` crate post-processes this log into
//! happens-before race detection, opacity/sandboxing checks and the
//! lock-discipline lints: it is the run's one event stream.
//!
//! Soundness of the log's *order* rests on one fact: the simulator runs
//! exactly one simulated thread at a time, at every scheduling window, so
//! everything a thread executes between two `SimHandle::advance` calls
//! (a whole commit publication, or a non-transactional write or RMW) is
//! atomic with respect to the simulated interleaving. The log's append
//! order is therefore the execution order, and an event's index in the
//! log is its global sequence number.
//!
//! Recording an event never advances a logical clock and never draws
//! from an RNG stream, so enabling the sanitizer cannot perturb the
//! schedule: a sanitized run executes the exact interleaving of the
//! corresponding unsanitized run.

use crate::memory::VarId;
use elision_sim::AbortCause;
use parking_lot::Mutex;

/// What happened, from the sanitizer's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SanAccess {
    /// A value was read from simulated memory. `txn` distinguishes a
    /// speculative (transactional) read from a plain one. Speculative
    /// reads served from the write buffer are *not* logged (they observe
    /// the transaction's own tentative state, which is private).
    Read {
        /// The word read.
        var: VarId,
        /// The value observed.
        value: u64,
        /// Whether the read happened inside a live transaction.
        txn: bool,
    },
    /// A value became globally visible in simulated memory. For
    /// transactions this happens at commit-time publication (one event
    /// per buffered write, immediately before [`SanAccess::TxnCommit`]);
    /// speculative buffering itself is invisible to peers and not logged.
    Write {
        /// The word written.
        var: VarId,
        /// The value published.
        value: u64,
        /// Whether the write is a transactional commit publication.
        txn: bool,
    },
    /// A transaction began (`XBEGIN`).
    TxnBegin,
    /// A transaction committed (`XEND`); its publications directly
    /// precede this event in the log.
    TxnCommit,
    /// A transaction aborted, with the telemetry-taxonomy cause.
    TxnAbort {
        /// Why the transaction aborted.
        cause: AbortCause,
    },
    /// A lock was acquired non-speculatively (reported by the lock
    /// implementation via [`crate::Strand::note_lock_acquire`]).
    LockAcquire {
        /// The lock's primary word (its identity).
        word: VarId,
    },
    /// A lock was released non-speculatively.
    LockRelease {
        /// The lock's primary word.
        word: VarId,
    },
    /// A protocol marker (e.g. the elision schemes' `subscribe` marker
    /// recorded when a transaction subscribes to the main lock).
    Marker {
        /// Marker label.
        label: &'static str,
        /// Marker value (typically a lock word index).
        value: u64,
    },
}

/// One sanitizer log entry. The entry's position in the log is its
/// global sequence number (see the module docs for why that is sound).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SanEvent {
    /// The simulated thread that performed the access.
    pub tid: usize,
    /// The thread's logical clock when the access was recorded.
    pub time: u64,
    /// The access itself.
    pub access: SanAccess,
}

/// The shared sanitizer event log, plus the initial memory snapshot the
/// opacity checker replays state from.
#[derive(Debug)]
pub struct SanLog {
    events: Mutex<Vec<SanEvent>>,
    initial: Vec<u64>,
}

impl SanLog {
    pub(crate) fn new(initial: Vec<u64>) -> Self {
        SanLog { events: Mutex::new(Vec::new()), initial }
    }

    pub(crate) fn push(&self, tid: usize, time: u64, access: SanAccess) {
        self.events.lock().push(SanEvent { tid, time, access });
    }

    /// A copy of the log, in global execution order.
    pub fn snapshot(&self) -> Vec<SanEvent> {
        self.events.lock().clone()
    }

    /// Call `f` on the log, in global execution order, under the log's
    /// lock: a finished run's log is read without copying it.
    pub fn with_events<R>(&self, f: impl FnOnce(&[SanEvent]) -> R) -> R {
        f(&self.events.lock())
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }

    /// The word values at freeze time, indexed by raw [`VarId`] index.
    /// Together with the logged [`SanAccess::Write`] events this fully
    /// determines the globally visible memory state at any log position.
    pub fn initial_values(&self) -> &[u64] {
        &self.initial
    }
}
