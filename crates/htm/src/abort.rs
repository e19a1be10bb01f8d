//! Abort signalling: the in-band marker that unwinds a speculative
//! critical section, and the abort-status register the fallback path
//! inspects (mirroring Haswell's `EAX` abort status).

use elision_sim::AbortCause;

/// Zero-sized marker propagated through a speculative critical section via
/// `Result`/`?` when the enclosing transaction has aborted.
///
/// By the time an operation returns `Err(Abort)`, the transaction has
/// already been unwound (read/write sets cleared, abort penalty charged);
/// the body must simply propagate the error outward to the scheme's
/// fallback logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Abort;

/// Result of a single simulated memory operation.
pub type TxResult<T> = Result<T, Abort>;

/// The simulated abort-status register, handed to fallback code.
///
/// Each abort has one record: this status, built by the [`crate::Strand`]
/// at the point where the transaction is doomed, classified there into
/// its [`AbortCause`], and tallied and logged once when it unwinds.
///
/// Beyond Haswell's actual status bits, the simulator also reports *where*
/// a conflict occurred ([`AbortStatus::conflict_line`]) — the abort
/// information the paper's conclusion names as a promising direction for
/// refined conflict management, exploited by the grouped-SCM extension —
/// and splits conflicts by whether that line holds a lock word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbortStatus {
    /// Why the transaction aborted.
    pub cause: AbortCause,
    /// The `XABORT` code, when [`AbortCause::Explicit`].
    pub explicit_code: Option<u8>,
    /// Haswell's "retry" hint: set when the abort cause is transient
    /// (conflicts, spurious aborts) and clear when retrying is unlikely to
    /// help (capacity, restore violations). Explicit aborts carry the hint
    /// the aborting code chose.
    pub retry_recommended: bool,
    /// The cache line on which the dooming conflict occurred, when known
    /// (conflict aborts only; best-effort under races).
    pub conflict_line: Option<u32>,
}

impl AbortStatus {
    fn new(cause: AbortCause, retry_recommended: bool) -> Self {
        AbortStatus { cause, explicit_code: None, retry_recommended, conflict_line: None }
    }

    /// Status for a data-conflict abort on an unknown line.
    pub fn conflict() -> Self {
        Self::new(AbortCause::DataConflict, true)
    }

    /// Status for a conflict abort at `line`: a
    /// [`AbortCause::LockWordConflict`] when the line holds a lock word,
    /// a [`AbortCause::DataConflict`] otherwise.
    pub fn conflict_at(line: u32, lock_line: bool) -> Self {
        let cause = if lock_line { AbortCause::LockWordConflict } else { AbortCause::DataConflict };
        AbortStatus { conflict_line: Some(line), ..Self::new(cause, true) }
    }

    /// Status for a capacity abort.
    pub fn capacity() -> Self {
        Self::new(AbortCause::Capacity, false)
    }

    /// Status for an injected abort (the spurious-abort model or a chaos
    /// abort storm).
    pub fn spurious() -> Self {
        Self::new(AbortCause::FaultInjected, true)
    }

    /// Status for an HLE restore-check failure.
    pub fn hle_restore() -> Self {
        Self::new(AbortCause::HleRestore, false)
    }

    /// Status for a hardware dangerous-instruction abort at the offending
    /// line. Retry is recommended: the wild access came from a transient
    /// inconsistent snapshot, and a re-execution usually reads consistent
    /// state (or falls back to the lock).
    pub fn dangerous(line: u32) -> Self {
        AbortStatus {
            conflict_line: Some(line),
            ..Self::new(AbortCause::DangerousInstruction, true)
        }
    }

    /// Status for an explicit `XABORT` with `code`; `retry` is the hint the
    /// aborting code wants the fallback to see.
    pub fn explicit(code: u8, retry: bool) -> Self {
        AbortStatus { explicit_code: Some(code), ..Self::new(AbortCause::Explicit, retry) }
    }

    /// Whether this is an explicit abort carrying `code`.
    pub fn is_explicit(&self, code: u8) -> bool {
        self.cause == AbortCause::Explicit && self.explicit_code == Some(code)
    }
}

/// Well-known `XABORT` codes used by the elision schemes.
pub mod codes {
    /// The lock was observed held (SLR commit-time check, SCM begin-time
    /// subscription, or an elided acquire finding the lock busy).
    pub const LOCK_BUSY: u8 = 0xA0;
    /// A queue-lock elision attempt observed a predecessor in the queue.
    pub const QUEUE_BUSY: u8 = 0xA1;
    /// A bounded speculative spin expired (models timer-induced aborts of
    /// transactions stuck waiting in-flight).
    pub const SPIN_EXPIRED: u8 = 0xA2;
    /// The hardware commit-time subscription found the lock held: the
    /// commit-stage check of arXiv 1407.6968 fired, atomically with the
    /// (refused) publication. Explicit-class so fallback code can treat it
    /// exactly like a software `LOCK_BUSY`, but distinguishable in traces.
    pub const SUBSCRIPTION: u8 = 0xA3;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_hints_match_causes() {
        assert!(AbortStatus::conflict().retry_recommended);
        assert!(AbortStatus::spurious().retry_recommended);
        assert!(!AbortStatus::capacity().retry_recommended);
        assert!(!AbortStatus::hle_restore().retry_recommended);
    }

    #[test]
    fn explicit_codes_roundtrip() {
        let st = AbortStatus::explicit(codes::LOCK_BUSY, false);
        assert!(st.is_explicit(codes::LOCK_BUSY));
        assert!(!st.is_explicit(codes::QUEUE_BUSY));
        assert!(!st.retry_recommended);
    }

    #[test]
    fn dangerous_status_carries_line_and_retry_hint() {
        let st = AbortStatus::dangerous(17);
        assert_eq!(st.cause, AbortCause::DangerousInstruction);
        assert_eq!(st.conflict_line, Some(17));
        assert!(st.retry_recommended);
    }
}
