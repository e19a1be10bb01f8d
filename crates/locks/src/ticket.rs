//! The ticket lock (paper Figure 12) and its HLE-compatible adaptation
//! (Figure 13).
//!
//! The original ticket lock releases by incrementing `owner`, which does
//! *not* restore the lock to its pre-acquire state (`next` was
//! incremented at acquire time) — so HLE's restore check fails and the
//! lock can never be elided. The paper's Appendix A adaptation makes the
//! release first attempt `CAS(&next, owner + 1, owner)`: in a solo (or
//! speculative) run this erases all traces of the acquisition, satisfying
//! HLE; with multiple requesters the CAS fails and the release falls back
//! to the standard `owner + 1` path.

use crate::{FallbackOutcome, RawLock, TXN_SPIN_BUDGET};
use elision_htm::{codes, HwSubscription, MemoryBuilder, Strand, TxResult, VarId};

/// A ticket lock; `adapted` selects the paper's HLE-compatible release.
#[derive(Debug)]
pub struct TicketLock {
    next: VarId,
    owner: VarId,
    /// Per-thread saved ticket value (needed at release time).
    cur: Vec<VarId>,
    adapted: bool,
}

impl TicketLock {
    /// Allocate the HLE-adapted ticket lock (Figure 13).
    pub fn new(b: &mut MemoryBuilder, threads: usize) -> Self {
        Self::with_adaptation(b, threads, true)
    }

    /// Allocate the original, HLE-*incompatible* ticket lock (Figure 12);
    /// elided critical sections will always fail the restore check. Used
    /// to demonstrate why the adaptation is necessary.
    pub fn new_unadapted(b: &mut MemoryBuilder, threads: usize) -> Self {
        Self::with_adaptation(b, threads, false)
    }

    fn with_adaptation(b: &mut MemoryBuilder, threads: usize, adapted: bool) -> Self {
        TicketLock {
            next: b.alloc_lock_word(0),
            owner: b.alloc_lock_word(0),
            cur: (0..threads).map(|_| b.alloc_lock_word(0)).collect(),
            adapted,
        }
    }

    /// Whether this instance uses the HLE-compatible release.
    pub fn is_adapted(&self) -> bool {
        self.adapted
    }
}

impl RawLock for TicketLock {
    fn acquire(&self, s: &mut Strand) -> TxResult<()> {
        let me = s.tid();
        let my = s.fetch_add(self.next, 1)?;
        s.store(self.cur[me], my)?;
        s.spin_until(self.owner, TXN_SPIN_BUDGET, move |v| v == my)?;
        s.note_lock_acquire(self.next);
        Ok(())
    }

    fn release(&self, s: &mut Strand) -> TxResult<()> {
        let me = s.tid();
        let my = s.load(self.cur[me])?;
        if self.adapted {
            // Optimistically erase the acquisition (solo run): restores
            // `next` to its pre-acquire value.
            if s.cas(self.next, my + 1, my)? == my + 1 {
                s.note_lock_release(self.next);
                return Ok(());
            }
        }
        // Standard release: pass ownership to the following ticket. The
        // owner store is the linearization point: record the release
        // first so the successor's acquire never precedes it in the
        // sanitizer log.
        s.note_lock_release(self.next);
        s.store(self.owner, my + 1)?;
        Ok(())
    }

    fn is_locked(&self, s: &mut Strand) -> TxResult<bool> {
        let n = s.load(self.next)?;
        let o = s.load(self.owner)?;
        Ok(n != o)
    }

    fn elided_acquire(&self, s: &mut Strand) -> TxResult<()> {
        let me = s.tid();
        let my = s.elide_rmw(self.next, |n| n + 1)?;
        let o = s.load(self.owner)?;
        if o != my {
            // Someone holds (or queues on) the lock; speculation would
            // spin forever on `owner`.
            return Err(s.xabort(codes::QUEUE_BUSY, true));
        }
        s.store(self.cur[me], my)
    }

    fn elided_release(&self, s: &mut Strand) -> TxResult<()> {
        let me = s.tid();
        let my = s.load(self.cur[me])?;
        if self.adapted {
            // Under the elision illusion next == my + 1, so this CAS
            // always succeeds speculatively, restoring next == my.
            let old = s.cas(self.next, my + 1, my)?;
            debug_assert_eq!(old, my + 1, "elided ticket release out of sync");
            Ok(())
        } else {
            // Original release: bump owner — the restore check will fail
            // at commit, demonstrating the incompatibility.
            s.store(self.owner, my + 1)
        }
    }

    fn fallback_acquire(&self, s: &mut Strand) -> TxResult<FallbackOutcome> {
        self.acquire(s)?;
        Ok(FallbackOutcome::Acquired)
    }

    fn wait_until_free(&self, s: &mut Strand) -> TxResult<()> {
        loop {
            let n = s.load(self.next)?;
            let o = s.load(self.owner)?;
            if n == o {
                return Ok(());
            }
            s.spin()?;
        }
    }

    fn lock_word(&self) -> VarId {
        self.next
    }

    fn hw_subscription(&self) -> Option<HwSubscription> {
        // Free ⇔ no outstanding tickets: next == owner.
        Some(HwSubscription::WordsEqual { a: self.next, b: self.owner })
    }

    fn name(&self) -> &'static str {
        if self.adapted {
            "Ticket"
        } else {
            "Ticket-unadapted"
        }
    }

    fn is_fair(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;
    use elision_htm::{harness, AbortReason, HtmConfig, MemoryBuilder};
    use std::sync::Arc;

    #[test]
    fn provides_mutual_exclusion() {
        let (count, _) = testutil::mutex_stress::<TicketLock, _>(4, 200, 0, TicketLock::new);
        assert_eq!(count, 800);
    }

    #[test]
    fn unadapted_provides_mutual_exclusion_too() {
        let (count, _) = testutil::mutex_stress::<TicketLock, _>(4, 100, 32, |b, t| {
            TicketLock::new_unadapted(b, t)
        });
        assert_eq!(count, 400);
    }

    #[test]
    fn adapted_solo_elision_commits() {
        assert!(testutil::solo_elided_roundtrip(TicketLock::new));
    }

    #[test]
    fn unadapted_elision_always_fails_restore_check() {
        let mut b = MemoryBuilder::new();
        let lock = Arc::new(TicketLock::new_unadapted(&mut b, 1));
        let mem = b.freeze(1);
        harness::run(1, 0, HtmConfig::deterministic(), 1, mem, move |s| {
            let r = s.attempt(|s| {
                lock.elided_acquire(s)?;
                lock.elided_release(s)?;
                Ok(())
            });
            assert_eq!(r.unwrap_err().reason, AbortReason::HleRestore);
        });
    }

    #[test]
    fn adapted_release_erases_traces_in_solo_run() {
        let mut b = MemoryBuilder::new();
        let lock = Arc::new(TicketLock::new(&mut b, 1));
        let next = lock.next;
        let owner = lock.owner;
        let mem = b.freeze(1);
        let (_, mem, _) = harness::run(1, 0, HtmConfig::deterministic(), 1, mem, move |s| {
            lock.acquire(s).unwrap();
            lock.release(s).unwrap();
        });
        // Solo non-speculative run: the CAS path restored next, so both
        // counters are still 0 (no trace of the acquisition).
        assert_eq!(mem.read_direct(next), 0);
        assert_eq!(mem.read_direct(owner), 0);
    }

    #[test]
    fn adapted_release_falls_back_with_contention() {
        let mut b = MemoryBuilder::new();
        let lock = Arc::new(TicketLock::new(&mut b, 2));
        let owner = lock.owner;
        let mem = b.freeze(2);
        let (_, mem, _) = harness::run(2, 0, HtmConfig::deterministic(), 1, mem, move |s| {
            if s.tid() == 0 {
                lock.acquire(s).unwrap();
                s.work(2000).unwrap(); // ensure thread 1 queues
                lock.release(s).unwrap();
            } else {
                s.work(100).unwrap();
                lock.acquire(s).unwrap();
                lock.release(s).unwrap();
            }
        });
        // Thread 0's release saw a second requester: it bumped owner.
        assert!(mem.read_direct(owner) >= 1);
    }

    #[test]
    fn elided_acquire_aborts_when_held() {
        let mut b = MemoryBuilder::new();
        let lock = Arc::new(TicketLock::new(&mut b, 2));
        let mem = b.freeze(2);
        let (results, ..) = harness::run(2, 0, HtmConfig::deterministic(), 1, mem, move |s| {
            if s.tid() == 0 {
                lock.acquire(s).unwrap();
                s.work(2000).unwrap();
                lock.release(s).unwrap();
                None
            } else {
                s.work(100).unwrap();
                s.begin();
                let r = lock.elided_acquire(s);
                assert!(r.is_err());
                Some(s.last_abort())
            }
        });
        let st = results[1].expect("status");
        assert!(st.is_explicit(codes::QUEUE_BUSY) || st.reason == AbortReason::Conflict);
    }

    #[test]
    fn metadata() {
        let mut b = MemoryBuilder::new();
        assert_eq!(TicketLock::new(&mut b, 1).name(), "Ticket");
        assert_eq!(TicketLock::new_unadapted(&mut b, 1).name(), "Ticket-unadapted");
        assert!(TicketLock::new(&mut b, 1).is_fair());
        assert!(TicketLock::new(&mut b, 1).is_adapted());
    }
}
