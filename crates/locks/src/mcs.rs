//! The MCS queue lock (Mellor-Crummey & Scott), the paper's representative
//! fair lock.
//!
//! MCS is HLE-compatible as-is: a thread running alone (the illusion HLE
//! provides) releases by CAS-ing the tail back to nil, restoring the
//! lock's original state. Its fairness is exactly what makes the lemming
//! effect catastrophic (paper §4): after one abort the queue "remembers"
//! the conflict and every queued or arriving thread runs
//! non-speculatively until the queue drains.

use crate::{FallbackOutcome, RawLock, TXN_SPIN_BUDGET};
use elision_htm::{codes, HwSubscription, MemoryBuilder, Strand, TxResult, VarId};

const NIL: u64 = u64::MAX;
const WAIT: u64 = 1;
const GO: u64 = 0;

/// An MCS queue lock with one pre-allocated queue node per simulated
/// thread.
#[derive(Debug)]
pub struct McsLock {
    tail: VarId,
    /// Per-thread node: spin flag.
    locked: Vec<VarId>,
    /// Per-thread node: successor link (a thread index or `NIL`).
    next: Vec<VarId>,
}

impl McsLock {
    /// Allocate an MCS lock for `threads` simulated threads; every node
    /// field gets its own cache line (threads spin on local nodes).
    pub fn new(b: &mut MemoryBuilder, threads: usize) -> Self {
        McsLock {
            tail: b.alloc_lock_word(NIL),
            locked: (0..threads).map(|_| b.alloc_lock_word(GO)).collect(),
            next: (0..threads).map(|_| b.alloc_lock_word(NIL)).collect(),
        }
    }

    /// The tail word (for tests and instrumentation).
    pub fn tail(&self) -> VarId {
        self.tail
    }
}

impl RawLock for McsLock {
    fn acquire(&self, s: &mut Strand) -> TxResult<()> {
        let me = s.tid();
        s.store(self.next[me], NIL)?;
        s.store(self.locked[me], WAIT)?;
        let pred = s.swap(self.tail, me as u64)?;
        if pred != NIL {
            let pred = pred as usize;
            s.store(self.next[pred], me as u64)?;
            s.spin_until(self.locked[me], TXN_SPIN_BUDGET, |v| v == GO)?;
        }
        s.note_lock_acquire(self.tail);
        Ok(())
    }

    fn release(&self, s: &mut Strand) -> TxResult<()> {
        let me = s.tid();
        let mut succ = s.load(self.next[me])?;
        if succ == NIL {
            if s.cas(self.tail, me as u64, NIL)? == me as u64 {
                s.note_lock_release(self.tail);
                return Ok(());
            }
            // A successor is mid-enqueue; wait for the link.
            s.spin_until(self.next[me], TXN_SPIN_BUDGET, |v| v != NIL)?;
            succ = s.load(self.next[me])?;
        }
        // The handoff store is the release's linearization point: record
        // the release first so the successor's acquire never precedes it
        // in the sanitizer log.
        s.note_lock_release(self.tail);
        s.store(self.locked[succ as usize], GO)?;
        Ok(())
    }

    fn is_locked(&self, s: &mut Strand) -> TxResult<bool> {
        Ok(s.load(self.tail)? != NIL)
    }

    fn elided_acquire(&self, s: &mut Strand) -> TxResult<()> {
        let me = s.tid();
        s.store(self.next[me], NIL)?;
        s.store(self.locked[me], WAIT)?;
        let pred = s.elide_rmw(self.tail, |_| me as u64)?;
        if pred != NIL {
            // The queue is non-empty: on hardware the thread would link
            // behind its predecessor and spin inside the transaction until
            // doomed; speculation cannot succeed, so abort now.
            return Err(s.xabort(codes::QUEUE_BUSY, true));
        }
        Ok(())
    }

    fn elided_release(&self, s: &mut Strand) -> TxResult<()> {
        let me = s.tid();
        // Solo-run release: CAS the tail back to nil. Under the elision
        // illusion (tail == me) this always succeeds, restoring the tail
        // to the value observed at XACQUIRE time — which is exactly what
        // the HLE restore check requires.
        let old = s.cas(self.tail, me as u64, NIL)?;
        debug_assert_eq!(old, me as u64, "elided release with foreign tail");
        Ok(())
    }

    fn fallback_acquire(&self, s: &mut Strand) -> TxResult<FallbackOutcome> {
        // Re-executing the XACQUIRE swap really enqueues the node; the
        // thread then waits for its turn — the serialization the paper
        // calls the fair-lock lemming effect.
        self.acquire(s)?;
        Ok(FallbackOutcome::Acquired)
    }

    fn wait_until_free(&self, s: &mut Strand) -> TxResult<()> {
        s.spin_until(self.tail, TXN_SPIN_BUDGET, |v| v == NIL)
    }

    fn lock_word(&self) -> VarId {
        self.tail
    }

    fn hw_subscription(&self) -> HwSubscription {
        HwSubscription::ValueIs { word: self.tail, free: NIL }
    }

    fn name(&self) -> &'static str {
        "MCS"
    }

    fn is_fair(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;
    use elision_htm::{harness, HtmConfig, MemoryBuilder};
    use elision_sim::AbortCause;
    use std::sync::Arc;

    #[test]
    fn provides_mutual_exclusion() {
        let (count, _) = testutil::mutex_stress::<McsLock, _>(4, 200, 0, McsLock::new);
        assert_eq!(count, 800);
    }

    #[test]
    fn provides_mutual_exclusion_with_lag_window() {
        let (count, _) = testutil::mutex_stress::<McsLock, _>(8, 100, 32, McsLock::new);
        assert_eq!(count, 800);
    }

    #[test]
    fn solo_elision_commits_and_restores_tail() {
        assert!(testutil::solo_elided_roundtrip(McsLock::new));
    }

    #[test]
    fn elided_acquire_aborts_on_nonempty_queue() {
        let mut b = MemoryBuilder::new();
        let lock = Arc::new(McsLock::new(&mut b, 2));
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
        let st = results[1].expect("thread 1 status");
        assert!(
            st.is_explicit(codes::QUEUE_BUSY)
                || matches!(st.cause, AbortCause::DataConflict | AbortCause::LockWordConflict)
        );
    }

    #[test]
    fn fifo_handoff_wakes_successor() {
        // Thread 0 takes the lock; thread 1 enqueues behind it; when 0
        // releases, 1 proceeds. The mutex test already exercises this, but
        // here we check the queue actually formed (the CAS fast path
        // failed).
        let mut b = MemoryBuilder::new();
        let order = b.alloc_isolated(0);
        let lock = Arc::new(McsLock::new(&mut b, 2));
        let mem = b.freeze(2);
        let (_, mem, _) = harness::run(2, 0, HtmConfig::deterministic(), 1, mem, move |s| {
            if s.tid() == 0 {
                lock.acquire(s).unwrap();
                s.work(3000).unwrap();
                // Thread 1 must be queued by now.
                assert!(lock.is_locked(s).unwrap());
                let v = s.load(order).unwrap();
                s.store(order, v * 10 + 1).unwrap();
                lock.release(s).unwrap();
            } else {
                s.work(100).unwrap();
                lock.acquire(s).unwrap();
                let v = s.load(order).unwrap();
                s.store(order, v * 10 + 2).unwrap();
                lock.release(s).unwrap();
            }
        });
        assert_eq!(mem.read_direct(order), 12, "FIFO order violated");
        assert_eq!(mem.read_direct(lock_tail_for_test(&mem)), NIL);
    }

    // Helper: the tail is the first isolated var allocated after `order`,
    // but we captured the lock inside the closure; easiest is to re-derive
    // from memory layout. To keep the test robust we instead re-check
    // through a fresh is_locked call — but that needs a Strand. Simplest:
    // scan is unnecessary; expose via constant below.
    fn lock_tail_for_test(_mem: &elision_htm::Memory) -> elision_htm::VarId {
        // order occupies line 0 (words 0..8); tail is the next isolated
        // word (index 8) given the default 8-word lines.
        elision_htm::VarId::from_index(8)
    }

    #[test]
    fn metadata() {
        let mut b = MemoryBuilder::new();
        let lock = McsLock::new(&mut b, 2);
        assert_eq!(lock.name(), "MCS");
        assert!(lock.is_fair());
    }
}
