//! The CLH queue lock (paper Figure 14) and its HLE-compatible adaptation
//! (Figure 15).
//!
//! Like the ticket lock, the original CLH release (clear own node's flag,
//! recycle the predecessor's node) does not restore the lock word — the
//! tail still points at the releaser's node — so HLE cannot elide it. The
//! adaptation attempts `CAS(&tail, myNode, pred)` first, erasing the
//! node's presence in a solo or speculative run.

use crate::{FallbackOutcome, RawLock, TXN_SPIN_BUDGET};
use elision_htm::{codes, HwSubscription, MemoryBuilder, Strand, TxResult, VarId};
use std::sync::Arc;

const LOCKED: u64 = 1;
const UNLOCKED: u64 = 0;

/// A CLH queue lock; `adapted` selects the HLE-compatible release.
///
/// Nodes are identified by index: one per thread plus the initial
/// (unlocked) node that `tail` starts at.
#[derive(Debug)]
pub struct ClhLock {
    tail: VarId,
    /// `locked` flag of each node (indices `0..=threads`), shared with
    /// every [`HwSubscription`] the lock hands out.
    node_locked: Arc<[VarId]>,
    /// Per-thread: which node the thread currently owns.
    my_node: Vec<VarId>,
    /// Per-thread: predecessor node saved between acquire and release.
    pred: Vec<VarId>,
    adapted: bool,
}

impl ClhLock {
    /// Allocate the HLE-adapted CLH lock (Figure 15).
    pub fn new(b: &mut MemoryBuilder, threads: usize) -> Self {
        Self::with_adaptation(b, threads, true)
    }

    /// Allocate the original, HLE-incompatible CLH lock (Figure 14).
    pub fn new_unadapted(b: &mut MemoryBuilder, threads: usize) -> Self {
        Self::with_adaptation(b, threads, false)
    }

    fn with_adaptation(b: &mut MemoryBuilder, threads: usize, adapted: bool) -> Self {
        // Node `threads` is the initial tail node, unlocked.
        let node_locked: Arc<[VarId]> =
            (0..=threads).map(|_| b.alloc_lock_word(UNLOCKED)).collect();
        ClhLock {
            tail: b.alloc_lock_word(threads as u64),
            node_locked,
            my_node: (0..threads).map(|t| b.alloc_lock_word(t as u64)).collect(),
            pred: (0..threads).map(|_| b.alloc_lock_word(u64::MAX)).collect(),
            adapted,
        }
    }

    /// Whether this instance uses the HLE-compatible release.
    pub fn is_adapted(&self) -> bool {
        self.adapted
    }
}

impl RawLock for ClhLock {
    fn acquire(&self, s: &mut Strand) -> TxResult<()> {
        let me = s.tid();
        let my = s.load(self.my_node[me])? as usize;
        s.store(self.node_locked[my], LOCKED)?;
        let p = s.swap(self.tail, my as u64)? as usize;
        s.store(self.pred[me], p as u64)?;
        s.spin_until(self.node_locked[p], TXN_SPIN_BUDGET, |v| v == UNLOCKED)?;
        s.note_lock_acquire(self.tail);
        Ok(())
    }

    fn release(&self, s: &mut Strand) -> TxResult<()> {
        let me = s.tid();
        let my = s.load(self.my_node[me])?;
        let p = s.load(self.pred[me])?;
        if self.adapted {
            // Optimistically erase our node from the queue (solo run).
            if s.cas(self.tail, my, p)? == my {
                s.note_lock_release(self.tail);
                return Ok(());
            }
        }
        // The node-unlock store is the release's linearization point:
        // record the release first so the successor's acquire never
        // precedes it in the sanitizer log.
        s.note_lock_release(self.tail);
        s.store(self.node_locked[my as usize], UNLOCKED)?;
        // Recycle the predecessor's node (standard CLH).
        s.store(self.my_node[me], p)?;
        Ok(())
    }

    fn is_locked(&self, s: &mut Strand) -> TxResult<bool> {
        let t = s.load(self.tail)? as usize;
        Ok(s.load(self.node_locked[t])? == LOCKED)
    }

    fn elided_acquire(&self, s: &mut Strand) -> TxResult<()> {
        let me = s.tid();
        let my = s.load(self.my_node[me])? as usize;
        s.store(self.node_locked[my], LOCKED)?;
        let p = s.elide_rmw(self.tail, |_| my as u64)? as usize;
        s.store(self.pred[me], p as u64)?;
        if s.load(self.node_locked[p])? == LOCKED {
            return Err(s.xabort(codes::QUEUE_BUSY, true));
        }
        Ok(())
    }

    fn elided_release(&self, s: &mut Strand) -> TxResult<()> {
        let me = s.tid();
        let my = s.load(self.my_node[me])?;
        let p = s.load(self.pred[me])?;
        if self.adapted {
            // Under the illusion tail == my; restoring it to the observed
            // predecessor satisfies the HLE restore check.
            let old = s.cas(self.tail, my, p)?;
            debug_assert_eq!(old, my, "elided CLH release out of sync");
            Ok(())
        } else {
            // Original release: the tail stays pointing at our node, so
            // the restore check will fail at commit.
            s.store(self.node_locked[my as usize], UNLOCKED)?;
            s.store(self.my_node[me], p)
        }
    }

    fn fallback_acquire(&self, s: &mut Strand) -> TxResult<FallbackOutcome> {
        self.acquire(s)?;
        Ok(FallbackOutcome::Acquired)
    }

    fn wait_until_free(&self, s: &mut Strand) -> TxResult<()> {
        loop {
            let t = s.load(self.tail)? as usize;
            if s.load(self.node_locked[t])? == UNLOCKED {
                return Ok(());
            }
            s.spin()?;
        }
    }

    fn lock_word(&self) -> VarId {
        self.tail
    }

    fn hw_subscription(&self) -> HwSubscription {
        // Free ⇔ the node the tail points at is unlocked.
        HwSubscription::IndirectValueIs {
            ptr: self.tail,
            table: Arc::clone(&self.node_locked),
            free: UNLOCKED,
        }
    }

    fn name(&self) -> &'static str {
        if self.adapted {
            "CLH"
        } else {
            "CLH-unadapted"
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
    use elision_htm::{harness, HtmConfig, MemoryBuilder};
    use elision_sim::AbortCause;
    use std::sync::Arc;

    #[test]
    fn provides_mutual_exclusion() {
        let (count, _) = testutil::mutex_stress::<ClhLock, _>(4, 200, 0, ClhLock::new);
        assert_eq!(count, 800);
    }

    #[test]
    fn provides_mutual_exclusion_with_lag_window() {
        let (count, _) = testutil::mutex_stress::<ClhLock, _>(8, 100, 32, ClhLock::new);
        assert_eq!(count, 800);
    }

    #[test]
    fn unadapted_provides_mutual_exclusion_too() {
        let (count, _) = testutil::mutex_stress::<ClhLock, _>(4, 100, 0, ClhLock::new_unadapted);
        assert_eq!(count, 400);
    }

    #[test]
    fn adapted_solo_elision_commits() {
        assert!(testutil::solo_elided_roundtrip(ClhLock::new));
    }

    #[test]
    fn unadapted_elision_always_fails_restore_check() {
        let mut b = MemoryBuilder::new();
        let lock = Arc::new(ClhLock::new_unadapted(&mut b, 1));
        let mem = b.freeze(1);
        harness::run(1, 0, HtmConfig::deterministic(), 1, mem, move |s| {
            let r = s.attempt(|s| {
                lock.elided_acquire(s)?;
                lock.elided_release(s)?;
                Ok(())
            });
            assert_eq!(r.unwrap_err().cause, AbortCause::HleRestore);
        });
    }

    #[test]
    fn adapted_release_erases_traces_in_solo_run() {
        let mut b = MemoryBuilder::new();
        let lock = Arc::new(ClhLock::new(&mut b, 1));
        let tail = lock.tail;
        let mem = b.freeze(1);
        let (_, mem, _) = harness::run(1, 0, HtmConfig::deterministic(), 1, mem, move |s| {
            lock.acquire(s).unwrap();
            lock.release(s).unwrap();
            assert!(!lock.is_locked(s).unwrap());
        });
        // Tail restored to the initial node (index 1 for a 1-thread lock).
        assert_eq!(mem.read_direct(tail), 1);
    }

    #[test]
    fn lock_state_visible_while_held() {
        let mut b = MemoryBuilder::new();
        let lock = Arc::new(ClhLock::new(&mut b, 1));
        let mem = b.freeze(1);
        harness::run(1, 0, HtmConfig::deterministic(), 1, mem, move |s| {
            assert!(!lock.is_locked(s).unwrap());
            lock.acquire(s).unwrap();
            assert!(lock.is_locked(s).unwrap());
            lock.release(s).unwrap();
            assert!(!lock.is_locked(s).unwrap());
        });
    }

    #[test]
    fn metadata() {
        let mut b = MemoryBuilder::new();
        assert_eq!(ClhLock::new(&mut b, 1).name(), "CLH");
        assert_eq!(ClhLock::new_unadapted(&mut b, 1).name(), "CLH-unadapted");
        assert!(ClhLock::new(&mut b, 1).is_fair());
    }
}
