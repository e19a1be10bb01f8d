//! Opacity / sandboxing checker over the sanitizer log.
//!
//! Replays the log's globally-ordered event stream, maintaining the
//! committed value of every word, and tracks each live transaction's
//! read snapshot:
//!
//! * **Strict policy** (HLE, eager-subscription SCM): the moment any
//!   word a live transaction has read changes under it, the transaction
//!   is doomed — if it performs *another* read while its snapshot is
//!   stale, that is an [`LintId::OpacityInconsistentRead`] (the paper's
//!   opacity property: a speculative run never observes state no locked
//!   run could observe).
//! * **Sandboxed policy** (lazy-subscription SLR/SCM): zombies may keep
//!   reading inconsistent state, but must abort before commit. A commit
//!   with a stale snapshot is a [`LintId::ZombieCommit`] under *either*
//!   policy.
//! * A commit while a different thread holds the main lock
//!   non-speculatively is a [`LintId::CommitWhileLockHeld`] — the
//!   unsafe-lazy-subscription pitfall of paper §5.
//!
//! Staleness is value-based: if a word is overwritten and later restored
//! to the read value (A-B-A), the snapshot is considered consistent
//! again. This matches what the simulated conflict detection can
//! actually distinguish and avoids false positives on silent stores.

use crate::{AccessSite, Finding, LintId};
use elision_htm::{SanAccess, SanEvent};
use std::collections::HashMap;

/// Which consistency property a scheme promises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpacityPolicy {
    /// Reads must always be consistent (HLE and eager subscription:
    /// the lock word is in the read set from the start, so any
    /// conflicting write aborts the transaction before it can observe
    /// a torn snapshot).
    Strict,
    /// Zombie reads are tolerated (lazy subscription), but zombie
    /// commits are not.
    Sandboxed,
}

/// Configuration for [`check_opacity`].
#[derive(Debug, Clone)]
pub struct OpacityConfig {
    /// The consistency property to enforce.
    pub policy: OpacityPolicy,
    /// Raw index of the main lock's word, if commits should be checked
    /// against non-speculative holders.
    pub main_lock: Option<u32>,
}

#[derive(Debug, Default)]
struct LiveTxn {
    /// Word -> (value observed, site of the first read of that word).
    reads: HashMap<u32, (u64, AccessSite)>,
    /// Words whose observed value has since changed: word -> site of
    /// the conflicting write that made the snapshot stale.
    stale: HashMap<u32, AccessSite>,
}

/// Replay a sanitizer log and report opacity/sandboxing violations.
///
/// `initial` is the memory image at the start of the run
/// ([`elision_htm::SanLog::initial_values`]).
pub fn check_opacity(cfg: &OpacityConfig, initial: &[u64], events: &[SanEvent]) -> Vec<Finding> {
    let mut committed: Vec<u64> = initial.to_vec();
    let mut live: HashMap<usize, LiveTxn> = HashMap::new();
    let mut lock_holder: Option<usize> = None;
    let mut findings = Vec::new();

    for (seq, ev) in events.iter().enumerate() {
        let tid = ev.tid;
        let site = |var: Option<u32>| AccessSite { tid, var, line: None, time: ev.time, seq };
        match ev.access {
            SanAccess::TxnBegin => {
                live.insert(tid, LiveTxn::default());
            }
            SanAccess::TxnAbort { .. } => {
                live.remove(&tid);
            }
            SanAccess::TxnCommit => {
                if let Some(txn) = live.remove(&tid) {
                    if let Some((&var, &wsite)) = txn.stale.iter().min_by_key(|(v, _)| **v) {
                        let rsite = txn.reads.get(&var).map(|&(_, s)| s);
                        findings.push(Finding {
                            lint: LintId::ZombieCommit,
                            message: format!(
                                "t{tid} committed with a stale read of var {var} \
                                 ({} word(s) stale): zombie escaped the sandbox",
                                txn.stale.len()
                            ),
                            sites: rsite.into_iter().chain([wsite, site(None)]).collect(),
                        });
                    }
                    if let Some(holder) = lock_holder {
                        if holder != tid {
                            findings.push(Finding {
                                lint: LintId::CommitWhileLockHeld,
                                message: format!(
                                    "t{tid} committed while t{holder} held the main lock \
                                     non-speculatively"
                                ),
                                sites: vec![site(None)],
                            });
                        }
                    }
                }
            }
            SanAccess::Read { var, value, txn: true } => {
                let idx = var.index();
                if let Some(txn) = live.get_mut(&tid) {
                    if cfg.policy == OpacityPolicy::Strict {
                        if let Some((&sv, &wsite)) = txn.stale.iter().min_by_key(|(v, _)| **v) {
                            let rsite = txn.reads.get(&sv).map(|&(_, s)| s);
                            findings.push(Finding {
                                lint: LintId::OpacityInconsistentRead,
                                message: format!(
                                    "t{tid} read var {idx} after its earlier read of var {sv} \
                                     went stale: inconsistent snapshot observed"
                                ),
                                sites: rsite.into_iter().chain([wsite, site(Some(idx))]).collect(),
                            });
                        }
                    }
                    txn.reads.entry(idx).or_insert((value, site(Some(idx))));
                }
            }
            SanAccess::Write { var, value, .. } => {
                let idx = var.index();
                if committed.len() <= idx as usize {
                    committed.resize(idx as usize + 1, 0);
                }
                committed[idx as usize] = value;
                let txn_write = matches!(ev.access, SanAccess::Write { txn: true, .. });
                // Transactional writes reach the log only when published
                // at commit, and every legitimate scheme path either
                // elides its lock-word stores (dropped pre-publish) or
                // issues them non-transactionally. A published
                // transactional store to the main lock word is therefore
                // a zombie's wild store escaping to memory — the
                // "dangerous instruction" of arXiv 1407.6968, caught
                // dynamically.
                if txn_write && Some(idx) == cfg.main_lock {
                    findings.push(Finding {
                        lint: LintId::LazyDangerousInstruction,
                        message: format!(
                            "t{tid} published a transactional store of {value} to the \
                             main lock word (var {idx}): a lazily subscribed zombie \
                             executed a dangerous instruction"
                        ),
                        sites: vec![site(Some(idx))],
                    });
                }
                for (&t, txn) in live.iter_mut() {
                    // A transaction's own publishes cannot stale its
                    // own snapshot.
                    if txn_write && t == tid {
                        continue;
                    }
                    if let Some(&(seen, _)) = txn.reads.get(&idx) {
                        if seen != value {
                            txn.stale.entry(idx).or_insert(site(Some(idx)));
                        } else {
                            txn.stale.remove(&idx); // A-B-A: consistent again
                        }
                    }
                }
            }
            SanAccess::LockAcquire { word } => {
                if Some(word.index()) == cfg.main_lock {
                    lock_holder = Some(tid);
                }
            }
            SanAccess::LockRelease { word } => {
                if Some(word.index()) == cfg.main_lock && lock_holder == Some(tid) {
                    lock_holder = None;
                }
            }
            SanAccess::Read { txn: false, .. } | SanAccess::Subscribe { .. } => {}
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use elision_htm::VarId;
    use elision_sim::AbortCause;

    const L: u32 = 0;
    const X: u32 = 8;
    const Y: u32 = 9;

    fn strict() -> OpacityConfig {
        OpacityConfig { policy: OpacityPolicy::Strict, main_lock: Some(L) }
    }

    fn sandboxed() -> OpacityConfig {
        OpacityConfig { policy: OpacityPolicy::Sandboxed, main_lock: Some(L) }
    }

    fn ev(tid: usize, time: u64, access: SanAccess) -> SanEvent {
        SanEvent { tid, time, access }
    }

    fn read(tid: usize, time: u64, var: u32, value: u64) -> SanEvent {
        ev(tid, time, SanAccess::Read { var: VarId::from_index(var), value, txn: true })
    }

    fn plain_write(tid: usize, time: u64, var: u32, value: u64) -> SanEvent {
        ev(tid, time, SanAccess::Write { var: VarId::from_index(var), value, txn: false })
    }

    fn init() -> Vec<u64> {
        vec![0; 16]
    }

    #[test]
    fn dirty_read_trips_strict_but_not_sandboxed() {
        let events = vec![
            ev(0, 1, SanAccess::TxnBegin),
            read(0, 2, X, 0),
            plain_write(1, 3, X, 7), // X goes stale under t0
            read(0, 4, Y, 0),        // t0 observes an inconsistent snapshot
            ev(0, 5, SanAccess::TxnAbort { cause: AbortCause::DataConflict, line: None }),
        ];
        let f = check_opacity(&strict(), &init(), &events);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].lint, LintId::OpacityInconsistentRead);
        // Provenance: stale read of X, conflicting write, offending read.
        assert_eq!(f[0].sites.len(), 3);
        assert_eq!(f[0].sites[1].tid, 1);

        assert!(check_opacity(&sandboxed(), &init(), &events).is_empty());
    }

    #[test]
    fn zombie_commit_trips_both_policies() {
        let events = vec![
            ev(0, 1, SanAccess::TxnBegin),
            read(0, 2, X, 0),
            plain_write(1, 3, X, 7),
            ev(0, 4, SanAccess::TxnCommit),
        ];
        for cfg in [strict(), sandboxed()] {
            let f = check_opacity(&cfg, &init(), &events);
            assert!(f.iter().any(|f| f.lint == LintId::ZombieCommit), "{cfg:?}: {f:?}");
        }
    }

    #[test]
    fn aba_restores_consistency() {
        let events = vec![
            ev(0, 1, SanAccess::TxnBegin),
            read(0, 2, X, 0),
            plain_write(1, 3, X, 7),
            plain_write(1, 4, X, 0), // back to the observed value
            read(0, 5, Y, 0),
            ev(0, 6, SanAccess::TxnCommit),
        ];
        assert!(check_opacity(&strict(), &init(), &events).is_empty());
    }

    #[test]
    fn own_publishes_do_not_stale_own_snapshot() {
        let events = vec![
            ev(0, 1, SanAccess::TxnBegin),
            read(0, 2, X, 0),
            ev(0, 3, SanAccess::Write { var: VarId::from_index(X), value: 9, txn: true }),
            ev(0, 3, SanAccess::TxnCommit),
        ];
        assert!(check_opacity(&strict(), &init(), &events).is_empty());
    }

    #[test]
    fn commit_while_peer_holds_main_lock() {
        let events = vec![
            ev(1, 1, SanAccess::LockAcquire { word: VarId::from_index(L) }),
            ev(0, 2, SanAccess::TxnBegin),
            read(0, 3, X, 0),
            ev(0, 4, SanAccess::TxnCommit),
        ];
        let f = check_opacity(&sandboxed(), &init(), &events);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, LintId::CommitWhileLockHeld);
    }

    #[test]
    fn commit_after_release_is_clean() {
        let events = vec![
            ev(1, 1, SanAccess::LockAcquire { word: VarId::from_index(L) }),
            ev(1, 2, SanAccess::LockRelease { word: VarId::from_index(L) }),
            ev(0, 3, SanAccess::TxnBegin),
            read(0, 4, X, 0),
            ev(0, 5, SanAccess::TxnCommit),
        ];
        assert!(check_opacity(&sandboxed(), &init(), &events).is_empty());
    }

    #[test]
    fn published_txn_store_to_lock_word_is_dangerous() {
        let events = vec![
            ev(0, 1, SanAccess::TxnBegin),
            read(0, 2, X, 0),
            ev(0, 3, SanAccess::Write { var: VarId::from_index(L), value: 0, txn: true }),
            ev(0, 3, SanAccess::TxnCommit),
        ];
        let f = check_opacity(&sandboxed(), &init(), &events);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].lint, LintId::LazyDangerousInstruction);
        // A non-transactional store to the lock word (Standard path after
        // a fallback acquire) is fine.
        let events = vec![plain_write(0, 1, L, 1), plain_write(0, 2, L, 0)];
        assert!(check_opacity(&sandboxed(), &init(), &events).is_empty());
    }

    #[test]
    fn aborted_zombie_is_fine_under_sandboxing() {
        let events = vec![
            ev(0, 1, SanAccess::TxnBegin),
            read(0, 2, X, 0),
            plain_write(1, 3, X, 7),
            read(0, 4, Y, 0), // zombie read: allowed
            ev(0, 5, SanAccess::TxnAbort { cause: AbortCause::DataConflict, line: None }),
        ];
        assert!(check_opacity(&sandboxed(), &init(), &events).is_empty());
    }
}
