//! Lock-discipline lints over the sanitizer log.
//!
//! Reads the protocol-level events of the [`SanLog`](elision_htm::SanLog)
//! (transaction begin/commit/abort, non-speculative lock transitions,
//! subscription markers) and skips its word-level reads and writes. The
//! checks are the paper's "discipline" obligations:
//!
//! * begin/commit/abort events balance per thread
//!   ([`LintId::UnbalancedTxn`]);
//! * non-speculative acquires and releases pair up, and two threads
//!   never hold the same lock at once ([`LintId::ReleaseWithoutAcquire`],
//!   [`LintId::OverlappingAcquire`]);
//! * lazy-subscription schemes subscribe to the main lock before every
//!   commit (Figure 5 line 24 — [`LintId::SlrUnsubscribedCommit`]);
//! * under SCM, only the auxiliary-lock holder takes the main lock
//!   non-speculatively (paper §6 — [`LintId::ScmMainWithoutAux`]).
//!
//! The log is in execution order, so a lock handoff always appears as
//! the holder's release followed by the successor's acquire, whatever
//! their timestamps.

use crate::{AccessSite, Finding, LintId};
use elision_htm::{SanAccess, SanEvent};
use std::collections::HashMap;

/// Configuration for [`lint_trace`].
#[derive(Debug, Clone, Default)]
pub struct LintConfig {
    /// Require a subscription marker before every commit (SLR/SCM lazy
    /// or eager subscription schemes).
    pub require_subscription: bool,
    /// Enforce the SCM rule: the main lock may only be taken by a
    /// thread holding an auxiliary lock.
    pub aux_discipline: bool,
    /// Raw word index identifying the main lock, if any.
    pub main_lock: Option<u32>,
    /// Raw word indices of the auxiliary (SCM) locks.
    pub aux_locks: Vec<u32>,
    /// Number of simulated threads.
    pub threads: usize,
}

#[derive(Debug, Default, Clone)]
struct ThreadState {
    in_txn: bool,
    subscribed: bool,
}

/// Run the lock-discipline lints over a sanitizer log, in log order.
pub fn lint_trace(cfg: &LintConfig, events: &[SanEvent]) -> Vec<Finding> {
    let mut threads: Vec<ThreadState> = vec![ThreadState::default(); cfg.threads];
    let mut holders: HashMap<u32, usize> = HashMap::new();
    let mut findings = Vec::new();

    let site = |seq: usize, tid: usize, time: u64, word: Option<u32>| AccessSite {
        tid,
        var: word,
        line: None,
        time,
        seq,
    };

    for (seq, ev) in events.iter().enumerate() {
        let tid = ev.tid;
        if tid >= cfg.threads {
            continue;
        }
        match ev.access {
            SanAccess::Read { .. } | SanAccess::Write { .. } => {}
            SanAccess::TxnBegin => {
                if threads[tid].in_txn {
                    findings.push(Finding {
                        lint: LintId::UnbalancedTxn,
                        message: format!("t{tid} began a transaction while one was live"),
                        sites: vec![site(seq, tid, ev.time, None)],
                    });
                }
                threads[tid].in_txn = true;
                threads[tid].subscribed = false;
            }
            SanAccess::TxnCommit => {
                if !threads[tid].in_txn {
                    findings.push(Finding {
                        lint: LintId::UnbalancedTxn,
                        message: format!("t{tid} committed with no live transaction"),
                        sites: vec![site(seq, tid, ev.time, None)],
                    });
                } else if cfg.require_subscription && !threads[tid].subscribed {
                    findings.push(Finding {
                        lint: LintId::SlrUnsubscribedCommit,
                        message: format!("t{tid} committed without subscribing to the main lock"),
                        sites: vec![site(seq, tid, ev.time, cfg.main_lock)],
                    });
                }
                threads[tid].in_txn = false;
                threads[tid].subscribed = false;
            }
            SanAccess::TxnAbort { .. } => {
                if !threads[tid].in_txn {
                    findings.push(Finding {
                        lint: LintId::UnbalancedTxn,
                        message: format!("t{tid} aborted with no live transaction"),
                        sites: vec![site(seq, tid, ev.time, None)],
                    });
                }
                threads[tid].in_txn = false;
                threads[tid].subscribed = false;
            }
            SanAccess::Marker { label: "subscribe", .. } => {
                threads[tid].subscribed = true;
            }
            SanAccess::Marker { .. } => {}
            SanAccess::LockAcquire { word } => {
                let word = word.index();
                if let Some(&holder) = holders.get(&word) {
                    if holder != tid {
                        findings.push(Finding {
                            lint: LintId::OverlappingAcquire,
                            message: format!(
                                "t{tid} acquired lock word {word} while t{holder} held it"
                            ),
                            sites: vec![site(seq, tid, ev.time, Some(word))],
                        });
                    }
                }
                if cfg.aux_discipline
                    && Some(word) == cfg.main_lock
                    && !cfg.aux_locks.iter().any(|aux| holders.get(aux) == Some(&tid))
                {
                    findings.push(Finding {
                        lint: LintId::ScmMainWithoutAux,
                        message: format!(
                            "t{tid} took the main lock without holding an auxiliary lock"
                        ),
                        sites: vec![site(seq, tid, ev.time, Some(word))],
                    });
                }
                holders.insert(word, tid);
            }
            SanAccess::LockRelease { word } => {
                let word = word.index();
                if holders.get(&word) == Some(&tid) {
                    holders.remove(&word);
                } else {
                    findings.push(Finding {
                        lint: LintId::ReleaseWithoutAcquire,
                        message: format!("t{tid} released lock word {word} it did not hold"),
                        sites: vec![site(seq, tid, ev.time, Some(word))],
                    });
                }
            }
        }
    }

    for (tid, st) in threads.iter().enumerate() {
        if st.in_txn {
            findings.push(Finding {
                lint: LintId::UnbalancedTxn,
                message: format!("t{tid} ended the run inside a live transaction"),
                sites: vec![site(events.len(), tid, u64::MAX, None)],
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use elision_htm::VarId;
    use elision_sim::AbortCause;

    const MAIN: u32 = 0;
    const AUX: u32 = 16;

    fn cfg(threads: usize) -> LintConfig {
        LintConfig {
            require_subscription: false,
            aux_discipline: false,
            main_lock: Some(MAIN),
            aux_locks: vec![AUX],
            threads,
        }
    }

    /// A log entry: `tid` did `access` at `time`.
    fn ev(tid: usize, time: u64, access: SanAccess) -> SanEvent {
        SanEvent { tid, time, access }
    }

    fn acq(tid: usize, time: u64, word: u32) -> SanEvent {
        ev(tid, time, SanAccess::LockAcquire { word: VarId::from_index(word) })
    }

    fn rel(tid: usize, time: u64, word: u32) -> SanEvent {
        ev(tid, time, SanAccess::LockRelease { word: VarId::from_index(word) })
    }

    #[test]
    fn balanced_run_is_clean() {
        let log = vec![
            ev(0, 1, SanAccess::TxnBegin),
            ev(0, 2, SanAccess::TxnAbort { cause: AbortCause::DataConflict }),
            acq(0, 3, MAIN),
            ev(0, 3, SanAccess::Write { var: VarId::from_index(MAIN), value: 1, txn: false }),
            rel(0, 4, MAIN),
            ev(0, 5, SanAccess::TxnBegin),
            ev(0, 5, SanAccess::Read { var: VarId::from_index(MAIN), value: 0, txn: true }),
            ev(0, 6, SanAccess::TxnCommit),
        ];
        assert!(lint_trace(&cfg(1), &log).is_empty());
    }

    #[test]
    fn double_release_reported() {
        let log = vec![acq(0, 1, MAIN), rel(0, 2, MAIN), rel(0, 3, MAIN)];
        let f = lint_trace(&cfg(1), &log);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, LintId::ReleaseWithoutAcquire);
        assert_eq!(f[0].sites[0].seq, 2);
    }

    #[test]
    fn unsubscribed_commit_reported_when_required() {
        let log = vec![ev(0, 1, SanAccess::TxnBegin), ev(0, 2, SanAccess::TxnCommit)];
        let mut c = cfg(1);
        c.require_subscription = true;
        let f = lint_trace(&c, &log);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, LintId::SlrUnsubscribedCommit);
    }

    #[test]
    fn subscription_marker_suppresses_the_lint() {
        let log = vec![
            ev(0, 1, SanAccess::TxnBegin),
            ev(0, 2, SanAccess::Marker { label: "subscribe", value: u64::from(MAIN) }),
            ev(0, 3, SanAccess::TxnCommit),
        ];
        let mut c = cfg(1);
        c.require_subscription = true;
        assert!(lint_trace(&c, &log).is_empty());
    }

    #[test]
    fn overlapping_acquire_reported() {
        let log = vec![acq(0, 1, MAIN), acq(1, 5, MAIN), rel(1, 6, MAIN), rel(0, 9, MAIN)];
        let f = lint_trace(&cfg(2), &log);
        assert!(f.iter().any(|f| f.lint == LintId::OverlappingAcquire), "{f:?}");
    }

    #[test]
    fn same_time_handoff_logged_release_first_is_clean() {
        // t1 releases at time 7 and t0 acquires at time 7: the log holds
        // them in execution order, release first, so this is a handoff.
        let log = vec![acq(1, 3, MAIN), rel(1, 7, MAIN), acq(0, 7, MAIN), rel(0, 9, MAIN)];
        assert!(lint_trace(&cfg(2), &log).is_empty());
    }

    #[test]
    fn scm_main_without_aux_reported() {
        let mut c = cfg(2);
        c.aux_discipline = true;
        // t0 holds aux then main: fine. t1 takes main bare: lint.
        let log = vec![
            acq(0, 1, AUX),
            acq(0, 2, MAIN),
            rel(0, 3, MAIN),
            rel(0, 4, AUX),
            acq(1, 6, MAIN),
            rel(1, 7, MAIN),
        ];
        let f = lint_trace(&c, &log);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].lint, LintId::ScmMainWithoutAux);
        assert_eq!(f[0].sites[0].tid, 1);
    }

    #[test]
    fn commit_without_begin_and_trailing_txn_reported() {
        let log = vec![ev(0, 1, SanAccess::TxnCommit), ev(0, 2, SanAccess::TxnBegin)];
        let f = lint_trace(&cfg(1), &log);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|f| f.lint == LintId::UnbalancedTxn));
    }
}
