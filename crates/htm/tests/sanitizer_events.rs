//! Tests of the sanitizer event log wired through the HTM layer.

use elision_htm::{harness, HtmConfig, MemoryBuilder, SanAccess, SanEvent, VarId};
use elision_sim::AbortCause;

#[test]
fn strand_records_txn_lifecycle_in_order() {
    let mut b = MemoryBuilder::new();
    let x = b.alloc_isolated(7);
    b.enable_sanitizer();
    let mem = b.freeze(1);
    let (_, mem, _) = harness::run(1, 0, HtmConfig::deterministic(), 1, mem, move |s| {
        s.begin();
        let v = s.load(x).unwrap();
        s.store(x, v + 1).unwrap();
        s.commit().unwrap();
    });
    let log = mem.san_log().expect("sanitizer enabled");
    let accesses: Vec<SanAccess> = log.snapshot().iter().map(|e| e.access).collect();
    assert_eq!(
        accesses,
        vec![
            SanAccess::TxnBegin,
            SanAccess::Read { var: x, value: 7, txn: true },
            SanAccess::Write { var: x, value: 8, txn: true },
            SanAccess::TxnCommit,
        ]
    );
    assert_eq!(log.initial_values()[x.index() as usize], 7);
}

#[test]
fn aborts_and_plain_accesses_are_logged() {
    let mut b = MemoryBuilder::new();
    let x = b.alloc_isolated(0);
    b.enable_sanitizer();
    let mem = b.freeze(1);
    let (_, mem, _) = harness::run(1, 0, HtmConfig::deterministic(), 1, mem, move |s| {
        s.begin();
        let _ = s.xabort(7, false);
        s.store(x, 3).unwrap();
        assert_eq!(s.fetch_add(x, 2).unwrap(), 3);
    });
    let log = mem.san_log().expect("sanitizer enabled");
    let accesses: Vec<SanAccess> = log.snapshot().iter().map(|e| e.access).collect();
    assert_eq!(
        accesses,
        vec![
            SanAccess::TxnBegin,
            SanAccess::TxnAbort { cause: AbortCause::Explicit, line: None },
            SanAccess::Write { var: x, value: 3, txn: false },
            SanAccess::Read { var: x, value: 3, txn: false },
            SanAccess::Write { var: x, value: 5, txn: false },
        ]
    );
}

#[test]
fn capacity_abort_is_logged_with_its_cause() {
    let mut b = MemoryBuilder::new().words_per_line(1);
    let vars = b.alloc_array(8, 0);
    b.enable_sanitizer();
    let mem = b.freeze(1);
    let cfg = HtmConfig::deterministic().with_capacity(64, 2);
    let (_, mem, _) = harness::run(1, 0, cfg, 1, mem, move |s| {
        s.begin();
        for k in 0.. {
            if s.store(VarId::from_index(vars.index() + k), 1).is_err() {
                break;
            }
        }
    });
    let log = mem.san_log().expect("sanitizer enabled");
    let aborts: Vec<SanAccess> = log
        .snapshot()
        .iter()
        .map(|e| e.access)
        .filter(|a| matches!(a, SanAccess::TxnAbort { .. }))
        .collect();
    assert_eq!(aborts, vec![SanAccess::TxnAbort { cause: AbortCause::Capacity, line: None }]);
}

#[test]
fn conflict_record_agrees_in_status_log_and_counters() {
    // A plain write dooms thread 0's first transaction on the lock's line
    // and its second on a data line. The abort status, the logged abort
    // and the cause tally must all tell the same story.
    let mut b = MemoryBuilder::new();
    let lock = b.alloc_lock_word(0);
    let data = b.alloc_isolated(0);
    b.enable_sanitizer();
    let mem = b.freeze(2);
    let lock_line = mem.line_of(lock).raw();
    let data_line = mem.line_of(data).raw();
    let (results, mem, _) = harness::run(2, 0, HtmConfig::deterministic(), 1, mem, move |s| {
        if s.tid() == 1 {
            s.work(200).unwrap();
            s.store(lock, 1).unwrap();
            s.work(2000).unwrap();
            s.store(data, 1).unwrap();
            return Vec::new();
        }
        let mut statuses = Vec::new();
        for var in [lock, data] {
            s.begin();
            s.load(var).unwrap();
            for _ in 0..10_000 {
                if s.work(1).is_err() {
                    break;
                }
            }
            assert!(!s.in_txn(), "the plain write must doom the transaction");
            statuses.push(s.last_abort());
        }
        assert_eq!(s.counters.causes.get(AbortCause::LockWordConflict), 1);
        assert_eq!(s.counters.causes.get(AbortCause::DataConflict), 1);
        assert_eq!(s.counters.causes.total(), 2);
        statuses
    });
    let want = [(AbortCause::LockWordConflict, lock_line), (AbortCause::DataConflict, data_line)];
    let statuses: Vec<_> = results[0].iter().map(|st| (st.cause, st.conflict_line)).collect();
    assert_eq!(statuses, want.map(|(cause, line)| (cause, Some(line))));
    let log = mem.san_log().expect("sanitizer enabled");
    let logged: Vec<(usize, SanAccess)> = log
        .snapshot()
        .iter()
        .filter(|e| matches!(e.access, SanAccess::TxnAbort { .. }))
        .map(|e| (e.tid, e.access))
        .collect();
    assert_eq!(
        logged,
        want.map(|(cause, line)| (0, SanAccess::TxnAbort { cause, line: Some(line) })).to_vec()
    );
}

#[test]
fn doomed_transactions_publish_nothing() {
    let mut b = MemoryBuilder::new();
    let x = b.alloc_isolated(0);
    b.enable_sanitizer();
    let mem = b.freeze(2);
    let (_, mem, _) = harness::run(2, 0, HtmConfig::deterministic(), 1, mem, move |s| {
        if s.tid() == 0 {
            s.begin();
            let _ = s.store(x, 42);
            for _ in 0..10_000 {
                if s.work(1).is_err() {
                    return;
                }
            }
        } else {
            s.work(200).unwrap();
            s.store(x, 5).unwrap();
        }
    });
    let log = mem.san_log().expect("sanitizer enabled");
    // The doomed transaction's buffered write of 42 never appears.
    assert!(log.snapshot().iter().all(|e| !matches!(e.access, SanAccess::Write { value: 42, .. })));
    // The plain write of 5 does.
    assert!(log
        .snapshot()
        .iter()
        .any(|e| e.access == SanAccess::Write { var: x, value: 5, txn: false }));
}

/// A subscription is logged as one typed event between its transaction's
/// begin and commit, with the lock word, thread and clock, when the
/// memory carries a log; without one the call does nothing. Either way it
/// costs no simulated time.
#[test]
fn subscription_is_logged_as_a_typed_event() {
    /// One transaction that subscribes to `lock` if asked: its log, if
    /// any, and the thread's clock at the end.
    fn run(lock: VarId, sanitize: bool, subscribe: bool) -> (Option<Vec<SanEvent>>, u64) {
        let mut b = MemoryBuilder::new();
        assert_eq!(b.alloc_isolated(0), lock);
        if sanitize {
            b.enable_sanitizer();
        }
        let mem = b.freeze(1);
        let (mut ends, mem, _) = harness::run(1, 0, HtmConfig::deterministic(), 1, mem, move |s| {
            s.begin();
            if subscribe {
                s.note_subscribe(lock);
            }
            s.commit().unwrap();
            s.now()
        });
        (mem.san_log().map(|log| log.snapshot()), ends.pop().expect("one thread"))
    }
    let lock = MemoryBuilder::new().alloc_isolated(0);
    let (log, end) = run(lock, true, true);
    let log = log.expect("sanitizer enabled");
    let accesses: Vec<SanAccess> = log.iter().map(|e| e.access).collect();
    assert_eq!(
        accesses,
        vec![SanAccess::TxnBegin, SanAccess::Subscribe { word: lock }, SanAccess::TxnCommit]
    );
    assert_eq!((log[1].tid, log[1].time), (0, log[0].time));
    assert_eq!(run(lock, true, false).1, end, "logging a subscription advanced the clock");
    let (unlogged, unlogged_end) = run(lock, false, true);
    assert!(unlogged.is_none());
    assert_eq!(unlogged_end, end);
}
