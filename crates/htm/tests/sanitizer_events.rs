//! Tests of the sanitizer event log wired through the HTM layer.

use elision_htm::{harness, HtmConfig, MemoryBuilder, SanAccess, VarId};
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
            SanAccess::TxnAbort { cause: AbortCause::Explicit },
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
    assert_eq!(aborts, vec![SanAccess::TxnAbort { cause: AbortCause::Capacity }]);
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
