//! Baton publication: eight simulated threads on OS threads at window 0,
//! hammering two shared words. Simulated memory and clocks are relaxed
//! atomics, ordered only by the scheduler's baton handoff, so a lost
//! update or a stale read here means a handoff failed to publish its
//! holder's writes to the next holder.

use elision_htm::{codes, HtmConfig, MemoryBuilder, Strand, TxResult, VarId};
use elision_sim::SimBuilder;
use std::sync::Arc;

const THREADS: usize = 8;
const OPS: u64 = 400;
/// Speculative attempts per transactional increment before it takes the
/// lock.
const RETRIES: u32 = 3;

#[derive(Clone, Copy)]
struct Words {
    plain: VarId,
    txn: VarId,
    lock: VarId,
}

/// Increment `w.txn` in a transaction that aborts while `w.lock` is
/// held, falling back to the lock after [`RETRIES`] aborts. Returns
/// whether the increment took the lock.
fn txn_increment(s: &mut Strand, w: Words) -> TxResult<bool> {
    for _ in 0..RETRIES {
        let r = s.attempt(|s| {
            if s.load(w.lock)? != 0 {
                return Err(s.xabort(codes::LOCK_BUSY, true));
            }
            let v = s.load(w.txn)?;
            s.store(w.txn, v + 1)
        });
        if r.is_ok() {
            return Ok(false);
        }
    }
    while s.cas(w.lock, 0, 1)? != 0 {
        s.spin()?;
    }
    let v = s.load(w.txn)?;
    s.store(w.txn, v + 1)?;
    s.store(w.lock, 0)?;
    Ok(true)
}

/// One run: the final words, each thread's count of locked increments,
/// the per-thread end times and the makespan.
fn run_once() -> ([u64; 2], Vec<u64>, Vec<u64>, u64) {
    let mut b = MemoryBuilder::new();
    let w =
        Words { plain: b.alloc_isolated(0), txn: b.alloc_isolated(0), lock: b.alloc_isolated(0) };
    let mem = Arc::new(b.freeze(THREADS));
    let out = SimBuilder::new(THREADS).window(0).run({
        let mem = Arc::clone(&mem);
        move |ctx| {
            let mut s = Strand::new(Arc::clone(&mem), ctx.handle, HtmConfig::deterministic(), 7);
            let mut locked = 0;
            for _ in 0..OPS {
                s.fetch_add(w.plain, 1).expect("no transaction to abort");
                locked += u64::from(txn_increment(&mut s, w).expect("no transaction to abort"));
            }
            locked
        }
    });
    let words = [mem.read_direct(w.plain), mem.read_direct(w.txn)];
    (words, out.results, out.end_times, out.makespan)
}

#[test]
fn every_handoff_publishes_its_writes() {
    let (words, locked, end_times, makespan) = run_once();
    let total = THREADS as u64 * OPS;
    assert_eq!(words, [total, total], "lost updates");
    assert!(locked.iter().any(|&n| n > 0), "no increment took the fallback: {locked:?}");
    assert!(locked.iter().all(|&n| n < OPS), "no transaction committed: {locked:?}");
    for rerun in 0..3 {
        let again = run_once();
        assert_eq!(again.0, words, "rerun {rerun}: final words");
        assert_eq!(again.1, locked, "rerun {rerun}: locked increments");
        assert_eq!(again.2, end_times, "rerun {rerun}: end times");
        assert_eq!(again.3, makespan, "rerun {rerun}: makespan");
    }
}
