//! Each lock's hardware subscription descriptor agrees with its software
//! check: `Memory::subscription_free` of `hw_subscription()` is `true`
//! exactly when `is_locked` is `false`, in every state a single thread can
//! leave the lock in.

use elision_htm::{harness, HtmConfig, MemoryBuilder, Strand};
use elision_locks::{ClhLock, McsLock, RawLock, TicketLock, TtasLock};
use std::sync::Arc;

/// `lock` reads `held` through its software check, and its descriptor
/// reads free exactly when that check does.
fn assert_descriptor_agrees(s: &mut Strand, lock: &dyn RawLock, state: &str, held: bool) {
    let locked = lock.is_locked(s).expect("plain read cannot abort");
    assert_eq!(locked, held, "{} {state}: is_locked", lock.name());
    let free = s.memory().subscription_free(&lock.hw_subscription());
    assert_eq!(free, !locked, "{} {state}: descriptor disagrees with is_locked", lock.name());
}

/// Lock `kind` of six: the four families, then the unadapted ticket and
/// CLH originals. Also returns whether the lock is HLE-compatible: the
/// unadapted ones fail HLE's restore check, so their elided section never
/// commits (Appendix A).
fn build(kind: usize, b: &mut MemoryBuilder) -> (Arc<dyn RawLock>, bool) {
    match kind {
        0 => (Arc::new(TtasLock::new(b)), true),
        1 => (Arc::new(McsLock::new(b, 1)), true),
        2 => (Arc::new(TicketLock::new(b, 1)), true),
        3 => (Arc::new(ClhLock::new(b, 1)), true),
        4 => (Arc::new(TicketLock::new_unadapted(b, 1)), false),
        _ => (Arc::new(ClhLock::new_unadapted(b, 1)), false),
    }
}

#[test]
fn every_lock_descriptor_agrees_with_its_software_check() {
    for kind in 0..6 {
        let mut b = MemoryBuilder::new();
        let (lock, adapted) = build(kind, &mut b);
        let data = b.alloc_isolated(0);
        let mem = b.freeze(1);
        harness::run(1, 0, HtmConfig::deterministic(), 1, mem, move |s| {
            let lock = lock.as_ref();
            assert_descriptor_agrees(s, lock, "when free", false);
            lock.acquire(s).expect("non-speculative acquire");
            assert_descriptor_agrees(s, lock, "after acquire", true);
            lock.release(s).expect("non-speculative release");
            assert_descriptor_agrees(s, lock, "after release", false);
            let committed = s
                .attempt(|s| {
                    lock.elided_acquire(s)?;
                    let v = s.load(data)?;
                    s.store(data, v + 1)?;
                    lock.elided_release(s)
                })
                .is_ok();
            assert_eq!(committed, adapted, "{}: elided section", lock.name());
            assert_descriptor_agrees(s, lock, "after an elided section", false);
        });
    }
}
