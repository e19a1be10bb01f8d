//! Solo probes: host nanoseconds per simulated event in each layer, timed
//! over a fixed event count through the layers' public functions. They
//! carry the cases of the criterion benches (`htm_ops`, `lock_handoff`,
//! `scheme_overhead`, `rbtree_ops`) so those numbers are recorded with
//! the per-layer metrics instead of only printed.

use crate::stats::Summary;
use elision_core::{make_lock, make_scheme, LockKind, SchemeConfig, SchemeKind};
use elision_htm::{HtmConfig, MemoryBuilder, Strand, VarId};
use elision_sim::{DetRng, Scheduler, SimBuilder, SimHandle};
use elision_structures::{HashTable, RbTree};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// A probe's metric name and the function measuring it from the seed.
pub type Probe = (&'static str, fn(u64) -> f64);

/// Every probe, in the order the per-layer metrics list them.
pub const PROBES: [Probe; 26] = [
    ("sim.handoff_ns", |_| sim_handoff()),
    ("sim.solo_advance_ns", |_| sim_solo_advance()),
    ("htm.load_ns", htm_load),
    ("htm.store_ns", htm_store),
    ("htm.cas_ns", htm_cas),
    ("htm.txn_empty_ns", htm_txn_empty),
    ("htm.txn_rw8_ns", htm_txn_rw8),
    ("htm.abort_unwind_ns", htm_abort_unwind),
    ("htm.hle_roundtrip_ns", htm_hle_roundtrip),
    ("locks.ttas.acquire_release_ns", |seed| lock_acquire_release(LockKind::Ttas, seed)),
    ("locks.ttas.elided_roundtrip_ns", |seed| lock_elided_roundtrip(LockKind::Ttas, seed)),
    ("locks.mcs.acquire_release_ns", |seed| lock_acquire_release(LockKind::Mcs, seed)),
    ("locks.mcs.elided_roundtrip_ns", |seed| lock_elided_roundtrip(LockKind::Mcs, seed)),
    ("locks.ticket.acquire_release_ns", |seed| lock_acquire_release(LockKind::Ticket, seed)),
    ("locks.ticket.elided_roundtrip_ns", |seed| lock_elided_roundtrip(LockKind::Ticket, seed)),
    ("locks.clh.acquire_release_ns", |seed| lock_acquire_release(LockKind::Clh, seed)),
    ("locks.clh.elided_roundtrip_ns", |seed| lock_elided_roundtrip(LockKind::Clh, seed)),
    ("core.standard.execute_empty_ns", |seed| core_execute(SchemeKind::Standard, seed)),
    ("core.hle.execute_empty_ns", |seed| core_execute(SchemeKind::Hle, seed)),
    ("core.hle-retries.execute_empty_ns", |seed| core_execute(SchemeKind::HleRetries, seed)),
    ("core.hle-scm.execute_empty_ns", |seed| core_execute(SchemeKind::HleScm, seed)),
    ("core.opt-slr.execute_empty_ns", |seed| core_execute(SchemeKind::OptSlr, seed)),
    ("core.slr-scm.execute_empty_ns", |seed| core_execute(SchemeKind::SlrScm, seed)),
    ("structures.rbtree.lookup_ns", rbtree_lookup),
    ("structures.rbtree.update_ns", rbtree_update),
    ("structures.hash.op_ns", hash_op),
];

/// Each probe reports the median of this many timed batches.
const BATCHES: usize = 3;

/// Keys in the probed red-black tree and hash table.
const STRUCTURE_KEYS: u64 = 1024;

/// Median host nanoseconds per call of `f`, over `BATCHES` batches of
/// `events` calls.
fn ns_per_event(events: u64, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..events {
                f();
            }
            t.elapsed().as_nanos() as f64 / events as f64
        })
        .collect();
    Summary::of(&samples).expect("BATCHES is not zero").median
}

/// A strand that runs alone over the memory `b` builds, outside any
/// simulation run, so it never waits for another thread.
fn solo_strand(b: MemoryBuilder, seed: u64) -> Strand {
    let mem = Arc::new(b.freeze(1));
    let sched = Arc::new(Scheduler::new(1, 0));
    sched.release_start();
    Strand::new(mem, SimHandle::new(sched, 0), HtmConfig::deterministic(), seed)
}

fn sim_handoff() -> f64 {
    // Two threads advancing by equal costs at window 0 alternate on every
    // advance, so each advance is one handoff.
    const PER_THREAD: u64 = 1_000;
    let per_run = ns_per_event(1, || {
        black_box(SimBuilder::new(2).window(0).run(|ctx| {
            for _ in 0..PER_THREAD {
                ctx.handle.advance(1);
            }
        }));
    });
    per_run / (2 * PER_THREAD) as f64
}

fn sim_solo_advance() -> f64 {
    const ADVANCES: u64 = 200_000;
    let per_run = ns_per_event(1, || {
        black_box(SimBuilder::new(1).window(0).run(|ctx| {
            for _ in 0..ADVANCES {
                ctx.handle.advance(1);
            }
        }));
    });
    per_run / ADVANCES as f64
}

/// A solo strand over 64 words (eight cache lines), and the first word.
fn htm_strand(seed: u64) -> (Strand, VarId) {
    let mut b = MemoryBuilder::new();
    let first = b.alloc_array(64, 0);
    (solo_strand(b, seed), first)
}

fn htm_load(seed: u64) -> f64 {
    let (mut s, word) = htm_strand(seed);
    ns_per_event(200_000, || {
        black_box(s.load(word).expect("solo load"));
    })
}

fn htm_store(seed: u64) -> f64 {
    let (mut s, word) = htm_strand(seed);
    ns_per_event(200_000, || s.store(word, 1).expect("solo store"))
}

fn htm_cas(seed: u64) -> f64 {
    let (mut s, word) = htm_strand(seed);
    ns_per_event(200_000, || {
        black_box(s.cas(word, 0, 0).expect("solo cas"));
    })
}

fn htm_txn_empty(seed: u64) -> f64 {
    let (mut s, _) = htm_strand(seed);
    ns_per_event(100_000, || {
        s.begin();
        s.commit().expect("an empty solo transaction commits");
    })
}

fn htm_txn_rw8(seed: u64) -> f64 {
    let (mut s, word) = htm_strand(seed);
    ns_per_event(10_000, || {
        s.begin();
        for k in 0..8u32 {
            let var = VarId::from_index(word.index() + k * 8);
            let x = s.load(var).expect("solo txn load");
            s.store(var, x + 1).expect("solo txn store");
        }
        s.commit().expect("a solo transaction commits");
    })
}

fn htm_abort_unwind(seed: u64) -> f64 {
    let (mut s, word) = htm_strand(seed);
    ns_per_event(50_000, || {
        s.begin();
        s.store(word, 1).expect("solo txn store");
        black_box(s.xabort(1, true));
    })
}

fn htm_hle_roundtrip(seed: u64) -> f64 {
    let (mut s, word) = htm_strand(seed);
    ns_per_event(50_000, || {
        s.begin();
        s.elide_rmw(word, |_| 1).expect("solo elided acquire");
        s.store(word, 0).expect("solo elided release");
        s.commit().expect("a solo elided section commits");
    })
}

fn lock_acquire_release(kind: LockKind, seed: u64) -> f64 {
    let mut b = MemoryBuilder::new();
    let lock = make_lock(kind, &mut b, 1);
    let mut s = solo_strand(b, seed);
    ns_per_event(50_000, || {
        lock.acquire(&mut s).expect("uncontended acquire");
        lock.release(&mut s).expect("release");
    })
}

fn lock_elided_roundtrip(kind: LockKind, seed: u64) -> f64 {
    let mut b = MemoryBuilder::new();
    let lock = make_lock(kind, &mut b, 1);
    let mut s = solo_strand(b, seed);
    ns_per_event(50_000, || {
        s.begin();
        lock.elided_acquire(&mut s).expect("solo elided acquire");
        lock.elided_release(&mut s).expect("solo elided release");
        s.commit().expect("a solo elided section commits");
    })
}

/// The criterion case: a one-word increment under the scheme over a TTAS
/// lock, which measures the scheme's own per-op cost around a minimal
/// section.
fn core_execute(kind: SchemeKind, seed: u64) -> f64 {
    let mut b = MemoryBuilder::new();
    let data = b.alloc_isolated(0);
    let scheme = make_scheme(kind, LockKind::Ttas, SchemeConfig::paper(), &mut b, 1);
    let mut s = solo_strand(b, seed);
    ns_per_event(20_000, || {
        black_box(scheme.execute(&mut s, |s| {
            let v = s.load(data)?;
            s.store(data, v + 1)
        }));
    })
}

/// A solo strand over a tree filled with `STRUCTURE_KEYS` keys from a
/// domain twice that size, and a key generator for the probe.
fn filled_tree(seed: u64) -> (Strand, RbTree, DetRng) {
    let domain = 2 * STRUCTURE_KEYS;
    let mut b = MemoryBuilder::new();
    let tree = RbTree::new(&mut b, domain as usize + 16, 1);
    let mut s = solo_strand(b, seed);
    tree.init(s.memory());
    let mut rng = DetRng::new(seed, 9);
    let mut filled = 0;
    while filled < STRUCTURE_KEYS {
        if tree.insert(&mut s, rng.below(domain)).expect("solo insert") {
            filled += 1;
        }
    }
    (s, tree, rng)
}

fn rbtree_lookup(seed: u64) -> f64 {
    let (mut s, tree, mut rng) = filled_tree(seed);
    ns_per_event(10_000, || {
        black_box(tree.contains(&mut s, rng.below(2 * STRUCTURE_KEYS)).expect("solo lookup"));
    })
}

fn rbtree_update(seed: u64) -> f64 {
    let (mut s, tree, mut rng) = filled_tree(seed);
    ns_per_event(5_000, || {
        let k = rng.below(2 * STRUCTURE_KEYS);
        if tree.insert(&mut s, k).expect("solo insert") {
            tree.remove(&mut s, k).expect("solo remove");
        }
    })
}

fn hash_op(seed: u64) -> f64 {
    let domain = 2 * STRUCTURE_KEYS;
    let mut b = MemoryBuilder::new();
    let table = HashTable::new(&mut b, STRUCTURE_KEYS as usize / 2, domain as usize + 16, 1);
    let mut s = solo_strand(b, seed);
    table.init(s.memory());
    let mut rng = DetRng::new(seed, 10);
    for _ in 0..STRUCTURE_KEYS {
        let k = rng.below(domain);
        table.put(&mut s, k, k).expect("solo put");
    }
    ns_per_event(20_000, || {
        let k = rng.below(domain);
        let r = match rng.below(3) {
            0 => table.get(&mut s, k),
            1 => table.put(&mut s, k, k),
            _ => table.remove(&mut s, k),
        };
        black_box(r.expect("solo hash op"));
    })
}
