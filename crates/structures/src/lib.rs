//! Transactional data structures used by the paper's evaluation: the
//! red-black tree and hash table of §4/§7.1, plus the queue and sorted
//! list used by the STAMP-style kernels and extension benchmarks.
//!
//! All structures live in simulated memory and are accessed through a
//! [`elision_htm::Strand`], so they can be used inside elided critical
//! sections: traversals populate the transaction's read set, mutations
//! its write set, and aborts roll everything back.
//!
//! # Example
//!
//! ```
//! use elision_htm::{harness, HtmConfig, MemoryBuilder};
//! use elision_structures::RbTree;
//!
//! let mut b = MemoryBuilder::new();
//! let tree = RbTree::new(&mut b, 64, 1);
//! let mem = b.freeze(1);
//! tree.init(&mem);
//! let t = tree.clone();
//! let (_, mem, _) = harness::run(1, 0, HtmConfig::deterministic(), 1, mem, move |s| {
//!     for k in [5, 1, 9, 3] {
//!         t.insert(s, k).unwrap();
//!     }
//!     t.remove(s, 1).unwrap();
//! });
//! assert_eq!(tree.collect(&mem), vec![3, 5, 9]);
//! assert_eq!(tree.validate(&mem).unwrap(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hashtable;
pub mod history;
mod list;
mod pool;
mod queue;
mod rbtree;
mod structure;
mod workload;

pub use hashtable::HashTable;
pub use history::{HistoryRecorder, OpAction, OpRecord, OpResponse, SeqModel, StructureKind};
pub use list::SortedList;
pub use queue::SimQueue;
pub use rbtree::RbTree;
pub use structure::Structure;
pub use workload::{key_domain, OpMix, TreeOp};

#[cfg(test)]
mod tests {
    use super::*;
    use elision_core::{make_scheme, LockKind, SchemeConfig, SchemeKind};
    use elision_htm::{harness, HtmConfig, MemoryBuilder};
    use elision_sim::DetRng;
    use std::collections::BTreeSet;

    #[test]
    fn rbtree_sequential_ops_match_model() {
        let mut b = MemoryBuilder::new();
        let tree = RbTree::new(&mut b, 256, 1);
        let mem = b.freeze(1);
        tree.init(&mem);
        let t = tree.clone();
        let (results, mem, _) = harness::run(1, 0, HtmConfig::deterministic(), 11, mem, move |s| {
            let mut model = BTreeSet::new();
            let mut rng = DetRng::new(99, 0);
            for _ in 0..2000 {
                let key = rng.below(128);
                match rng.below(3) {
                    0 => {
                        let added = t.insert(s, key).unwrap();
                        assert_eq!(added, model.insert(key), "insert({key}) diverged");
                    }
                    1 => {
                        let removed = t.remove(s, key).unwrap();
                        assert_eq!(removed, model.remove(&key), "remove({key}) diverged");
                    }
                    _ => {
                        let found = t.contains(s, key).unwrap();
                        assert_eq!(found, model.contains(&key), "contains({key}) diverged");
                    }
                }
            }
            model.into_iter().collect::<Vec<_>>()
        });
        let model_keys = &results[0];
        assert_eq!(&tree.collect(&mem), model_keys);
        assert_eq!(tree.validate(&mem).unwrap(), model_keys.len());
    }

    #[test]
    fn rbtree_concurrent_ops_keep_invariants() {
        let threads = 4;
        let mut b = MemoryBuilder::new();
        let tree = RbTree::new(&mut b, 512, threads);
        let scheme =
            make_scheme(SchemeKind::HleScm, LockKind::Mcs, SchemeConfig::paper(), &mut b, threads);
        let mem = b.freeze(threads);
        tree.init(&mem);
        let t = tree.clone();
        let (results, mem, _) =
            harness::run(threads, 0, HtmConfig::deterministic(), 5, mem, move |s| {
                let mut delta = 0i64;
                for _ in 0..150 {
                    let key = s.rng.below(64);
                    let op = s.rng.below(2);
                    let out = scheme.execute(s, |s| {
                        if op == 0 {
                            t.insert(s, key)
                        } else {
                            t.remove(s, key)
                        }
                    });
                    if out.value {
                        delta += if op == 0 { 1 } else { -1 };
                    }
                }
                delta
            });
        let expected: i64 = results.iter().sum();
        let n = tree.validate(&mem).unwrap_or_else(|e| panic!("invariant broken: {e}"));
        assert_eq!(n as i64, expected, "size conservation violated");
    }

    #[test]
    fn rbtree_concurrent_under_every_scheme() {
        for kind in
            [SchemeKind::Hle, SchemeKind::HleRetries, SchemeKind::OptSlr, SchemeKind::SlrScm]
        {
            let threads = 3;
            let mut b = MemoryBuilder::new();
            let tree = RbTree::new(&mut b, 256, threads);
            let scheme = make_scheme(kind, LockKind::Ttas, SchemeConfig::paper(), &mut b, threads);
            let mem = b.freeze(threads);
            tree.init(&mem);
            let t = tree.clone();
            let (results, mem, _) =
                harness::run(threads, 0, HtmConfig::deterministic(), 5, mem, move |s| {
                    let mut delta = 0i64;
                    for _ in 0..80 {
                        let key = s.rng.below(32);
                        let op = s.rng.below(2);
                        let out = scheme.execute(s, |s| {
                            if op == 0 {
                                t.insert(s, key)
                            } else {
                                t.remove(s, key)
                            }
                        });
                        if out.value {
                            delta += if op == 0 { 1 } else { -1 };
                        }
                    }
                    delta
                });
            let expected: i64 = results.iter().sum();
            let n = tree.validate(&mem).unwrap_or_else(|e| panic!("{kind}: invariant broken: {e}"));
            assert_eq!(n as i64, expected, "{kind}: size conservation violated");
        }
    }

    #[test]
    fn hashtable_matches_model() {
        let mut b = MemoryBuilder::new();
        let table = HashTable::new(&mut b, 16, 128, 1);
        let mem = b.freeze(1);
        table.init(&mem);
        let t = table.clone();
        harness::run(1, 0, HtmConfig::deterministic(), 11, mem, move |s| {
            let mut model = std::collections::HashMap::new();
            let mut rng = DetRng::new(7, 3);
            for _ in 0..1500 {
                let key = rng.below(96);
                match rng.below(3) {
                    0 => {
                        let v = rng.below(1000);
                        assert_eq!(t.put(s, key, v).unwrap(), model.insert(key, v));
                    }
                    1 => {
                        assert_eq!(t.remove(s, key).unwrap(), model.remove(&key));
                    }
                    _ => {
                        assert_eq!(t.get(s, key).unwrap(), model.get(&key).copied());
                    }
                }
            }
        });
    }

    #[test]
    fn hashtable_concurrent_conservation() {
        let threads = 4;
        let mut b = MemoryBuilder::new();
        let table = HashTable::new(&mut b, 64, 512, threads);
        let scheme =
            make_scheme(SchemeKind::OptSlr, LockKind::Ttas, SchemeConfig::paper(), &mut b, threads);
        let mem = b.freeze(threads);
        table.init(&mem);
        let t = table.clone();
        let (results, mem, _) =
            harness::run(threads, 0, HtmConfig::deterministic(), 5, mem, move |s| {
                let mut delta = 0i64;
                for _ in 0..150 {
                    let key = s.rng.below(128);
                    let op = s.rng.below(2);
                    let out = scheme.execute(s, |s| {
                        if op == 0 {
                            t.put(s, key, key * 10).map(|prev| prev.is_none())
                        } else {
                            t.remove(s, key).map(|prev| prev.is_some())
                        }
                    });
                    if out.value {
                        delta += if op == 0 { 1 } else { -1 };
                    }
                }
                delta
            });
        let expected: i64 = results.iter().sum();
        let pairs = table.collect(&mem);
        assert_eq!(pairs.len() as i64, expected);
        for (k, v) in pairs {
            assert_eq!(v, k * 10);
        }
    }

    #[test]
    fn queue_is_fifo() {
        let mut b = MemoryBuilder::new();
        let q = SimQueue::new(&mut b, 8);
        let mem = b.freeze(1);
        let qq = q.clone();
        harness::run(1, 0, HtmConfig::deterministic(), 1, mem, move |s| {
            assert!(qq.is_empty(s).unwrap());
            for v in 10..15 {
                assert!(qq.push(s, v).unwrap());
            }
            assert_eq!(qq.len(s).unwrap(), 5);
            for v in 10..15 {
                assert_eq!(qq.pop(s).unwrap(), Some(v));
            }
            assert_eq!(qq.pop(s).unwrap(), None);
        });
    }

    #[test]
    fn queue_rejects_overflow_and_wraps() {
        let mut b = MemoryBuilder::new();
        let q = SimQueue::new(&mut b, 4);
        let mem = b.freeze(1);
        let qq = q.clone();
        harness::run(1, 0, HtmConfig::deterministic(), 1, mem, move |s| {
            for v in 0..4 {
                assert!(qq.push(s, v).unwrap());
            }
            assert!(!qq.push(s, 99).unwrap(), "push into a full queue must fail");
            assert_eq!(qq.pop(s).unwrap(), Some(0));
            assert!(qq.push(s, 4).unwrap(), "slot must be reusable after pop");
            let drained: Vec<_> = (0..4).map(|_| qq.pop(s).unwrap().unwrap()).collect();
            assert_eq!(drained, vec![1, 2, 3, 4]);
        });
    }

    #[test]
    fn queue_concurrent_producers_consumers() {
        let threads = 4;
        let per = 100u64;
        let mut b = MemoryBuilder::new();
        let q = SimQueue::new(&mut b, 1024);
        let scheme =
            make_scheme(SchemeKind::HleScm, LockKind::Ttas, SchemeConfig::paper(), &mut b, threads);
        let mem = b.freeze(threads);
        let qq = q.clone();
        let (results, mem, _) =
            harness::run(threads, 0, HtmConfig::deterministic(), 5, mem, move |s| {
                let mut popped = 0u64;
                if s.tid() % 2 == 0 {
                    for i in 0..per {
                        let v = (s.tid() as u64) << 32 | i;
                        scheme.execute(s, |s| qq.push(s, v));
                    }
                } else {
                    for _ in 0..per {
                        let out = scheme.execute(s, |s| qq.pop(s));
                        if out.value.is_some() {
                            popped += 1;
                        }
                    }
                }
                popped
            });
        let total_popped: u64 = results.iter().sum();
        assert_eq!(q.len_direct(&mem), 2 * per - total_popped);
    }

    #[test]
    fn sorted_list_matches_model() {
        let mut b = MemoryBuilder::new();
        let list = SortedList::new(&mut b, 64, 1);
        let mem = b.freeze(1);
        list.init(&mem);
        let l = list.clone();
        let (_, mem, _) = harness::run(1, 0, HtmConfig::deterministic(), 1, mem, move |s| {
            let mut model = BTreeSet::new();
            let mut rng = DetRng::new(31, 0);
            for _ in 0..800 {
                let key = rng.below(48);
                match rng.below(3) {
                    0 => assert_eq!(l.insert(s, key).unwrap(), model.insert(key)),
                    1 => assert_eq!(l.remove(s, key).unwrap(), model.remove(&key)),
                    _ => assert_eq!(l.contains(s, key).unwrap(), model.contains(&key)),
                }
            }
            assert_eq!(l.collect(s.memory()), model.iter().copied().collect::<Vec<_>>());
        });
        drop(mem);
    }

    #[test]
    fn placed_structures_behave_under_every_policy() {
        use elision_htm::{PlacementConfig, PlacementPolicy, Placer};
        for policy in PlacementPolicy::ALL {
            for lockco in [false, true] {
                let cfg = PlacementConfig::new(policy).with_coresident_locks(lockco);
                let mut p = Placer::new(MemoryBuilder::new(), cfg);
                let tree = RbTree::new_placed(&mut p, 64, 2);
                let list = SortedList::new_placed(&mut p, 32, 2);
                let table = HashTable::new_placed(&mut p, 8, 64, 2);
                let q = SimQueue::new_placed(&mut p, 8);
                let scheme = make_scheme(
                    SchemeKind::Hle,
                    LockKind::Ttas,
                    SchemeConfig::paper(),
                    p.builder_mut(),
                    2,
                );
                let (b, layout) = p.finish();
                let mem = b.freeze(2);
                assert_eq!(layout.words() as usize, mem.words(), "{policy:?}");
                tree.init(&mem);
                list.init(&mem);
                table.init(&mem);
                let (t, l, h, qq) = (tree.clone(), list.clone(), table.clone(), q.clone());
                let (results, mem, _) =
                    harness::run(2, 0, HtmConfig::deterministic(), 9, mem, move |s| {
                        let mut delta = 0i64;
                        for _ in 0..60 {
                            let key = s.rng.below(48);
                            let grow = key % 2 == 0;
                            let out = scheme.execute(s, |s| {
                                if grow {
                                    t.insert(s, key)
                                } else {
                                    t.remove(s, key)
                                }
                            });
                            if out.value {
                                delta += if grow { 1 } else { -1 };
                            }
                            scheme.execute(s, |s| {
                                let _ = l.insert(s, key % 16)?;
                                let _ = h.put(s, key, key + 1)?;
                                let _ = qq.push(s, key)?;
                                let _ = qq.pop(s)?;
                                Ok::<_, elision_htm::Abort>(())
                            });
                        }
                        delta
                    });
                let expected: i64 = results.iter().sum();
                let n = tree
                    .validate(&mem)
                    .unwrap_or_else(|e| panic!("{policy:?} lockco={lockco}: {e}"));
                assert_eq!(n as i64, expected, "{policy:?} lockco={lockco}");
                for (k, v) in table.collect(&mem) {
                    assert_eq!(v, k + 1, "{policy:?} lockco={lockco}");
                }
                let lock_lines = layout.lock_lines();
                assert!(!lock_lines.is_empty(), "scheme lock must appear in the layout");
                assert!(
                    lock_lines.iter().all(|&line| mem.is_lock_line(line)),
                    "{policy:?}: layout lock lines must agree with the frozen memory"
                );
            }
        }
    }

    #[test]
    fn doomed_traversal_unwinds_cleanly() {
        // Failure injection: dooming a transaction mid-traversal must not
        // corrupt the tree or hang the traverser.
        let threads = 2;
        let mut b = MemoryBuilder::new();
        let tree = RbTree::new(&mut b, 128, threads);
        let mem = b.freeze(threads);
        tree.init(&mem);
        let t = tree.clone();
        let (_, mem, _) = harness::run(threads, 0, HtmConfig::deterministic(), 5, mem, move |s| {
            if s.tid() == 0 {
                // Speculative traversals, racing the writer.
                let mut aborted = 0;
                for k in 0..60u64 {
                    s.begin();
                    let r = t.contains(s, k % 32);
                    if r.is_err() || s.commit().is_err() {
                        aborted += 1;
                    }
                }
                aborted
            } else {
                // Non-speculative writer mutating the tree.
                for k in 0..30u64 {
                    t.insert(s, k).unwrap();
                    s.work(5).unwrap();
                }
                0
            }
        });
        assert_eq!(tree.validate(&mem).unwrap(), 30);
    }
}
