//! Property-based tests: the transactional structures against their
//! sequential reference models, under arbitrary operation sequences.

use elision_htm::{harness, HtmConfig, Memory, MemoryBuilder};
use elision_structures::{
    HashTable, OpAction, OpResponse, RbTree, SeqModel, SimQueue, SortedList, Structure,
    StructureKind,
};
use proptest::prelude::*;

/// Keys are drawn from `0..KEYS`, few enough that operations collide.
const KEYS: u64 = 32;
/// Node capacity of every linked structure: room for every key.
const CAPACITY: usize = 40;
/// Queue capacity, small enough that random pushes overflow it.
const QUEUE_CAP: usize = 4;

/// Random `(key, value, choice)` triples, turned into actions by [`action`].
fn ops(keys: u64, len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<(u64, u64, u8)>> {
    prop::collection::vec((0..keys, 0u64..1000, 0u8..3), len)
}

/// The action a `(key, value, choice)` triple stands for on `kind`. The
/// queue pushes twice as often as it pops, so it fills up.
fn action(kind: StructureKind, (k, v, choice): (u64, u64, u8)) -> OpAction {
    match (kind, choice) {
        (StructureKind::HashTable, 0) => OpAction::MapPut(k, v),
        (StructureKind::HashTable, 1) => OpAction::MapRemove(k),
        (StructureKind::HashTable, _) => OpAction::MapGet(k),
        (StructureKind::Queue, 0 | 1) => OpAction::Push(v),
        (StructureKind::Queue, _) => OpAction::Pop,
        (_, 0) => OpAction::SetInsert(k),
        (_, 1) => OpAction::SetRemove(k),
        (_, _) => OpAction::SetContains(k),
    }
}

fn build(kind: StructureKind, b: &mut MemoryBuilder, buckets: usize) -> Structure {
    match kind {
        StructureKind::HashTable => Structure::HashTable(HashTable::new(b, buckets, CAPACITY, 1)),
        StructureKind::List => Structure::List(SortedList::new(b, CAPACITY, 1)),
        StructureKind::Queue => Structure::Queue(SimQueue::new(b, QUEUE_CAP)),
        StructureKind::RbTree => Structure::RbTree(RbTree::new(b, CAPACITY, 1)),
    }
}

/// The structure holds what the model holds, and a tree keeps every
/// red-black invariant.
fn check_contents(st: &Structure, model: &SeqModel, mem: &Memory) -> Result<(), TestCaseError> {
    match (st, model) {
        (Structure::HashTable(h), SeqModel::Map(m)) => {
            prop_assert_eq!(h.collect(mem), m.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>());
        }
        (Structure::List(l), SeqModel::Set(m)) => {
            prop_assert_eq!(l.collect(mem), m.iter().copied().collect::<Vec<_>>());
        }
        (Structure::RbTree(t), SeqModel::Set(m)) => {
            prop_assert_eq!(t.collect(mem), m.iter().copied().collect::<Vec<_>>());
            prop_assert_eq!(t.validate(mem).map_err(TestCaseError::fail)?, m.len());
        }
        (Structure::Queue(q), SeqModel::Fifo { items, .. }) => {
            prop_assert_eq!(q.len_direct(mem), items.len() as u64);
        }
        (st, model) => unreachable!("{} has no model {model:?}", st.kind()),
    }
    Ok(())
}

/// Applies `ops` to a fresh `kind` through `Structure::apply` and to its
/// sequential reference model (the linearizability oracle's) through
/// `SeqModel::apply`: every response must match, and the structure must
/// end holding what the model holds.
fn matches_seq_model(
    kind: StructureKind,
    ops: &[(u64, u64, u8)],
    buckets: usize,
) -> Result<(), TestCaseError> {
    let actions: Vec<OpAction> = ops.iter().map(|&op| action(kind, op)).collect();
    let mut b = MemoryBuilder::new();
    let st = build(kind, &mut b, buckets);
    let mem = b.freeze(1);
    st.init(&mem);
    let (run_st, run_actions) = (st.clone(), actions.clone());
    let (results, mem, _) = harness::run(1, 0, HtmConfig::deterministic(), 1, mem, move |s| {
        run_actions.iter().map(|&a| run_st.apply(s, a).unwrap()).collect::<Vec<_>>()
    });
    let mut model = SeqModel::for_kind(kind, QUEUE_CAP);
    let want: Vec<OpResponse> = actions.iter().map(|&a| model.apply(a)).collect();
    prop_assert_eq!(&results[0], &want, "{}", kind);
    check_contents(&st, &model, &mem)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The red-black tree answers like its `BTreeSet` model and keeps
    /// every red-black invariant.
    #[test]
    fn rbtree_equals_btreeset(ops in ops(KEYS, 1..120)) {
        matches_seq_model(StructureKind::RbTree, &ops, 1)?;
    }

    /// The hash table answers like its map model, for any bucket count.
    #[test]
    fn hashtable_equals_hashmap(ops in ops(KEYS, 1..120), buckets in 1usize..24) {
        matches_seq_model(StructureKind::HashTable, &ops, buckets)?;
    }

    /// The sorted list stays sorted, unique and equal to its `BTreeSet`
    /// model.
    #[test]
    fn sorted_list_equals_btreeset(ops in ops(KEYS, 1..120)) {
        matches_seq_model(StructureKind::List, &ops, 1)?;
    }

    /// The bounded queue answers like its FIFO model, refusing pushes
    /// once full.
    #[test]
    fn queue_equals_seq_model(ops in ops(KEYS, 1..120)) {
        matches_seq_model(StructureKind::Queue, &ops, 1)?;
    }

    /// Aborted structure operations leave no trace: run a random op
    /// sequence inside one transaction, abort, and the structure must be
    /// byte-identical to before.
    #[test]
    fn aborted_tree_ops_roll_back(
        warm in prop::collection::vec(0u64..64, 0..30),
        ops in ops(64, 1..40),
    ) {
        let mut b = MemoryBuilder::new();
        let tree = RbTree::new(&mut b, 128, 1);
        let mem = b.freeze(1);
        tree.init(&mem);
        let t = tree.clone();
        let warm2 = warm.clone();
        let (_, mem, _) = harness::run(1, 0, HtmConfig::deterministic(), 1, mem, move |s| {
            for &k in &warm2 {
                t.insert(s, k).unwrap();
            }
            let before = t.collect(s.memory());
            let st = Structure::RbTree(t.clone());
            s.begin();
            for &op in &ops {
                st.apply(s, action(StructureKind::RbTree, op)).unwrap();
            }
            let _ = s.xabort(9, false);
            assert_eq!(t.collect(s.memory()), before, "abort leaked structure changes");
        });
        tree.validate(&mem).map_err(TestCaseError::fail)?;
    }
}
