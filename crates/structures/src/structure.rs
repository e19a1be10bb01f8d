//! One handle over the four structures, driven by [`OpAction`]s: the
//! concurrent twin of [`SeqModel::apply`](crate::SeqModel::apply).

use crate::{HashTable, OpAction, OpResponse, RbTree, SimQueue, SortedList, StructureKind};
use elision_htm::{Memory, Strand, TxResult};

/// Any of the benchmark structures, built by its own constructor.
#[derive(Debug, Clone)]
pub enum Structure {
    /// A `u64 -> u64` map.
    HashTable(HashTable),
    /// A sorted set of `u64` keys.
    List(SortedList),
    /// A bounded FIFO of `u64` values.
    Queue(SimQueue),
    /// A set of `u64` keys.
    RbTree(RbTree),
}

impl Structure {
    /// Which structure this is.
    pub fn kind(&self) -> StructureKind {
        match self {
            Structure::HashTable(_) => StructureKind::HashTable,
            Structure::List(_) => StructureKind::List,
            Structure::Queue(_) => StructureKind::Queue,
            Structure::RbTree(_) => StructureKind::RbTree,
        }
    }

    /// Finish setup after the memory is frozen (the queue needs none).
    /// Call once, before any simulated thread touches the structure.
    pub fn init(&self, mem: &Memory) {
        match self {
            Structure::HashTable(h) => h.init(mem),
            Structure::List(l) => l.init(mem),
            Structure::Queue(_) => {}
            Structure::RbTree(t) => t.init(mem),
        }
    }

    /// Perform `action` and return what it observed.
    ///
    /// # Errors
    ///
    /// `Err(Abort)` if the enclosing transaction aborted.
    ///
    /// # Panics
    ///
    /// Panics if `action` does not belong to this structure.
    pub fn apply(&self, s: &mut Strand, action: OpAction) -> TxResult<OpResponse> {
        use OpResponse::{Flag, Value};
        Ok(match (self, action) {
            (Structure::HashTable(h), OpAction::MapGet(k)) => Value(h.get(s, k)?),
            (Structure::HashTable(h), OpAction::MapPut(k, v)) => Value(h.put(s, k, v)?),
            (Structure::HashTable(h), OpAction::MapRemove(k)) => Value(h.remove(s, k)?),
            (Structure::List(l), OpAction::SetInsert(k)) => Flag(l.insert(s, k)?),
            (Structure::List(l), OpAction::SetRemove(k)) => Flag(l.remove(s, k)?),
            (Structure::List(l), OpAction::SetContains(k)) => Flag(l.contains(s, k)?),
            (Structure::RbTree(t), OpAction::SetInsert(k)) => Flag(t.insert(s, k)?),
            (Structure::RbTree(t), OpAction::SetRemove(k)) => Flag(t.remove(s, k)?),
            (Structure::RbTree(t), OpAction::SetContains(k)) => Flag(t.contains(s, k)?),
            (Structure::Queue(q), OpAction::Push(v)) => Flag(q.push(s, v)?),
            (Structure::Queue(q), OpAction::Pop) => Value(q.pop(s)?),
            (st, action) => panic!("action {action} does not fit structure {}", st.kind()),
        })
    }
}
