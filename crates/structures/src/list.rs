//! A transactional sorted singly-linked list. Linear-time operations make
//! its critical sections long and heavily overlapping — a stress case for
//! elision schemes (every writer conflicts with every reader that passed
//! the same prefix).

use crate::pool::NodePool;
use elision_htm::{Memory, MemoryBuilder, Placer, RecordArena, Strand, TxResult, VarId, VarRole};

const KEY: u32 = 0;
const NEXT: u32 = 1;
const STRIDE: u32 = 2;

const NONE: u64 = u64::MAX;

/// A sorted (ascending, unique keys) singly-linked list of `u64` keys.
#[derive(Debug, Clone)]
pub struct SortedList {
    head: VarId,
    /// Free nodes, chained through `NEXT`.
    pool: NodePool,
    arena: RecordArena,
}

impl SortedList {
    /// Allocate a list arena for `capacity` keys, free-lists partitioned
    /// across `threads`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `threads` is zero.
    pub fn new(b: &mut MemoryBuilder, capacity: usize, threads: usize) -> Self {
        assert!(capacity > 0 && threads > 0);
        let head = b.alloc_isolated(NONE);
        b.pad_to_line();
        let base = b.len() as u32;
        b.alloc_array(capacity * STRIDE as usize, 0);
        let arena = RecordArena::contiguous(base, STRIDE);
        let pool = NodePool::new(b, "list", arena.clone(), NEXT, capacity, threads);
        SortedList { head, pool, arena }
    }

    /// Like [`SortedList::new`], but allocated through `p`'s placement
    /// policy: the head as `"list.head"` metadata, nodes as a
    /// `"list.node"` record region and the per-thread free-list heads as
    /// one `"list.free"` region.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `threads` is zero.
    pub fn new_placed(p: &mut Placer, capacity: usize, threads: usize) -> Self {
        assert!(capacity > 0 && threads > 0);
        let head = p.meta("list.head", NONE);
        let arena = p.records("list.node", VarRole::Data, capacity, STRIDE, 0);
        let pool = NodePool::new_placed(p, "list", arena.clone(), NEXT, capacity, threads);
        SortedList { head, pool, arena }
    }

    /// Chain the free lists; call once after freezing, before use.
    pub fn init(&self, mem: &Memory) {
        self.pool.init(mem);
    }

    fn field(&self, node: u64, f: u32) -> VarId {
        self.arena.word(node, f)
    }

    fn alloc_node(&self, s: &mut Strand, key: u64) -> TxResult<u64> {
        let node = self.pool.alloc(s)?;
        s.store(self.field(node, KEY), key)?;
        s.store(self.field(node, NEXT), NONE)?;
        Ok(node)
    }

    /// Whether `key` is present.
    ///
    /// # Errors
    ///
    /// `Err(Abort)` if the enclosing transaction aborted.
    pub fn contains(&self, s: &mut Strand, key: u64) -> TxResult<bool> {
        let mut n = s.load(self.head)?;
        while n != NONE {
            let k = s.load(self.field(n, KEY))?;
            if k == key {
                return Ok(true);
            }
            if k > key {
                return Ok(false);
            }
            n = s.load(self.field(n, NEXT))?;
        }
        Ok(false)
    }

    /// Insert `key`; returns `false` if already present.
    ///
    /// # Errors
    ///
    /// `Err(Abort)` if the enclosing transaction aborted.
    pub fn insert(&self, s: &mut Strand, key: u64) -> TxResult<bool> {
        let mut prev = NONE;
        let mut n = s.load(self.head)?;
        while n != NONE {
            let k = s.load(self.field(n, KEY))?;
            if k == key {
                return Ok(false);
            }
            if k > key {
                break;
            }
            prev = n;
            n = s.load(self.field(n, NEXT))?;
        }
        let node = self.alloc_node(s, key)?;
        s.store(self.field(node, NEXT), n)?;
        if prev == NONE {
            s.store(self.head, node)?;
        } else {
            s.store(self.field(prev, NEXT), node)?;
        }
        Ok(true)
    }

    /// Remove `key`; returns `false` if absent.
    ///
    /// # Errors
    ///
    /// `Err(Abort)` if the enclosing transaction aborted.
    pub fn remove(&self, s: &mut Strand, key: u64) -> TxResult<bool> {
        let mut prev = NONE;
        let mut n = s.load(self.head)?;
        while n != NONE {
            let k = s.load(self.field(n, KEY))?;
            if k == key {
                let next = s.load(self.field(n, NEXT))?;
                if prev == NONE {
                    s.store(self.head, next)?;
                } else {
                    s.store(self.field(prev, NEXT), next)?;
                }
                self.pool.free(s, n)?;
                return Ok(true);
            }
            if k > key {
                return Ok(false);
            }
            prev = n;
            n = s.load(self.field(n, NEXT))?;
        }
        Ok(false)
    }

    /// Collect all keys in order via direct reads (quiescent only).
    pub fn collect(&self, mem: &Memory) -> Vec<u64> {
        let mut out = Vec::new();
        let mut n = mem.read_direct(self.head);
        while n != NONE {
            out.push(mem.read_direct(self.field(n, KEY)));
            n = mem.read_direct(self.field(n, NEXT));
        }
        out
    }
}
