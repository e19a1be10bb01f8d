//! A transactional chained hash table (the paper's second data-structure
//! benchmark; its transactions are always short, "zooming in" on the
//! short-transaction end of the red-black-tree workload spectrum).

use crate::pool::NodePool;
use elision_htm::{Memory, MemoryBuilder, Placer, RecordArena, Strand, TxResult, VarId, VarRole};

const KEY: u32 = 0;
const VALUE: u32 = 1;
const NEXT: u32 = 2;
const STRIDE: u32 = 4;

const NONE: u64 = u64::MAX;

/// A fixed-bucket chained hash table mapping `u64` keys to `u64` values.
#[derive(Debug, Clone)]
pub struct HashTable {
    /// Bucket heads (node index or `NONE`), one single-word record per
    /// bucket (contiguous under [`HashTable::new`], placement-policy
    /// controlled under [`HashTable::new_placed`]).
    buckets: RecordArena,
    n_buckets: usize,
    /// Free nodes, chained through `NEXT`.
    pool: NodePool,
    /// The node arena.
    arena: RecordArena,
}

impl HashTable {
    /// Allocate a table with `n_buckets` buckets and room for `capacity`
    /// entries, free-lists partitioned across `threads`.
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero.
    pub fn new(b: &mut MemoryBuilder, n_buckets: usize, capacity: usize, threads: usize) -> Self {
        assert!(n_buckets > 0 && capacity > 0 && threads > 0);
        b.pad_to_line();
        let buckets = RecordArena::contiguous(b.alloc_array(n_buckets, NONE).index(), 1);
        b.pad_to_line();
        let base = b.len() as u32;
        b.alloc_array(capacity * STRIDE as usize, 0);
        let arena = RecordArena::contiguous(base, STRIDE);
        let pool = NodePool::new(b, "hash", arena.clone(), NEXT, capacity, threads);
        HashTable { buckets, n_buckets, pool, arena }
    }

    /// Like [`HashTable::new`], but every allocation goes through `p`'s
    /// placement policy: bucket heads as a `"hash.bucket"` record region
    /// (one word per record — packed policies co-locate many buckets per
    /// line, padded isolates each), nodes as `"hash.node"`, and the
    /// per-thread free-list heads as one `"hash.free"` region.
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero.
    pub fn new_placed(p: &mut Placer, n_buckets: usize, capacity: usize, threads: usize) -> Self {
        assert!(n_buckets > 0 && capacity > 0 && threads > 0);
        let buckets = p.records("hash.bucket", VarRole::Data, n_buckets, 1, NONE);
        let arena = p.records("hash.node", VarRole::Data, capacity, STRIDE, 0);
        let pool = NodePool::new_placed(p, "hash", arena.clone(), NEXT, capacity, threads);
        HashTable { buckets, n_buckets, pool, arena }
    }

    /// Chain the free lists; call once after freezing, before use.
    pub fn init(&self, mem: &Memory) {
        self.pool.init(mem);
    }

    /// Number of buckets.
    pub fn n_buckets(&self) -> usize {
        self.n_buckets
    }

    fn field(&self, node: u64, f: u32) -> VarId {
        self.arena.word(node, f)
    }

    /// The bucket index `key` hashes to (Fibonacci hashing spreads
    /// sequential keys across buckets). Public so workload generators
    /// can construct bucket-disjoint key sets.
    pub fn bucket_of(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % self.n_buckets
    }

    fn bucket_var(&self, key: u64) -> VarId {
        self.buckets.word(self.bucket_of(key) as u64, 0)
    }

    fn alloc_node(&self, s: &mut Strand, key: u64, value: u64) -> TxResult<u64> {
        let node = self.pool.alloc(s)?;
        s.store(self.field(node, KEY), key)?;
        s.store(self.field(node, VALUE), value)?;
        s.store(self.field(node, NEXT), NONE)?;
        Ok(node)
    }

    /// Redistribute free nodes evenly across the per-thread pools via
    /// direct writes (see `RbTree::rebalance_freelists`). Quiescent use
    /// only.
    pub fn rebalance_freelists(&self, mem: &Memory) {
        self.pool.rebalance(mem);
    }

    /// Look up `key`.
    ///
    /// # Errors
    ///
    /// `Err(Abort)` if the enclosing transaction aborted.
    pub fn get(&self, s: &mut Strand, key: u64) -> TxResult<Option<u64>> {
        let mut n = s.load(self.bucket_var(key))?;
        while n != NONE {
            if s.load(self.field(n, KEY))? == key {
                return Ok(Some(s.load(self.field(n, VALUE))?));
            }
            n = s.load(self.field(n, NEXT))?;
        }
        Ok(None)
    }

    /// Insert or update `key`; returns the previous value if any.
    ///
    /// # Errors
    ///
    /// `Err(Abort)` if the enclosing transaction aborted.
    ///
    /// # Examples
    ///
    /// ```
    /// use elision_htm::{harness, HtmConfig, MemoryBuilder};
    /// use elision_structures::HashTable;
    ///
    /// let mut b = MemoryBuilder::new();
    /// let table = HashTable::new(&mut b, 8, 16, 1);
    /// let mem = b.freeze(1);
    /// table.init(&mem);
    /// let t = table.clone();
    /// harness::run(1, 0, HtmConfig::deterministic(), 1, mem, move |s| {
    ///     assert_eq!(t.put(s, 3, 30).unwrap(), None);
    ///     assert_eq!(t.put(s, 3, 33).unwrap(), Some(30));
    ///     assert_eq!(t.get(s, 3).unwrap(), Some(33));
    /// });
    /// ```
    pub fn put(&self, s: &mut Strand, key: u64, value: u64) -> TxResult<Option<u64>> {
        let bucket = self.bucket_var(key);
        let mut n = s.load(bucket)?;
        while n != NONE {
            if s.load(self.field(n, KEY))? == key {
                let old = s.load(self.field(n, VALUE))?;
                s.store(self.field(n, VALUE), value)?;
                return Ok(Some(old));
            }
            n = s.load(self.field(n, NEXT))?;
        }
        let node = self.alloc_node(s, key, value)?;
        let head = s.load(bucket)?;
        s.store(self.field(node, NEXT), head)?;
        s.store(bucket, node)?;
        Ok(None)
    }

    /// Remove `key`; returns its value if it was present.
    ///
    /// # Errors
    ///
    /// `Err(Abort)` if the enclosing transaction aborted.
    pub fn remove(&self, s: &mut Strand, key: u64) -> TxResult<Option<u64>> {
        let bucket = self.bucket_var(key);
        let mut prev = NONE;
        let mut n = s.load(bucket)?;
        while n != NONE {
            if s.load(self.field(n, KEY))? == key {
                let next = s.load(self.field(n, NEXT))?;
                if prev == NONE {
                    s.store(bucket, next)?;
                } else {
                    s.store(self.field(prev, NEXT), next)?;
                }
                let val = s.load(self.field(n, VALUE))?;
                self.pool.free(s, n)?;
                return Ok(Some(val));
            }
            prev = n;
            n = s.load(self.field(n, NEXT))?;
        }
        Ok(None)
    }

    /// Collect all `(key, value)` pairs via direct reads (quiescent only).
    pub fn collect(&self, mem: &Memory) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for bkt in 0..self.n_buckets as u64 {
            let mut n = mem.read_direct(self.buckets.word(bkt, 0));
            while n != NONE {
                out.push((
                    mem.read_direct(self.field(n, KEY)),
                    mem.read_direct(self.field(n, VALUE)),
                ));
                n = mem.read_direct(self.field(n, NEXT));
            }
        }
        out.sort_unstable();
        out
    }
}
