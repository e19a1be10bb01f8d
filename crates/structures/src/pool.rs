//! The node allocator every linked structure shares: per-thread free
//! lists over a record arena, with stealing on exhaustion.
//!
//! Per-thread pools mirror the thread-cached allocator (jemalloc) the
//! paper runs under. A single shared free list would serialize all
//! speculative inserts on the allocator and mask the effects being
//! measured; which pool a node comes from is also where it sits in
//! memory, the placement that decides HTM conflict aborts (arXiv
//! 1504.04640).

use elision_htm::{Memory, MemoryBuilder, Placer, RecordArena, Strand, TxResult, VarId, VarRole};

/// An empty free list's head.
const EMPTY: u64 = u64::MAX;

/// Per-thread free lists of the nodes `0..cap` of an arena, chained
/// through one link word per node.
#[derive(Debug, Clone)]
pub(crate) struct NodePool {
    /// Per-thread free-list heads.
    heads: Vec<VarId>,
    /// The pooled nodes.
    nodes: RecordArena,
    /// The node field free lists chain through.
    link: u32,
    /// Number of pooled nodes.
    cap: usize,
    /// Structure name, for the `"<name>.free"` region and the
    /// exhaustion panic.
    name: &'static str,
}

impl NodePool {
    /// Allocate one isolated free-list head per thread.
    pub(crate) fn new(
        b: &mut MemoryBuilder,
        name: &'static str,
        nodes: RecordArena,
        link: u32,
        cap: usize,
        threads: usize,
    ) -> Self {
        let heads = (0..threads).map(|_| b.alloc_isolated(EMPTY)).collect();
        NodePool { heads, nodes, link, cap, name }
    }

    /// Like [`NodePool::new`], but the heads are one `"<name>.free"`
    /// record region placed by `p`.
    pub(crate) fn new_placed(
        p: &mut Placer,
        name: &'static str,
        nodes: RecordArena,
        link: u32,
        cap: usize,
        threads: usize,
    ) -> Self {
        let region = p.records(&format!("{name}.free"), VarRole::Meta, threads, 1, EMPTY);
        let heads = (0..threads as u64).map(|t| region.word(t, 0)).collect();
        NodePool { heads, nodes, link, cap, name }
    }

    fn link(&self, node: u64) -> VarId {
        self.nodes.word(node, self.link)
    }

    /// Chain each `(pool, node)` onto the front of its pool's list, via
    /// direct writes, and publish the new heads.
    fn chain(&self, mem: &Memory, nodes: impl Iterator<Item = (usize, u64)>) {
        let mut heads = vec![EMPTY; self.heads.len()];
        for (pool, n) in nodes {
            mem.write_direct(self.link(n), heads[pool]);
            heads[pool] = n;
        }
        for (&var, &h) in self.heads.iter().zip(&heads) {
            mem.write_direct(var, h);
        }
    }

    /// Chain every node into the pools: node `n` into pool `n % threads`,
    /// lowest index first. Pre-run setup, after freezing.
    pub(crate) fn init(&self, mem: &Memory) {
        let threads = self.heads.len();
        self.chain(mem, (0..self.cap as u64).rev().map(|n| (n as usize % threads, n)));
    }

    /// Pop a node from the calling thread's pool, stealing from pools
    /// `me + 1, me + 2, ...` (mod the pool count) when it is empty. The
    /// node's link word is left as it was; the caller overwrites it.
    ///
    /// # Panics
    ///
    /// Panics if every pool is empty.
    pub(crate) fn alloc(&self, s: &mut Strand) -> TxResult<u64> {
        let pools = self.heads.len();
        let me = s.tid() % pools;
        for k in 0..pools {
            let pool = self.heads[(me + k) % pools];
            let head = s.load(pool)?;
            if head == EMPTY {
                continue; // empty pool: steal from the next one
            }
            let next = s.load(self.link(head))?;
            s.store(pool, next)?;
            return Ok(head);
        }
        panic!("{} node pool exhausted (capacity {})", self.name, self.cap);
    }

    /// Push `node` onto the calling thread's pool.
    pub(crate) fn free(&self, s: &mut Strand, node: u64) -> TxResult<()> {
        let pool = self.heads[s.tid() % self.heads.len()];
        let head = s.load(pool)?;
        s.store(self.link(node), head)?;
        s.store(pool, node)
    }

    /// Deal every free node round-robin across the pools, via direct
    /// writes. Quiescent use only.
    pub(crate) fn rebalance(&self, mem: &Memory) {
        let mut nodes = Vec::new();
        for &pool in &self.heads {
            let mut n = mem.read_direct(pool);
            while n != EMPTY {
                nodes.push(n);
                n = mem.read_direct(self.link(n));
            }
        }
        let threads = self.heads.len();
        self.chain(mem, nodes.into_iter().enumerate().map(|(i, n)| (i % threads, n)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elision_htm::{harness, HtmConfig};

    /// A pool of `cap` one-word nodes over `threads` pools, initialized.
    fn pool(cap: usize, threads: usize) -> (NodePool, Memory) {
        let mut b = MemoryBuilder::new();
        let nodes = RecordArena::contiguous(b.alloc_array(cap, 0).index(), 1);
        let pool = NodePool::new(&mut b, "test", nodes, 0, cap, threads);
        let mem = b.freeze(threads);
        pool.init(&mem);
        (pool, mem)
    }

    /// Each pool's free list, head first, via direct reads.
    fn lists(pool: &NodePool, mem: &Memory) -> Vec<Vec<u64>> {
        let walk = |mut n: u64| {
            let mut out = Vec::new();
            while n != EMPTY {
                out.push(n);
                n = mem.read_direct(pool.link(n));
            }
            out
        };
        pool.heads.iter().map(|&h| walk(mem.read_direct(h))).collect()
    }

    #[test]
    fn init_deals_nodes_by_index() {
        let (pool, mem) = pool(7, 3);
        assert_eq!(lists(&pool, &mem), vec![vec![0, 3, 6], vec![1, 4], vec![2, 5]]);
    }

    #[test]
    fn alloc_steals_from_the_next_pools_in_order() {
        let (pool, mem) = pool(7, 3);
        let p = pool.clone();
        // Only thread 1 allocates: its own pool first, then pool 2, then
        // pool 0; what it frees goes back to its own pool.
        let (results, mem, _) = harness::run(3, 0, HtmConfig::deterministic(), 1, mem, move |s| {
            if s.tid() != 1 {
                return Vec::new();
            }
            let got: Vec<u64> = (0..7).map(|_| p.alloc(s).unwrap()).collect();
            for &n in &got[..3] {
                p.free(s, n).unwrap();
            }
            got
        });
        assert_eq!(results[1], vec![1, 4, 2, 5, 0, 3, 6]);
        assert_eq!(lists(&pool, &mem), vec![vec![], vec![2, 4, 1], vec![]]);
    }

    #[test]
    fn rebalance_deals_free_nodes_round_robin() {
        let (pool, mem) = pool(7, 3);
        let p = pool.clone();
        // Thread 1 takes every node and frees them all into its own pool.
        let (_, mem, _) = harness::run(3, 0, HtmConfig::deterministic(), 1, mem, move |s| {
            if s.tid() == 1 {
                let got: Vec<u64> = (0..7).map(|_| p.alloc(s).unwrap()).collect();
                for n in got {
                    p.free(s, n).unwrap();
                }
            }
        });
        assert_eq!(lists(&pool, &mem), vec![vec![], vec![6, 3, 0, 5, 2, 4, 1], vec![]]);
        // Walked in pool order, the i-th free node goes to pool i % 3.
        pool.rebalance(&mem);
        assert_eq!(lists(&pool, &mem), vec![vec![1, 5, 6], vec![2, 3], vec![4, 0]]);
    }
}
