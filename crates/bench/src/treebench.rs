//! The benchmark driver for the paper's two measured structures: one
//! driver, two structures — the red-black tree (§4, §7) and the hash
//! table (§7.1, "always short" transactions).
//!
//! A run builds the structure at the target size (filled with random keys
//! from a domain of twice the size, as in the paper), then has every
//! simulated thread perform a fixed number of operations drawn from the
//! configured mix, each as one critical section under the scheme being
//! measured. Throughput is operations per thousand simulated cycles.

use elision_core::{make_scheme, SchemeConfig, SchemeKind, Watchdog};
use elision_htm::{harness, HtmConfig, MemoryBuilder};
use elision_sim::{FaultPlan, FaultStats, OpCounters, SlotSeries};
use elision_structures::{
    key_domain, HashTable, OpAction, OpMix, OpResponse, RbTree, Structure, StructureKind, TreeOp,
};
use std::sync::Arc;

pub use elision_core::LockKind;

/// Parameters of one benchmark cell.
#[derive(Debug, Clone, Copy)]
pub struct TreeBenchSpec {
    /// Measured structure: [`StructureKind::RbTree`] or
    /// [`StructureKind::HashTable`] (whose insert/delete/lookup map to
    /// put/remove/get).
    pub structure: StructureKind,
    /// Elision scheme under test.
    pub scheme: SchemeKind,
    /// Main-lock family.
    pub lock: LockKind,
    /// Simulated threads.
    pub threads: usize,
    /// Structure size (elements after the fill phase).
    pub size: usize,
    /// Operation mix.
    pub mix: OpMix,
    /// Operations per thread in the measured phase.
    pub ops_per_thread: u64,
    /// HTM configuration.
    pub htm: HtmConfig,
    /// RNG seed.
    pub seed: u64,
    /// When set, record per-slot series with this slot width (cycles).
    pub slot_cycles: Option<u64>,
    /// Scheme tuning (the paper's defaults, or a hardened variant).
    pub scheme_cfg: SchemeConfig,
    /// Scheduler-level fault plan (preemption, clock jitter).
    pub faults: FaultPlan,
}

impl TreeBenchSpec {
    /// A red-black-tree spec with the paper's defaults for the given
    /// scheme/lock cell.
    pub fn new(
        scheme: SchemeKind,
        lock: LockKind,
        threads: usize,
        size: usize,
        mix: OpMix,
    ) -> Self {
        TreeBenchSpec {
            structure: StructureKind::RbTree,
            scheme,
            lock,
            threads,
            size,
            mix,
            ops_per_thread: 1000,
            htm: HtmConfig::haswell(),
            seed: 42,
            slot_cycles: None,
            scheme_cfg: SchemeConfig::paper(),
            faults: FaultPlan::none(),
        }
    }
}

/// The outcome of one benchmark run.
#[derive(Debug, Clone)]
pub struct TreeBenchResult {
    /// Operations per thousand simulated cycles.
    pub throughput: f64,
    /// Summed S/A/N counters, with the abort-cause breakdown.
    pub counters: OpCounters,
    /// Simulated makespan of the measured phase.
    pub makespan: u64,
    /// Per-slot completions and abort causes (when requested).
    pub slots: Option<SlotSeries>,
    /// Per-operation starvation accounting (attempts, completion cycles).
    pub watchdog: Watchdog,
    /// Merged injected-fault statistics (all-zero without a fault plan).
    pub fault_stats: FaultStats,
    /// How many times the speculation circuit breaker tripped.
    pub breaker_trips: u64,
    /// Cache lines whose conflict-bitmap bits were still set after the
    /// measured phase went quiescent. Always a leak if non-empty — every
    /// commit and abort must clear its bits, chaos faults included.
    pub residual_lines: Vec<u32>,
}

impl TreeBenchResult {
    /// Fold another run of the same cell into this one: counts and slot
    /// series add, `throughput` and `makespan` sum (the caller
    /// divides), residual lines append.
    fn merge(&mut self, other: TreeBenchResult) {
        self.throughput += other.throughput;
        self.counters.merge(&other.counters);
        self.makespan += other.makespan;
        self.watchdog.merge(&other.watchdog);
        self.fault_stats.merge(&other.fault_stats);
        self.breaker_trips += other.breaker_trips;
        merge_slots(&mut self.slots, other.slots);
        self.residual_lines.extend(other.residual_lines);
    }
}

/// Merge `other` into `acc`, taking it as is when `acc` is empty.
fn merge_slots(acc: &mut Option<SlotSeries>, other: Option<SlotSeries>) {
    match (acc, other) {
        (Some(acc), Some(s)) => acc.merge(&s),
        (acc @ None, s) => *acc = s,
        _ => {}
    }
}

/// The [`OpAction`] `op` on `key` stands for on `structure`: the hash
/// table's insert, delete and lookup are put (the key as its value),
/// remove and get.
fn op_action(structure: StructureKind, op: TreeOp, key: u64) -> OpAction {
    match (structure, op) {
        (StructureKind::HashTable, TreeOp::Insert) => OpAction::MapPut(key, key),
        (StructureKind::HashTable, TreeOp::Delete) => OpAction::MapRemove(key),
        (StructureKind::HashTable, TreeOp::Lookup) => OpAction::MapGet(key),
        (_, TreeOp::Insert) => OpAction::SetInsert(key),
        (_, TreeOp::Delete) => OpAction::SetRemove(key),
        (_, TreeOp::Lookup) => OpAction::SetContains(key),
    }
}

/// Run one benchmark cell.
///
/// # Panics
///
/// Panics if `spec.structure` is neither the tree nor the hash table, or
/// if any scheme but `NoLock` completes fewer than every operation.
pub fn run_tree_bench(spec: &TreeBenchSpec) -> TreeBenchResult {
    let domain = key_domain(spec.size);
    let mut b = MemoryBuilder::new();
    let structure = match spec.structure {
        StructureKind::RbTree => {
            let capacity = domain as usize + spec.threads * 4 + 16;
            Structure::RbTree(RbTree::new(&mut b, capacity, spec.threads))
        }
        StructureKind::HashTable => {
            let capacity = domain as usize + 16;
            let buckets = (spec.size / 2).max(16);
            Structure::HashTable(HashTable::new(&mut b, buckets, capacity, spec.threads))
        }
        kind => panic!("the benchmark driver measures the tree or the hash table, not {kind}"),
    };
    let scheme = make_scheme(spec.scheme, spec.lock, spec.scheme_cfg, &mut b, spec.threads);
    let mem = Arc::new(b.freeze(spec.threads));
    structure.init(&mem);
    let kind = spec.structure;

    // Fill phase: single simulated thread, throwaway timing.
    {
        let structure = structure.clone();
        let size = spec.size;
        let fill_cfg = HtmConfig::deterministic();
        harness::run_arc(1, 0, fill_cfg, spec.seed ^ 0xF111, Arc::clone(&mem), move |s| {
            let mut filled = 0usize;
            while filled < size {
                let key = s.rng.below(domain);
                let response = structure.apply(s, op_action(kind, TreeOp::Insert, key));
                // A new key: the tree says so, the table had no value.
                let fresh = response.expect("fill runs without transactions");
                if matches!(fresh, OpResponse::Flag(true) | OpResponse::Value(None)) {
                    filled += 1;
                }
            }
        });
    }
    // The single-threaded fill drained the allocator pools unevenly;
    // rebalance so measured threads allocate conflict-free.
    match &structure {
        Structure::RbTree(t) => t.rebalance_freelists(&mem),
        Structure::HashTable(h) => h.rebalance_freelists(&mem),
        _ => unreachable!("only the tree and the hash table are built"),
    }

    // Measured phase.
    let (results, makespan, fault_stats) = {
        let scheme = Arc::clone(&scheme);
        let ops = spec.ops_per_thread;
        let mix = spec.mix;
        let slot_cycles = spec.slot_cycles;
        harness::run_arc_faulted(
            spec.threads,
            0,
            spec.htm,
            spec.seed,
            spec.faults,
            Arc::clone(&mem),
            move |s| {
                s.slots = slot_cycles.map(SlotSeries::new);
                let mut watchdog = Watchdog::new(0);
                for _ in 0..ops {
                    // Draw the operation before entering the critical section
                    // so speculative retries replay the same operation.
                    let op = mix.draw(&mut s.rng);
                    let action = op_action(kind, op, s.rng.below(domain));
                    let started = s.now();
                    let out = scheme.execute(s, |s| structure.apply(s, action));
                    let now = s.now();
                    watchdog.record(out.attempts, now.saturating_sub(started));
                    if let Some(rec) = s.slots.as_mut() {
                        rec.record(now, out.nonspeculative);
                    }
                }
                (s.counters, watchdog, s.slots.take())
            },
        )
    };

    let total_ops = spec.ops_per_thread * spec.threads as u64;
    let mut counters = OpCounters::new();
    let mut watchdog = Watchdog::new(0);
    let mut slots = None;
    for (c, w, sl) in results {
        counters.merge(&c);
        watchdog.merge(&w);
        merge_slots(&mut slots, sl);
    }
    let fault_stats = fault_stats.iter().fold(FaultStats::default(), |mut acc, f| {
        acc.merge(f);
        acc
    });
    assert!(
        spec.scheme == SchemeKind::NoLock || counters.completed() == total_ops,
        "completed {} of {total_ops} operations",
        counters.completed()
    );
    // Conservation: each aborted attempt leaves exactly one cause.
    assert_eq!(
        counters.causes.total(),
        counters.aborted,
        "{}/{}/{} x{} seed {}: abort causes must sum to aborted attempts",
        spec.structure.label(),
        spec.scheme,
        spec.lock,
        spec.threads,
        spec.seed
    );
    TreeBenchResult {
        throughput: total_ops as f64 * 1000.0 / makespan.max(1) as f64,
        counters,
        makespan,
        slots,
        watchdog,
        fault_stats,
        breaker_trips: scheme.breaker_trips(),
        residual_lines: mem.residual_lines().iter().map(|l| l.raw()).collect(),
    }
}

/// Run a cell over several seeds and average throughput/makespan.
///
/// Everything else — counters, stats and slot series (when the spec
/// requests recording) — is merged across seeds rather than dropped.
pub fn run_tree_bench_avg(spec: &TreeBenchSpec, seeds: u64) -> TreeBenchResult {
    let n = seeds.max(1);
    let mut acc = (0..n)
        .map(|k| run_tree_bench(&TreeBenchSpec { seed: spec.seed.wrapping_add(k * 7919), ..*spec }))
        .reduce(|mut acc, r| {
            acc.merge(r);
            acc
        })
        .expect("at least one seed");
    acc.throughput /= n as f64;
    acc.makespan /= n;
    acc.residual_lines.sort_unstable();
    acc.residual_lines.dedup();
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec(scheme: SchemeKind, lock: LockKind) -> TreeBenchSpec {
        let mut s = TreeBenchSpec::new(scheme, lock, 2, 32, OpMix::MODERATE);
        s.ops_per_thread = 50;
        s.htm = HtmConfig::deterministic();
        s
    }

    #[test]
    fn tree_bench_completes_all_ops() {
        let r = run_tree_bench(&tiny_spec(SchemeKind::Hle, LockKind::Ttas));
        assert_eq!(r.counters.completed(), 100);
        assert!(r.throughput > 0.0);
    }

    #[test]
    fn nolock_single_thread_baseline_runs() {
        let mut s = tiny_spec(SchemeKind::NoLock, LockKind::Ttas);
        s.threads = 1;
        let r = run_tree_bench(&s);
        assert_eq!(r.counters.completed(), 0, "NoLock records no S/A/N");
        assert!(r.makespan > 0);
    }

    #[test]
    fn slots_are_recorded_when_requested() {
        for structure in [StructureKind::RbTree, StructureKind::HashTable] {
            let mut s = tiny_spec(SchemeKind::Hle, LockKind::Ttas);
            s.structure = structure;
            s.slot_cycles = Some(500);
            let r = run_tree_bench(&s);
            let slots = r.slots.expect("slots requested");
            assert!(!slots.is_empty(), "{structure}");
            let total: u64 = slots.completed().iter().sum();
            assert_eq!(total, 100, "{structure}");
            assert_eq!(
                slots.totals().total(),
                r.counters.aborted,
                "{structure}: every abort lands in a slot"
            );
        }
    }

    #[test]
    fn no_residual_conflict_bits_after_chaos_run() {
        // The measured phase must leave the conflict engine clean even
        // when faults force extra abort paths.
        let mut s = tiny_spec(SchemeKind::HleScm, LockKind::Ttas);
        let (plan, htm_faults) = crate::ChaosProfile::Full.at_intensity(2, 0xC4A0);
        s.htm = HtmConfig::deterministic().with_faults(htm_faults);
        s.faults = plan;
        let r = run_tree_bench(&s);
        assert!(r.counters.completed() > 0);
        assert!(r.residual_lines.is_empty(), "leaked lines {:?}", r.residual_lines);
    }

    #[test]
    fn abort_cause_accounting_balances() {
        // The telemetry invariant across a real benchmark run: the
        // abort-cause histogram sums to the aborted-attempt count, and
        // attempts balance (S + N + A == total attempts).
        for scheme in [SchemeKind::Hle, SchemeKind::HleScm, SchemeKind::OptSlr] {
            let r = run_tree_bench(&tiny_spec(scheme, LockKind::Mcs));
            assert_eq!(
                r.counters.causes.total(),
                r.counters.aborted,
                "{scheme}: cause histogram must sum to aborted attempts"
            );
            assert_eq!(
                r.counters.total_attempts(),
                r.counters.speculative + r.counters.nonspeculative + r.counters.aborted
            );
        }
    }

    #[test]
    fn averaging_runs_multiple_seeds() {
        let r = run_tree_bench_avg(&tiny_spec(SchemeKind::OptSlr, LockKind::Mcs), 2);
        assert_eq!(r.counters.completed(), 200, "two seeds, 100 ops each");
    }

    #[test]
    fn averaging_merges_slot_series_across_seeds() {
        // Regression: run_tree_bench_avg used to hardcode `slots: None`,
        // discarding requested slot recordings. Merged series must carry
        // every seed's completions and abort causes.
        let mut spec = tiny_spec(SchemeKind::Hle, LockKind::Ttas);
        spec.slot_cycles = Some(500);
        let seeds = 3;
        let r = run_tree_bench_avg(&spec, seeds);
        let slots = r.slots.expect("avg must preserve requested slots");
        let total: u64 = slots.completed().iter().sum();
        assert_eq!(total, 100 * seeds, "all seeds' completions merged");
        assert_eq!(
            slots.totals().total(),
            r.counters.aborted,
            "merged cause slots must sum to merged abort count"
        );
        // Derived rates are read from merged raw counts, so they stay in
        // the per-slot range instead of summing across seeds.
        let (norm, frac) = (slots.normalized_throughput(), slots.frac_nonspec());
        for (i, &c) in slots.completed().iter().enumerate() {
            assert!(norm[i] >= 0.0);
            if c == 0 {
                assert_eq!(norm[i], 0.0);
            }
            assert!((0.0..=1.0).contains(&frac[i]));
        }
    }

    #[test]
    fn hash_bench_completes_all_ops() {
        let mut spec = tiny_spec(SchemeKind::HleScm, LockKind::Mcs);
        spec.structure = StructureKind::HashTable;
        spec.size = 64;
        spec.seed = 1;
        let r = run_tree_bench(&spec);
        assert_eq!(r.counters.completed(), 100);
    }

    #[test]
    #[should_panic(expected = "not queue")]
    fn unmeasured_structures_are_rejected() {
        let mut spec = tiny_spec(SchemeKind::Hle, LockKind::Ttas);
        spec.structure = StructureKind::Queue;
        run_tree_bench(&spec);
    }
}
