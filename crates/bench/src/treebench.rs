//! The red-black-tree and hash-table benchmark drivers (paper §4 / §7.1).
//!
//! A run builds a tree of the target size (filled with random keys from a
//! domain of twice the size, as in the paper), then has every simulated
//! thread perform a fixed number of operations drawn from the configured
//! mix, each as one critical section under the scheme being measured.
//! Throughput is operations per thousand simulated cycles.

use elision_core::{make_scheme, SchemeConfig, SchemeKind, Watchdog};
use elision_htm::{harness, HtmConfig, MemoryBuilder, TxnStats};
use elision_sim::{CauseSlotSeries, FaultPlan, FaultStats, OpCounters, SlotRecorder, SlotSeries};
use elision_structures::{key_domain, HashTable, OpMix, RbTree, TreeOp};
use std::sync::Arc;
use std::sync::Mutex;

pub use elision_core::LockKind;

/// Parameters of one tree-benchmark cell.
#[derive(Debug, Clone, Copy)]
pub struct TreeBenchSpec {
    /// Elision scheme under test.
    pub scheme: SchemeKind,
    /// Main-lock family.
    pub lock: LockKind,
    /// Simulated threads.
    pub threads: usize,
    /// Tree size (elements after the fill phase).
    pub size: usize,
    /// Operation mix.
    pub mix: OpMix,
    /// Operations per thread in the measured phase.
    pub ops_per_thread: u64,
    /// Scheduler lag window. The default, 0, makes a run a pure function
    /// of its seeds; a larger window trades that for host speed.
    pub window: u64,
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
    /// A spec with the paper's defaults for the given scheme/lock cell.
    pub fn new(
        scheme: SchemeKind,
        lock: LockKind,
        threads: usize,
        size: usize,
        mix: OpMix,
    ) -> Self {
        TreeBenchSpec {
            scheme,
            lock,
            threads,
            size,
            mix,
            ops_per_thread: 1000,
            window: 0,
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
    /// Summed S/A/N counters.
    pub counters: OpCounters,
    /// Simulated makespan of the measured phase.
    pub makespan: u64,
    /// Summed transaction statistics (abort breakdown).
    pub txn_stats: TxnStats,
    /// Per-slot series (when requested).
    pub slots: Option<SlotSeries>,
    /// Per-slot abort-cause series (when slots are requested).
    pub cause_slots: Option<CauseSlotSeries>,
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

/// Run one tree-benchmark cell.
pub fn run_tree_bench(spec: &TreeBenchSpec) -> TreeBenchResult {
    let domain = key_domain(spec.size);
    let mut b = MemoryBuilder::new();
    let capacity = domain as usize + spec.threads * 4 + 16;
    let tree = RbTree::new(&mut b, capacity, spec.threads);
    let scheme = make_scheme(spec.scheme, spec.lock, spec.scheme_cfg, &mut b, spec.threads);
    let mem = Arc::new(b.freeze(spec.threads));
    tree.init(&mem);

    // Fill phase: single simulated thread, throwaway timing.
    {
        let tree = tree.clone();
        let size = spec.size;
        let fill_cfg = HtmConfig::deterministic();
        harness::run_arc(1, 0, fill_cfg, spec.seed ^ 0xF111, Arc::clone(&mem), move |s| {
            let mut filled = 0usize;
            while filled < size {
                let key = s.rng.below(domain);
                if tree.insert(s, key).expect("fill runs without transactions") {
                    filled += 1;
                }
            }
        });
    }
    // The single-threaded fill drained the allocator pools unevenly;
    // rebalance so measured threads allocate conflict-free.
    tree.rebalance_freelists(&mem);

    // Measured phase.
    let slot_sink: Arc<Mutex<Vec<SlotRecorder>>> = Arc::new(Mutex::new(Vec::new()));
    let (results, makespan, fault_stats) = {
        let tree = tree.clone();
        let scheme = Arc::clone(&scheme);
        let ops = spec.ops_per_thread;
        let mix = spec.mix;
        let slot_cycles = spec.slot_cycles;
        let slot_sink = Arc::clone(&slot_sink);
        harness::run_arc_faulted(
            spec.threads,
            spec.window,
            spec.htm,
            spec.seed,
            spec.faults,
            Arc::clone(&mem),
            move |s| {
                let mut slots = slot_cycles.map(SlotRecorder::new);
                if let Some(width) = slot_cycles {
                    s.enable_cause_slots(width);
                }
                let mut watchdog = Watchdog::new(0);
                for _ in 0..ops {
                    // Draw the operation before entering the critical section
                    // so speculative retries replay the same operation.
                    let op = mix.draw(&mut s.rng);
                    let key = s.rng.below(domain);
                    let started = s.now();
                    let out = scheme.execute(s, |s| match op {
                        TreeOp::Insert => tree.insert(s, key).map(|_| ()),
                        TreeOp::Delete => tree.remove(s, key).map(|_| ()),
                        TreeOp::Lookup => tree.contains(s, key).map(|_| ()),
                    });
                    watchdog.record(out.attempts, s.now().saturating_sub(started));
                    if let Some(rec) = slots.as_mut() {
                        rec.record(s.now(), out.nonspeculative);
                    }
                }
                if let Some(rec) = slots {
                    slot_sink.lock().expect("slot sink").push(rec);
                }
                (s.counters, s.stats, watchdog, s.cause_slots.take())
            },
        )
    };

    let total_ops = spec.ops_per_thread * spec.threads as u64;
    let counters = OpCounters::sum(results.iter().map(|(c, _, _, _)| c));
    let mut txn_stats = TxnStats::default();
    let mut watchdog = Watchdog::new(0);
    let mut cause_recs = Vec::new();
    for (_, t, w, cs) in &results {
        txn_stats.merge(t);
        watchdog.merge(w);
        if let Some(cs) = cs {
            cause_recs.push(cs.clone());
        }
    }
    let cause_slots = {
        let mut iter = cause_recs.into_iter();
        iter.next().map(|mut first| {
            for rec in iter {
                first.merge(&rec);
            }
            first.into_series()
        })
    };
    let fault_stats = fault_stats.iter().fold(FaultStats::default(), |mut acc, f| {
        acc.merge(f);
        acc
    });
    debug_assert!(
        spec.scheme == SchemeKind::NoLock || counters.completed() == total_ops,
        "completed {} of {total_ops} operations",
        counters.completed()
    );
    let slots = {
        let mut sink = slot_sink.lock().expect("slot sink");
        let mut iter = sink.drain(..);
        iter.next().map(|mut first| {
            for rec in iter {
                first.merge(&rec);
            }
            first.into_series()
        })
    };
    TreeBenchResult {
        throughput: total_ops as f64 * 1000.0 / makespan.max(1) as f64,
        counters,
        makespan,
        txn_stats,
        slots,
        cause_slots,
        watchdog,
        fault_stats,
        breaker_trips: scheme.breaker_trips(),
        residual_lines: mem.residual_lines().iter().map(|l| l.raw()).collect(),
    }
}

/// Run a cell over several seeds and average throughput/counters.
///
/// Slot series (when the spec requests recording) are merged across
/// seeds — raw completion/cause counts sum and the derived rates are
/// recomputed — rather than silently dropped.
pub fn run_tree_bench_avg(spec: &TreeBenchSpec, seeds: u64) -> TreeBenchResult {
    let mut throughput = 0.0;
    let mut counters = OpCounters::new();
    let mut txn_stats = TxnStats::default();
    let mut makespan = 0u64;
    let mut watchdog = Watchdog::new(0);
    let mut fault_stats = FaultStats::default();
    let mut breaker_trips = 0u64;
    let mut slots: Option<elision_sim::SlotSeries> = None;
    let mut cause_slots: Option<elision_sim::CauseSlotSeries> = None;
    let mut residual_lines: Vec<u32> = Vec::new();
    for k in 0..seeds.max(1) {
        let mut s = *spec;
        s.seed = spec.seed.wrapping_add(k * 7919);
        let r = run_tree_bench(&s);
        throughput += r.throughput;
        counters.merge(&r.counters);
        txn_stats.merge(&r.txn_stats);
        makespan += r.makespan;
        watchdog.merge(&r.watchdog);
        fault_stats.merge(&r.fault_stats);
        breaker_trips += r.breaker_trips;
        match (&mut slots, r.slots) {
            (Some(acc), Some(s)) => acc.merge(&s),
            (acc @ None, Some(s)) => *acc = Some(s),
            _ => {}
        }
        match (&mut cause_slots, r.cause_slots) {
            (Some(acc), Some(s)) => acc.merge(&s),
            (acc @ None, Some(s)) => *acc = Some(s),
            _ => {}
        }
        residual_lines.extend(r.residual_lines);
    }
    residual_lines.sort_unstable();
    residual_lines.dedup();
    let n = seeds.max(1);
    TreeBenchResult {
        throughput: throughput / n as f64,
        counters,
        makespan: makespan / n,
        txn_stats,
        slots,
        cause_slots,
        watchdog,
        fault_stats,
        breaker_trips,
        residual_lines,
    }
}

/// Parameters of one hash-table benchmark cell (§7.1: "hash table
/// transactions are always short").
#[derive(Debug, Clone, Copy)]
pub struct HashBenchSpec {
    /// Elision scheme under test.
    pub scheme: SchemeKind,
    /// Main-lock family.
    pub lock: LockKind,
    /// Simulated threads.
    pub threads: usize,
    /// Table size (entries after fill).
    pub size: usize,
    /// Operation mix (insert/delete mapped to put/remove).
    pub mix: OpMix,
    /// Operations per thread.
    pub ops_per_thread: u64,
    /// Scheduler lag window.
    pub window: u64,
    /// HTM configuration.
    pub htm: HtmConfig,
    /// RNG seed.
    pub seed: u64,
    /// Scheme tuning (the paper's defaults, or a hardened variant).
    pub scheme_cfg: SchemeConfig,
    /// Scheduler-level fault plan (preemption, clock jitter).
    pub faults: FaultPlan,
}

/// Run one hash-table benchmark cell.
pub fn run_hash_bench(spec: &HashBenchSpec) -> TreeBenchResult {
    let domain = key_domain(spec.size);
    let mut b = MemoryBuilder::new();
    let capacity = domain as usize + 16;
    let table = HashTable::new(&mut b, (spec.size / 2).max(16), capacity, spec.threads);
    let scheme = make_scheme(spec.scheme, spec.lock, spec.scheme_cfg, &mut b, spec.threads);
    let mem = Arc::new(b.freeze(spec.threads));
    table.init(&mem);

    {
        let table = table.clone();
        let size = spec.size;
        harness::run_arc(
            1,
            0,
            HtmConfig::deterministic(),
            spec.seed ^ 0xF111,
            Arc::clone(&mem),
            move |s| {
                let mut filled = 0usize;
                while filled < size {
                    let key = s.rng.below(domain);
                    if table.put(s, key, key).expect("fill").is_none() {
                        filled += 1;
                    }
                }
            },
        );
    }
    table.rebalance_freelists(&mem);

    let (results, makespan, fault_stats) = {
        let table = table.clone();
        let scheme = Arc::clone(&scheme);
        let ops = spec.ops_per_thread;
        let mix = spec.mix;
        harness::run_arc_faulted(
            spec.threads,
            spec.window,
            spec.htm,
            spec.seed,
            spec.faults,
            Arc::clone(&mem),
            move |s| {
                let mut watchdog = Watchdog::new(0);
                for _ in 0..ops {
                    let op = mix.draw(&mut s.rng);
                    let key = s.rng.below(domain);
                    let started = s.now();
                    let out = scheme.execute(s, |s| match op {
                        TreeOp::Insert => table.put(s, key, key).map(|_| ()),
                        TreeOp::Delete => table.remove(s, key).map(|_| ()),
                        TreeOp::Lookup => table.get(s, key).map(|_| ()),
                    });
                    watchdog.record(out.attempts, s.now().saturating_sub(started));
                }
                (s.counters, s.stats, watchdog)
            },
        )
    };

    let total_ops = spec.ops_per_thread * spec.threads as u64;
    let mut txn_stats = TxnStats::default();
    let mut watchdog = Watchdog::new(0);
    for (_, t, w) in &results {
        txn_stats.merge(t);
        watchdog.merge(w);
    }
    let fault_stats = fault_stats.iter().fold(FaultStats::default(), |mut acc, f| {
        acc.merge(f);
        acc
    });
    TreeBenchResult {
        throughput: total_ops as f64 * 1000.0 / makespan.max(1) as f64,
        counters: OpCounters::sum(results.iter().map(|(c, _, _)| c)),
        makespan,
        txn_stats,
        slots: None,
        cause_slots: None,
        watchdog,
        fault_stats,
        breaker_trips: scheme.breaker_trips(),
        residual_lines: mem.residual_lines().iter().map(|l| l.raw()).collect(),
    }
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
        let mut s = tiny_spec(SchemeKind::Hle, LockKind::Ttas);
        s.slot_cycles = Some(500);
        let r = run_tree_bench(&s);
        let slots = r.slots.expect("slots requested");
        assert!(!slots.is_empty());
        let total: u64 = slots.completed.iter().sum();
        assert_eq!(total, 100);
        let causes = r.cause_slots.expect("cause slots requested");
        assert_eq!(causes.totals().total(), r.counters.aborted, "every abort lands in a slot");
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
            assert_eq!(r.counters.causes.total(), r.txn_stats.aborts());
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
        let total: u64 = slots.completed.iter().sum();
        assert_eq!(total, 100 * seeds, "all seeds' completions merged");
        let causes = r.cause_slots.expect("avg must preserve cause slots");
        assert_eq!(
            causes.totals().total(),
            r.counters.aborted,
            "merged cause slots must sum to merged abort count"
        );
        // Derived rates are recomputed from merged raw counts, so they
        // stay in the per-slot range instead of summing across seeds.
        for (i, &c) in slots.completed.iter().enumerate() {
            let norm = slots.normalized_throughput[i];
            assert!(norm >= 0.0);
            if c == 0 {
                assert_eq!(norm, 0.0);
            }
            assert!((0.0..=1.0).contains(&slots.frac_nonspec[i]));
        }
    }

    #[test]
    fn hash_bench_completes_all_ops() {
        let spec = HashBenchSpec {
            scheme: SchemeKind::HleScm,
            lock: LockKind::Mcs,
            threads: 2,
            size: 64,
            mix: OpMix::MODERATE,
            ops_per_thread: 50,
            window: 0,
            htm: HtmConfig::deterministic(),
            seed: 1,
            scheme_cfg: SchemeConfig::paper(),
            faults: FaultPlan::none(),
        };
        let r = run_hash_bench(&spec);
        assert_eq!(r.counters.completed(), 100);
    }
}
