//! Smoke tests of every figure pipeline: tiny versions of each figure's
//! parameter grid, checking that the machinery produces sane, complete
//! output (full-size runs live in the `fig*` binaries).

use elision_bench::{run_tree_bench, TreeBenchSpec};
use elision_core::{LockKind, SchemeKind};
use elision_htm::HtmConfig;
use elision_stamp::{run_kernel, KernelKind, StampParams};
use elision_structures::{OpMix, StructureKind};

#[test]
fn fig2_pipeline_smoke() {
    for lock in [LockKind::Ttas, LockKind::Mcs] {
        let mut spec = TreeBenchSpec::new(SchemeKind::Hle, lock, 4, 32, OpMix::MODERATE);
        spec.ops_per_thread = 100;
        spec.htm = HtmConfig::deterministic();
        let r = run_tree_bench(&spec);
        assert_eq!(r.counters.completed(), 400);
        assert!(r.counters.attempts_per_op() >= 1.0);
        assert!(r.throughput > 0.0);
    }
}

#[test]
fn fig3_pipeline_slots_cover_run() {
    let mut spec = TreeBenchSpec::new(SchemeKind::Hle, LockKind::Ttas, 4, 64, OpMix::MODERATE);
    spec.ops_per_thread = 150;
    spec.htm = HtmConfig::deterministic();
    let calib = run_tree_bench(&spec);
    spec.slot_cycles = Some((calib.makespan / 40).max(1));
    let r = run_tree_bench(&spec);
    let slots = r.slots.expect("slots");
    assert!(slots.len() >= 30, "expected ~40 slots, got {}", slots.len());
    assert_eq!(slots.completed().iter().sum::<u64>(), 600);
    assert!(slots.worst_slowdown() >= 1.0);
}

#[test]
fn fig9_pipeline_baseline_speedups_are_finite() {
    let mut base = TreeBenchSpec::new(SchemeKind::NoLock, LockKind::Ttas, 1, 128, OpMix::MODERATE);
    base.ops_per_thread = 200;
    base.htm = HtmConfig::deterministic();
    let b = run_tree_bench(&base);
    assert!(b.throughput > 0.0);
    for scheme in [SchemeKind::Standard, SchemeKind::HleScm] {
        let mut spec = base;
        spec.scheme = scheme;
        spec.threads = 4;
        let r = run_tree_bench(&spec);
        let speedup = r.throughput / b.throughput;
        assert!(speedup.is_finite() && speedup > 0.0);
    }
}

#[test]
fn fig11_pipeline_two_kernels() {
    for kernel in [KernelKind::Genome, KernelKind::KmeansHigh] {
        let std = run_kernel(
            kernel,
            SchemeKind::Standard,
            LockKind::Ttas,
            4,
            &StampParams::quick(),
            0,
            HtmConfig::deterministic(),
        );
        let slr = run_kernel(
            kernel,
            SchemeKind::OptSlr,
            LockKind::Ttas,
            4,
            &StampParams::quick(),
            0,
            HtmConfig::deterministic(),
        );
        assert!(std.makespan > 0 && slr.makespan > 0);
        // Normalized time must be well-defined and positive.
        let norm = slr.makespan as f64 / std.makespan as f64;
        assert!(norm > 0.0 && norm.is_finite());
    }
}

#[test]
fn hashtable_pipeline_smoke() {
    let mut spec = TreeBenchSpec::new(SchemeKind::SlrScm, LockKind::Mcs, 4, 128, OpMix::EXTENSIVE);
    spec.structure = StructureKind::HashTable;
    spec.ops_per_thread = 100;
    spec.htm = HtmConfig::deterministic();
    spec.seed = 9;
    let r = run_tree_bench(&spec);
    assert_eq!(r.counters.completed(), 400);
}

#[test]
fn tree_bench_is_deterministic_in_strict_mode() {
    let mut spec = TreeBenchSpec::new(SchemeKind::HleScm, LockKind::Mcs, 4, 64, OpMix::MODERATE);
    spec.ops_per_thread = 100;
    spec.htm = HtmConfig::deterministic();
    let a = run_tree_bench(&spec);
    let b = run_tree_bench(&spec);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.counters, b.counters);
}

#[test]
fn parallel_sweep_matches_sequential_on_real_cells() {
    // End-to-end version of the sweep orchestrator guarantee: real
    // benchmark cells (which each spawn their own simulated threads)
    // produce the same results and ordering at any host parallelism.
    use elision_bench::sweep::{Cell, Sweep};
    let make_cells = || -> Vec<Cell<'static, (u64, u64)>> {
        let mut cells = Vec::new();
        for (i, scheme) in
            [SchemeKind::Hle, SchemeKind::HleScm, SchemeKind::OptSlr, SchemeKind::Standard]
                .into_iter()
                .enumerate()
        {
            for lock in [LockKind::Ttas, LockKind::Mcs] {
                cells.push(Cell::new(format!("{i}/{}", lock.label()), 4, move || {
                    let mut spec = TreeBenchSpec::new(scheme, lock, 4, 32, OpMix::MODERATE);
                    spec.ops_per_thread = 60;
                    spec.htm = HtmConfig::deterministic();
                    let r = run_tree_bench(&spec);
                    (r.makespan, r.counters.completed())
                }));
            }
        }
        cells
    };
    let seq = Sweep::new(1).run(make_cells());
    let par = Sweep::new(4).run(make_cells());
    assert_eq!(seq.results, par.results, "parallel sweep must reproduce sequential results");
    let seq_keys: Vec<&str> = seq.timings.iter().map(|t| t.key.as_str()).collect();
    let par_keys: Vec<&str> = par.timings.iter().map(|t| t.key.as_str()).collect();
    assert_eq!(seq_keys, par_keys, "timing attribution must stay in canonical order");
}
