//! Ablation — why the paper deliberately evaluates *coarse-grained*
//! benchmarks (§7: "Our experience with fine-grained benchmarks ... is
//! that in general applying HLE there shows little performance impact
//! because the benchmarks are already optimized to avoid contention").
//!
//! We build the same total workload twice: once under a single global
//! lock (coarse-grained — HLE's target) and once under per-shard locks
//! (fine-grained). Elision transforms the coarse-grained version but
//! barely moves the fine-grained one, which was already concurrent.

use super::Run;
use crate::metrics::Json;
use crate::report::{f2, Table};
use crate::sweep::Cell;
use elision_core::{make_lock, LockKind, Scheme, SchemeConfig, SchemeKind};
use elision_htm::{harness, HtmConfig, MemoryBuilder, VarId};
use std::sync::Arc;

const SHARDS: usize = 16;

/// Each operation picks a shard, locks it (or the single global lock) and
/// updates that shard's counter.
fn run_sharded(scheme_kind: SchemeKind, fine_grained: bool, threads: usize, ops: u64) -> f64 {
    let mut b = MemoryBuilder::new();
    let counters: Vec<VarId> = (0..SHARDS).map(|_| b.alloc_isolated(0)).collect();
    let n_locks = if fine_grained { SHARDS } else { 1 };
    let schemes: Vec<Arc<Scheme>> = (0..n_locks)
        .map(|_| {
            let main = make_lock(LockKind::Ttas, &mut b, threads);
            Arc::new(
                Scheme::new(scheme_kind, SchemeConfig::paper(), main, None)
                    .expect("non-SCM scheme needs no aux"),
            )
        })
        .collect();
    let mem = b.freeze(threads);
    let counters2 = counters.clone();
    let (_, mem, makespan) = harness::run(threads, 0, HtmConfig::haswell(), 21, mem, move |s| {
        for _ in 0..ops {
            let shard = s.rng.below(SHARDS as u64) as usize;
            let scheme = &schemes[shard % schemes.len()];
            let target = counters2[shard];
            scheme.execute(s, |s| {
                let v = s.load(target)?;
                s.work(25)?;
                s.store(target, v + 1)
            });
        }
    });
    let total: u64 = counters.iter().map(|&c| mem.read_direct(c)).sum();
    assert_eq!(total, threads as u64 * ops, "lost updates");
    ops as f64 * threads as f64 * 1000.0 / makespan.max(1) as f64
}

pub(super) fn run(run: &mut Run) {
    let args = &run.args;
    let ops = if args.quick { 150 } else { 400 };

    println!("== Ablation: coarse- vs fine-grained locking under elision ==");
    println!("{} threads, {SHARDS} shards; HLE speedup over standard locking\n", args.threads);

    let mut cells = Vec::new();
    for fine in [false, true] {
        for scheme in [SchemeKind::Standard, SchemeKind::Hle] {
            let grain = if fine { "fine" } else { "coarse" };
            cells.push(Cell::new(format!("{grain}/{}", scheme.label()), args.threads, move || {
                run_sharded(scheme, fine, args.threads, ops)
            }));
        }
    }
    let results = run.sweep(cells);

    let mut table =
        Table::new(&["granularity", "standard (ops/kcycle)", "HLE (ops/kcycle)", "HLE speedup"]);
    let mut pairs = results.chunks_exact(2);
    for fine in [false, true] {
        let pair = pairs.next().expect("one standard/HLE pair per granularity");
        let (std, hle) = (pair[0], pair[1]);
        table.row(vec![
            if fine { format!("fine ({SHARDS} locks)") } else { "coarse (1 lock)".to_string() },
            f2(std),
            f2(hle),
            f2(hle / std),
        ]);
        run.report.push_row(Json::obj(vec![
            ("granularity", Json::Str(if fine { "fine" } else { "coarse" }.to_string())),
            ("locks", Json::Uint(if fine { SHARDS as u64 } else { 1 })),
            ("standard_throughput", Json::Float(std)),
            ("hle_throughput", Json::Float(hle)),
            ("hle_speedup", Json::Float(hle / std)),
        ]));
    }
    run.table(&table, Some("ablation_finegrained"));
    println!(
        "\nShape check: elision multiplies coarse-grained throughput but adds \
         little beyond the already-concurrent fine-grained version — the paper's \
         premise for evaluating coarse-grained benchmarks."
    );
}
