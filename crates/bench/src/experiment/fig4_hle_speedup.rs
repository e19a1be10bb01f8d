//! Figure 4 — HLE speedup over standard locking, by contention level.
//!
//! For each of the paper's three contention levels (lookups-only,
//! 10/10/80, 50/50) and each tree size, reports the throughput of the
//! HLE version of each lock normalized to the standard (non-speculative)
//! version of the same lock, at 8 threads.
//!
//! Paper expectation: HLE-MCS gains nothing (speedup ~1 or below) at all
//! sizes; HLE-TTAS gains little on small trees but large speedups (up to
//! ~14x in the paper's lookup-only workload) as the tree grows.

use super::{slug, tree_spec, Run};
use crate::metrics::Json;
use crate::report::{f2, Table};
use crate::sweep::Cell;
use crate::{run_tree_bench_avg, size_sweep};
use elision_core::{LockKind, SchemeKind};
use elision_structures::OpMix;

pub(super) fn run(run: &mut Run) {
    let args = &run.args;
    let sizes = size_sweep(args.quick, args.full);
    let ops = if args.quick { 300 } else { 1000 };

    println!("== Figure 4: HLE speedup over the standard version of each lock ==");
    println!("{} threads; baseline y=1 is the standard lock\n", args.threads);

    let mut cells = Vec::new();
    for (label, mix) in OpMix::LEVELS {
        for &size in &sizes {
            for lock in [LockKind::Ttas, LockKind::Mcs] {
                cells.push(Cell::new(
                    format!("{label}/{size}/{}", lock.label()),
                    args.threads,
                    move || {
                        let spec = tree_spec(SchemeKind::Hle, lock, args.threads, size, mix, ops);
                        let hle = run_tree_bench_avg(&spec, args.seeds);
                        let mut std_spec = spec;
                        std_spec.scheme = SchemeKind::Standard;
                        let std = run_tree_bench_avg(&std_spec, args.seeds);
                        (hle, std)
                    },
                ));
            }
        }
    }
    let results = run.sweep(cells);
    let mut next = results.iter();
    for (label, _mix) in OpMix::LEVELS {
        println!("--- {label} ---");
        let mut table = Table::new(&["size", "TTAS", "MCS"]);
        for &size in &sizes {
            let mut cells = vec![size.to_string()];
            for lock in [LockKind::Ttas, LockKind::Mcs] {
                let (hle, std) = next.next().expect("one result per cell");
                cells.push(f2(hle.throughput / std.throughput));
                run.report.push_result(
                    vec![
                        ("workload", Json::Str(label.to_string())),
                        ("size", Json::Uint(size as u64)),
                        ("lock", Json::Str(lock.label().to_string())),
                        ("speedup_vs_std", Json::Float(hle.throughput / std.throughput)),
                    ],
                    hle,
                );
            }
            table.row(cells);
        }
        run.table(&table, Some(&format!("fig4_hle_speedup_{}", slug(label))));
        println!();
    }
    println!(
        "Paper shape check: MCS stays at ~1x everywhere; TTAS grows with tree size, \
         highest in the lookups-only workload."
    );
}
