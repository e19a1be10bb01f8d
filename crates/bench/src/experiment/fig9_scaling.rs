//! Figure 9 — thread scaling of all six schemes on a 128-node tree.
//!
//! For 1, 2, 4 and 8 threads under moderate contention (10/10/80),
//! reports each scheme's throughput normalized to a single thread running
//! with no locking at all (the paper's y=1 baseline), for the TTAS and
//! MCS locks.
//!
//! Paper expectation: plain HLE-MCS does not scale at all; plain
//! HLE-TTAS stops scaling past 4 threads; HLE-retries rescues TTAS but
//! not MCS at 8 threads; the software-assisted schemes (HLE-SCM, opt
//! SLR, SLR-SCM) scale with the thread count for both locks, closing the
//! gap between MCS and TTAS.

use super::{scheme_table, tree_spec, Run};
use crate::metrics::Json;
use crate::report::{f2, ratio};
use crate::run_tree_bench_avg;
use crate::sweep::Cell;
use elision_core::{LockKind, SchemeKind};
use elision_structures::OpMix;

const TREE_SIZE: usize = 128;

pub(super) fn run(run: &mut Run) {
    let args = &run.args;
    let ops = if args.quick { 300 } else { 1200 };
    let thread_counts: Vec<usize> =
        [1usize, 2, 4, 8].into_iter().filter(|&t| t <= args.threads.max(8)).collect();

    println!("== Figure 9: scheme scaling on a 128-node tree ==");
    println!("10% insert / 10% delete / 80% lookup; baseline y=1 is 1 thread, no locking\n");

    // The common baseline (single-threaded, lock-free) is itself a sweep
    // cell; every other cell is normalized to it afterwards.
    let mut cells = vec![Cell::new("baseline/nolock/1", 1, move || {
        let base_spec =
            tree_spec(SchemeKind::NoLock, LockKind::Ttas, 1, TREE_SIZE, OpMix::MODERATE, ops);
        run_tree_bench_avg(&base_spec, args.seeds)
    })];
    for lock in [LockKind::Ttas, LockKind::Mcs] {
        for &t in &thread_counts {
            for scheme in SchemeKind::ALL {
                cells.push(Cell::new(
                    format!("{}/{t}/{}", lock.label(), scheme.label()),
                    t,
                    move || {
                        let spec = tree_spec(scheme, lock, t, TREE_SIZE, OpMix::MODERATE, ops);
                        run_tree_bench_avg(&spec, args.seeds)
                    },
                ));
            }
        }
    }
    let results = run.sweep(cells);
    let base = results[0].throughput;
    let mut next = results[1..].iter();
    for lock in [LockKind::Ttas, LockKind::Mcs] {
        println!("--- {} lock ---", lock.label());
        let mut table = scheme_table("threads", &SchemeKind::ALL);
        for &t in &thread_counts {
            let mut cells = vec![t.to_string()];
            for scheme in SchemeKind::ALL {
                let r = next.next().expect("one result per cell");
                cells.push(f2(ratio(r.throughput, base)));
                run.report.push_result(
                    vec![
                        ("lock", Json::Str(lock.label().to_string())),
                        ("threads", Json::Uint(t as u64)),
                        ("scheme", Json::Str(scheme.label().to_string())),
                        ("norm_throughput", Json::Float(ratio(r.throughput, base))),
                    ],
                    r,
                );
            }
            table.row(cells);
        }
        run.table(&table, Some(&format!("fig9_scaling_{}", lock.label().to_lowercase())));
        println!();
    }
    println!(
        "Paper shape check: HLE-MCS flat at all thread counts; software-assisted \
         schemes scale with threads on both locks and close the MCS/TTAS gap."
    );
}
