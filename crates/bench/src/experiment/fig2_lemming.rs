//! Figure 2 — the lemming effect under plain HLE.
//!
//! For each tree size (8 threads, 10/10/80 insert/delete/lookup) and for
//! the TTAS and MCS locks, reports:
//!
//! * speedup over the standard version of the same lock (top panel),
//! * average execution attempts per critical section, `(A+N+S)/(N+S)`
//!   (middle panel, "Total Work"),
//! * fraction of operations completing non-speculatively, `N/(N+S)`, and
//!   the fraction of TTAS arrivals that found the lock held (bottom
//!   panel).
//!
//! Paper expectation: MCS executes virtually everything non-speculatively
//! (fraction ~1, no speedup); TTAS recovers, needing 2-3.5 attempts per
//! operation on small trees with 30-70% completing speculatively, and
//! nearly all speculative on large trees.

use super::{tree_spec, Run};
use crate::metrics::Json;
use crate::report::{f2, f3, Table};
use crate::run_tree_bench_avg;
use crate::size_sweep;
use crate::sweep::Cell;
use elision_core::{LockKind, SchemeKind};
use elision_structures::OpMix;

pub(super) fn run(run: &mut Run) {
    let args = &run.args;
    let sizes = size_sweep(args.quick, args.full);
    let ops = if args.quick { 300 } else { 1000 };
    let (fault_plan, htm_faults) = run.faults();

    println!("== Figure 2: impact of aborts under plain HLE ==");
    println!("{} threads, 10% insert / 10% delete / 80% lookup", args.threads);
    println!("chaos profile: {}\n", args.chaos);

    let mut cells = Vec::new();
    for &size in &sizes {
        for lock in [LockKind::Ttas, LockKind::Mcs] {
            cells.push(Cell::new(format!("{size}/{}", lock.label()), args.threads, move || {
                let mut spec =
                    tree_spec(SchemeKind::Hle, lock, args.threads, size, OpMix::MODERATE, ops);
                spec.faults = fault_plan;
                spec.htm = spec.htm.with_faults(htm_faults);
                let hle = run_tree_bench_avg(&spec, args.seeds);
                let mut std_spec = spec;
                std_spec.scheme = SchemeKind::Standard;
                let std = run_tree_bench_avg(&std_spec, args.seeds);
                (size, lock, hle, std)
            }));
        }
    }
    let results = run.sweep(cells);

    let mut table = Table::new(&[
        "size",
        "lock",
        "speedup-vs-std",
        "attempts/op",
        "frac-nonspec",
        "frac-arrive-held",
    ]);
    for (size, lock, hle, std) in &results {
        table.row(vec![
            size.to_string(),
            lock.label().to_string(),
            f2(hle.throughput / std.throughput),
            f2(hle.counters.attempts_per_op()),
            f3(hle.counters.frac_nonspeculative()),
            f3(hle.counters.frac_arrived_lock_held()),
        ]);
        run.report.push_result(
            vec![
                ("size", Json::Uint(*size as u64)),
                ("lock", Json::Str(lock.label().to_string())),
                ("speedup_vs_std", Json::Float(hle.throughput / std.throughput)),
                ("frac_arrived_lock_held", Json::Float(hle.counters.frac_arrived_lock_held())),
            ],
            hle,
        );
    }
    run.table(&table, Some("fig2_lemming"));

    println!(
        "\nPaper shape check: MCS frac-nonspec ~1 at every size; TTAS needs \
         2-3.5 attempts/op on small trees but keeps 30-70% speculative, \
         approaching 0 nonspec on large trees."
    );
}
