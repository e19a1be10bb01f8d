//! perf_gate — the deterministic hot-path sweep.
//!
//! Runs the standard scheme × lock sweep (Standard/HLE/HLE+SCM/Opt-SLR
//! over TTAS and MCS) through the sweep orchestrator and writes
//! `BENCH_SIM_HOTPATH.json` (`--metrics DIR`) plus the stdout table: the
//! per-cell simulated throughput, makespan, attempts and abort causes. It
//! is a pure function of the specs, byte-identical at any `--jobs` value
//! (CI diffs a `--jobs 4` run against `--jobs 1`) and pinned by an FNV
//! golden in `tests/artifact_goldens.rs`. Per-cell host wall times go to
//! `TIMING_perf_gate.json` like every other experiment's.
//!
//! Host speed is not measured here: `scripts/simbench_pair.sh BASE_REV`
//! runs simbench on a base revision and on the working tree on one host
//! and compares them (see EXPERIMENTS.md).

use super::{tree_spec, Run};
use crate::metrics::Json;
use crate::report::{f2, Table};
use crate::run_tree_bench_avg;
use crate::sweep::Cell;
use elision_core::{LockKind, SchemeKind};
use elision_structures::OpMix;

pub(super) fn run(run: &mut Run) {
    let args = &run.args;
    let ops = if args.quick { 150 } else { 400 };
    let size = 512;

    println!("== perf gate: simulated ops/sec over the scheme × lock sweep ==");
    println!("{} threads, size {size}, {ops} ops/thread, {} seed(s)\n", args.threads, args.seeds);

    let schemes = [SchemeKind::Standard, SchemeKind::Hle, SchemeKind::HleScm, SchemeKind::OptSlr];
    let locks = [LockKind::Ttas, LockKind::Mcs];
    let mut cells = Vec::new();
    for &scheme in &schemes {
        for &lock in &locks {
            cells.push(Cell::new(format!("{scheme}/{}", lock.label()), args.threads, move || {
                let spec = tree_spec(scheme, lock, args.threads, size, OpMix::MODERATE, ops);
                (scheme, lock, run_tree_bench_avg(&spec, args.seeds))
            }));
        }
    }
    let results = run.sweep(cells);

    let mut table = Table::new(&["scheme", "lock", "sim-throughput", "attempts/op"]);
    for (scheme, lock, r) in &results {
        table.row(vec![
            scheme.to_string(),
            lock.label().to_string(),
            f2(r.throughput),
            f2(r.counters.attempts_per_op()),
        ]);
        run.report.push_result(
            vec![
                ("scheme", Json::Str(scheme.to_string())),
                ("lock", Json::Str(lock.label().to_string())),
                ("makespan", Json::Uint(r.makespan)),
            ],
            r,
        );
    }
    run.table(&table, Some("perf_gate"));
}
