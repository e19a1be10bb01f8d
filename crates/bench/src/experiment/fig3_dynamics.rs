//! Figure 3 — serialization dynamics over time under plain HLE.
//!
//! Runs the size-64 tree at 8 threads (10/10/80 mix) under HLE with the
//! MCS and TTAS locks, splits the execution into ~200 logical-time slots
//! (the paper's 1 ms slots), and prints per-slot normalized throughput
//! and per-slot fraction of non-speculative completions.
//!
//! Paper expectation: MCS runs every slot almost fully non-speculatively;
//! TTAS is mostly speculative with serialization bursts in which
//! throughput drops by up to ~2.5x.

use super::{tree_spec, Run};
use crate::metrics::{cause_histogram_json, Json};
use crate::report::{f2, f3, Table};
use crate::run_tree_bench;
use crate::sweep::Cell;
use elision_core::{LockKind, SchemeKind};
use elision_structures::OpMix;

const TREE_SIZE: usize = 64;
const SLOTS: u64 = 60;

pub(super) fn run(run: &mut Run) {
    let args = &run.args;
    let ops = if args.quick { 500 } else { 2000 };

    println!("== Figure 3: serialization dynamics over time (HLE, size-64 tree) ==\n");
    let mut cells = Vec::new();
    for lock in [LockKind::Mcs, LockKind::Ttas] {
        cells.push(Cell::new(lock.label(), args.threads, move || {
            let mut spec =
                tree_spec(SchemeKind::Hle, lock, args.threads, TREE_SIZE, OpMix::MODERATE, ops);
            // Calibrate the slot width from an untimed first run.
            let calib = run_tree_bench(&spec);
            spec.slot_cycles = Some((calib.makespan / SLOTS).max(1));
            (lock, run_tree_bench(&spec))
        }));
    }
    for (lock, r) in &run.sweep(cells) {
        let slots = r.slots.as_ref().expect("slot series requested");
        let causes = r.cause_slots.as_ref().expect("cause slot series requested");

        println!("--- {} lock ---", lock.label());
        let mut table = Table::new(&["slot", "norm-throughput", "frac-nonspec"]);
        for i in 0..slots.len() {
            table.row(vec![
                i.to_string(),
                f2(slots.normalized_throughput[i]),
                f3(slots.frac_nonspec[i]),
            ]);
            run.report.push_row(Json::obj(vec![
                ("lock", Json::Str(lock.label().to_string())),
                ("slot", Json::Uint(i as u64)),
                ("norm_throughput", Json::Float(slots.normalized_throughput[i])),
                ("frac_nonspeculative", Json::Float(slots.frac_nonspec[i])),
                (
                    "abort_causes",
                    cause_histogram_json(&causes.slots.get(i).copied().unwrap_or_default()),
                ),
            ]));
        }
        run.table(&table, Some(&format!("fig3_dynamics_{}", lock.label().to_lowercase())));
        let avg_nonspec: f64 = slots.frac_nonspec.iter().sum::<f64>() / slots.len().max(1) as f64;
        println!(
            "worst throughput dip: {:.2}x below average; mean per-slot frac-nonspec: {:.3}\n",
            slots.worst_slowdown(),
            avg_nonspec
        );
    }
    println!(
        "Paper shape check: MCS per-slot frac-nonspec ~1 throughout; TTAS mostly \
         speculative with bursts of serialization and throughput dips up to ~2.5x."
    );
}
