//! §7.1's second data-structure benchmark: the hash table.
//!
//! The paper reports that hash-table results are comparable to the
//! red-black tree, "zooming in" on the short-transaction end of the
//! spectrum. This experiment reproduces that comparison: all schemes over
//! both locks at the three contention levels, normalized to plain HLE of
//! the same lock.

use super::{scheme_table, tree_spec, Run, SOFTWARE_SCHEMES};
use crate::metrics::Json;
use crate::report::{f2, ratio};
use crate::sweep::Cell;
use crate::{run_tree_bench, TreeBenchSpec};
use elision_core::{LockKind, SchemeKind};
use elision_htm::HtmConfig;
use elision_structures::{OpMix, StructureKind};

pub(super) fn run(run: &mut Run) {
    let args = &run.args;
    let size = if args.quick { 128 } else { 512 };
    let ops = if args.quick { 300 } else { 1000 };
    let (fault_plan, htm_faults) = run.faults();

    println!("== Hash-table benchmark (short transactions; §7.1) ==");
    println!(
        "{} threads, {size}-entry table; baseline y=1 is plain HLE of the same lock\n",
        args.threads
    );

    // Each (lock, mix) row is a chunk: plain HLE first, then the four
    // software schemes normalized to it.
    let mut cells = Vec::new();
    for lock in [LockKind::Ttas, LockKind::Mcs] {
        for (label, mix) in OpMix::LEVELS {
            let mut schemes = vec![SchemeKind::Hle];
            schemes.extend(SOFTWARE_SCHEMES);
            for scheme in schemes {
                cells.push(Cell::new(
                    format!("{}/{label}/{}", lock.label(), scheme.label()),
                    args.threads,
                    move || {
                        run_tree_bench(&TreeBenchSpec {
                            structure: StructureKind::HashTable,
                            htm: HtmConfig::haswell().with_faults(htm_faults),
                            faults: fault_plan,
                            ..tree_spec(scheme, lock, args.threads, size, mix, ops)
                        })
                    },
                ));
            }
        }
    }
    let results = run.sweep(cells);
    let mut chunks = results.chunks_exact(1 + SOFTWARE_SCHEMES.len());
    for lock in [LockKind::Ttas, LockKind::Mcs] {
        println!("--- {} lock ---", lock.label());
        let mut table = scheme_table("mix", &SOFTWARE_SCHEMES);
        for (label, _mix) in OpMix::LEVELS {
            let row = chunks.next().expect("one chunk per mix");
            let hle = &row[0];
            let mut cells = vec![label.to_string()];
            for (scheme, r) in SOFTWARE_SCHEMES.iter().zip(&row[1..]) {
                cells.push(f2(ratio(r.throughput, hle.throughput)));
                run.report.push_result(
                    vec![
                        ("lock", Json::Str(lock.label().to_string())),
                        ("mix", Json::Str(label.to_string())),
                        ("scheme", Json::Str(scheme.label().to_string())),
                        ("speedup_vs_hle", Json::Float(ratio(r.throughput, hle.throughput))),
                    ],
                    r,
                );
            }
            table.row(cells);
        }
        run.table(&table, Some(&format!("hashtable_{}", lock.label().to_lowercase())));
        println!();
    }
    println!(
        "Paper shape check: same ordering as the small-tree (short transaction) end \
         of Figure 10 — HLE-SCM strongest among the schemes, especially on MCS."
    );
}
