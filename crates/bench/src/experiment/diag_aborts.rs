//! Diagnostic — abort breakdown by *classified cause* for every
//! scheme/lock cell on one tree configuration. Not a paper figure; used
//! when analysing why a scheme serializes (data conflict vs lock-word
//! conflict vs capacity vs explicit vs injected).
//!
//! Doubles as an end-to-end cross-check of the abort-cause taxonomy: for
//! every cell the classified cause counts must sum exactly to the number
//! of aborted attempts the scheme counters and the raw HTM statistics
//! both report. The experiment panics if the accounting ever disagrees.

use super::{tree_spec, Run};
use crate::metrics::Json;
use crate::report::{f2, f3, Table};
use crate::run_tree_bench;
use crate::sweep::Cell;
use elision_core::{LockKind, SchemeKind};
use elision_sim::AbortCause;
use elision_structures::OpMix;

pub(super) fn run(run: &mut Run) {
    let args = &run.args;
    let size = if args.quick { 128 } else { 2048 };
    let ops = if args.quick { 300 } else { 1000 };

    println!(
        "== Diagnostic: abort breakdown by cause ({size}-node tree, moderate contention) ==\n"
    );
    let mut cells = Vec::new();
    for lock in [LockKind::Ttas, LockKind::Mcs] {
        for scheme in SchemeKind::ALL {
            cells.push(Cell::new(
                format!("{}/{}", lock.label(), scheme.label()),
                args.threads,
                move || {
                    run_tree_bench(&tree_spec(
                        scheme,
                        lock,
                        args.threads,
                        size,
                        OpMix::MODERATE,
                        ops,
                    ))
                },
            ));
        }
    }
    let results = run.sweep(cells);

    let mut headers = vec!["lock", "scheme", "frac-nonspec", "attempts/op", "aborted"];
    headers.extend(AbortCause::ALL.iter().map(|c| c.label()));
    let mut table = Table::new(&headers);
    let mut next = results.iter();
    for lock in [LockKind::Ttas, LockKind::Mcs] {
        for scheme in SchemeKind::ALL {
            let r = next.next().expect("one result per cell");

            // Taxonomy cross-check: every aborted attempt must carry
            // exactly one classified cause, and the scheme-level abort
            // counter must agree with the raw HTM abort statistics.
            let causes = r.counters.causes;
            assert_eq!(
                causes.total(),
                r.counters.aborted,
                "{lock}/{scheme}: cause counts must sum to aborted attempts"
            );
            assert_eq!(
                r.counters.aborted,
                r.txn_stats.aborts(),
                "{lock}/{scheme}: scheme abort count must match HTM abort count"
            );

            let mut row = vec![
                lock.label().to_string(),
                scheme.label().to_string(),
                f3(r.counters.frac_nonspeculative()),
                f2(r.counters.attempts_per_op()),
                r.counters.aborted.to_string(),
            ];
            row.extend(AbortCause::ALL.iter().map(|&c| causes.get(c).to_string()));
            table.row(row);
            run.report.push_result(
                vec![
                    ("lock", Json::Str(lock.label().to_string())),
                    ("scheme", Json::Str(scheme.label().to_string())),
                ],
                r,
            );
        }
    }
    run.table(&table, Some("diag_aborts"));
    println!("\ncause accounting verified: per-cell cause counts sum to aborted attempts");
}
