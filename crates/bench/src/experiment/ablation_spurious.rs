//! Ablation — spurious aborts trigger the fair-lock lemming effect
//! (paper §3.1 / §7.1: "even in a read-only workload, the MCS lock
//! experiences a severe lemming effect due to spurious aborts").
//!
//! Sweeps the injected spurious-abort rate on a lookups-only workload and
//! reports the fraction of non-speculative completions for HLE and
//! HLE-SCM over the MCS lock. With zero spurious aborts a read-only
//! workload never aborts; even a tiny rate collapses plain HLE-MCS.

use super::{tree_spec, Run};
use crate::metrics::Json;
use crate::report::{f2, f3, ratio, Table};
use crate::sweep::Cell;
use elision_core::{LockKind, SchemeKind};
use elision_htm::HtmConfig;
use elision_structures::OpMix;

pub(super) fn run(run: &mut Run) {
    let args = &run.args;
    let ops = if args.quick { 300 } else { 1000 };
    let rates = [0.0, 0.0005, 0.002, 0.01, 0.05];
    let schemes = [SchemeKind::Hle, SchemeKind::HleScm, SchemeKind::Standard];

    println!("== Ablation: spurious-abort rate vs the MCS lemming effect ==");
    println!("{} threads, 512-node tree, lookups only\n", args.threads);

    let mut cells = Vec::new();
    for &rate in &rates {
        for scheme in schemes {
            cells.push(Cell::new(format!("{rate}/{}", scheme.label()), args.threads, move || {
                let mut spec =
                    tree_spec(scheme, LockKind::Mcs, args.threads, 512, OpMix::LOOKUP_ONLY, ops);
                spec.htm = HtmConfig::haswell().with_spurious(rate, 0.0);
                crate::run_tree_bench_avg(&spec, args.seeds)
            }));
        }
    }
    let results = run.sweep(cells);

    let mut table = Table::new(&[
        "spurious/txn",
        "HLE frac-nonspec",
        "HLE-SCM frac-nonspec",
        "HLE speedup-vs-std",
        "HLE-SCM speedup-vs-std",
    ]);
    let mut chunks = results.chunks_exact(schemes.len());
    for &rate in &rates {
        let chunk = chunks.next().expect("one chunk per rate");
        let (hle, scm, std) = (&chunk[0], &chunk[1], &chunk[2]);
        table.row(vec![
            format!("{rate}"),
            f3(hle.counters.frac_nonspeculative()),
            f3(scm.counters.frac_nonspeculative()),
            f2(ratio(hle.throughput, std.throughput)),
            f2(ratio(scm.throughput, std.throughput)),
        ]);
        for (scheme, r) in [("HLE", hle), ("HLE-SCM", scm)] {
            run.report.push_result(
                vec![
                    ("spurious_rate", Json::Float(rate)),
                    ("scheme", Json::Str(scheme.to_string())),
                    ("speedup_vs_std", Json::Float(ratio(r.throughput, std.throughput))),
                ],
                r,
            );
        }
    }
    run.table(&table, Some("ablation_spurious"));
    println!(
        "\nShape check: HLE-MCS frac-nonspec jumps toward 1 as soon as the rate is \
         nonzero; HLE-SCM stays near 0 and keeps its speedup."
    );
}
