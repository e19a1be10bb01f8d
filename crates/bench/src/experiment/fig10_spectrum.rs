//! Figure 10 — the software schemes across the full workload spectrum.
//!
//! For each contention level and tree size (8 threads), reports the
//! throughput of HLE-retries, HLE-SCM, opt SLR and SLR-SCM normalized to
//! the *plain HLE version of the same lock* (the paper's y=1 baseline).
//!
//! Paper expectation: on TTAS the software schemes win up to ~3.5x under
//! contention (HLE-SCM ahead on small trees) and ~1x on lookups-only; on
//! MCS everything wins 2-10x across the board because plain HLE-MCS is
//! fully serialized — and HLE-retries helps TTAS but *not* MCS.

use super::{scheme_table, slug, tree_spec, Run, SOFTWARE_SCHEMES};
use crate::metrics::Json;
use crate::report::{f2, ratio};
use crate::sweep::Cell;
use crate::{run_tree_bench_avg, size_sweep};
use elision_core::{LockKind, SchemeKind};
use elision_structures::OpMix;

pub(super) fn run(run: &mut Run) {
    let args = &run.args;
    let sizes = size_sweep(args.quick, args.full);
    let ops = if args.quick { 300 } else { 1000 };

    println!("== Figure 10: software schemes vs the HLE baseline of each lock ==");
    println!("{} threads; baseline y=1 is plain HLE with the same lock\n", args.threads);

    // Each (lock, mix, size) row is a chunk of 1 + SOFTWARE_SCHEMES.len() cells:
    // the plain-HLE baseline followed by the four software schemes.
    let mut cells = Vec::new();
    for lock in [LockKind::Ttas, LockKind::Mcs] {
        for (label, mix) in OpMix::LEVELS {
            for &size in &sizes {
                let mut specs = vec![SchemeKind::Hle];
                specs.extend(SOFTWARE_SCHEMES);
                for scheme in specs {
                    cells.push(Cell::new(
                        format!("{}/{label}/{size}/{}", lock.label(), scheme.label()),
                        args.threads,
                        move || {
                            let spec = tree_spec(scheme, lock, args.threads, size, mix, ops);
                            run_tree_bench_avg(&spec, args.seeds)
                        },
                    ));
                }
            }
        }
    }
    let results = run.sweep(cells);
    let mut chunks = results.chunks_exact(1 + SOFTWARE_SCHEMES.len());
    for lock in [LockKind::Ttas, LockKind::Mcs] {
        for (label, _mix) in OpMix::LEVELS {
            println!("--- {} lock, {label} ---", lock.label());
            let mut table = scheme_table("size", &SOFTWARE_SCHEMES);
            for &size in &sizes {
                let row = chunks.next().expect("one chunk per row");
                let hle = &row[0];
                let mut cells = vec![size.to_string()];
                for (scheme, r) in SOFTWARE_SCHEMES.iter().zip(&row[1..]) {
                    cells.push(f2(ratio(r.throughput, hle.throughput)));
                    run.report.push_result(
                        vec![
                            ("lock", Json::Str(lock.label().to_string())),
                            ("workload", Json::Str(label.to_string())),
                            ("size", Json::Uint(size as u64)),
                            ("scheme", Json::Str(scheme.label().to_string())),
                            ("speedup_vs_hle", Json::Float(ratio(r.throughput, hle.throughput))),
                        ],
                        r,
                    );
                }
                table.row(cells);
            }
            let csv = format!("fig10_{}_{}", lock.label().to_lowercase(), slug(label));
            run.table(&table, Some(&csv));
            println!();
        }
    }
    println!(
        "Paper shape check: MCS rows sit well above 1 everywhere (2-10x); TTAS rows \
         are ~1 on lookups-only and rise with contention (up to ~3.5x), with \
         HLE-SCM strongest on small trees."
    );
}
