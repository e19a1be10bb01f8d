//! Figure 11 — STAMP applications under every scheme (lower is better).
//!
//! For each of the nine STAMP workloads (bayes excluded, as in the
//! paper), runs the six schemes at 8 threads over the TTAS and MCS locks
//! and reports simulated runtime normalized to the standard
//! (non-speculative) version of the same lock.
//!
//! Paper expectation: plain HLE gains nothing on MCS but up to ~2x on
//! TTAS (intruder); HLE-SCM rescues MCS (up to ~2.5x); opt SLR is the
//! overall best on most tests (up to ~4x over standard); HLE-retries
//! tracks SLR on TTAS but collapses to ~standard on MCS for genome, yada
//! and vacation; SLR-SCM only helps vacation-low (~15%).

use super::{scheme_table, Run};
use crate::metrics::Json;
use crate::report::{f3, ratio};
use crate::sweep::Cell;
use elision_core::{LockKind, SchemeKind};
use elision_htm::HtmConfig;
use elision_stamp::{run_kernel, KernelKind, StampParams};

pub(super) fn run(run: &mut Run) {
    let args = &run.args;
    let params = if args.quick { StampParams::quick() } else { StampParams::full() };

    println!("== Figure 11: STAMP normalized runtime (lower is better) ==");
    println!("{} threads; y=1 is the standard version of the same lock\n", args.threads);

    // One cell per (lock, kernel, scheme); the cell averages the kernel's
    // makespan over the seeds and the post-pass normalizes each chunk to
    // its Standard column.
    let mut cells = Vec::new();
    for lock in [LockKind::Ttas, LockKind::Mcs] {
        for kernel in KernelKind::ALL {
            for scheme in SchemeKind::ALL {
                let params = &params;
                cells.push(Cell::new(
                    format!("{}/{}/{}", lock.label(), kernel.label(), scheme.label()),
                    args.threads,
                    move || {
                        let mut total = 0u64;
                        for k in 0..args.seeds {
                            let mut p = *params;
                            p.seed = params.seed.wrapping_add(k * 7919);
                            let run = run_kernel(
                                kernel,
                                scheme,
                                lock,
                                args.threads,
                                &p,
                                0,
                                HtmConfig::haswell(),
                            );
                            total += run.makespan;
                        }
                        total as f64 / args.seeds as f64
                    },
                ));
            }
        }
    }
    let results = run.sweep(cells);
    let mut chunks = results.chunks_exact(SchemeKind::ALL.len());
    for lock in [LockKind::Ttas, LockKind::Mcs] {
        println!("--- {} lock ---", lock.label());
        let mut table = scheme_table("test", &SchemeKind::ALL);
        for kernel in KernelKind::ALL {
            let times = chunks.next().expect("one chunk per kernel");
            let baseline = SchemeKind::ALL
                .iter()
                .zip(times)
                .find(|(s, _)| **s == SchemeKind::Standard)
                .map(|(_, t)| *t)
                .expect("Standard scheme in every chunk");
            let mut cells = vec![kernel.label().to_string()];
            for (scheme, t) in SchemeKind::ALL.iter().zip(times) {
                cells.push(f3(ratio(*t, baseline)));
                run.report.push_row(Json::obj(vec![
                    ("lock", Json::Str(lock.label().to_string())),
                    ("test", Json::Str(kernel.label().to_string())),
                    ("scheme", Json::Str(scheme.label().to_string())),
                    ("mean_makespan_cycles", Json::Float(*t)),
                    ("norm_runtime", Json::Float(ratio(*t, baseline))),
                ]));
            }
            table.row(cells);
        }
        run.table(&table, Some(&format!("fig11_stamp_{}", lock.label().to_lowercase())));
        println!();
    }
    println!(
        "Paper shape check: HLE column ~1 for MCS but <1 for TTAS on several tests; \
         HLE-SCM well below 1 on MCS; opt SLR lowest on most rows for both locks."
    );
}
