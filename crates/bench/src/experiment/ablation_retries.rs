//! Ablation — the `MAX_RETRIES` budget (paper §7 "Conflict management
//! tuning": the paper fixes 10 and reports other tunings only degrade
//! performance).
//!
//! Sweeps the retry budget for HLE-retries, opt SLR and HLE-SCM on the
//! 128-node moderate-contention tree and reports throughput normalized to
//! the paper's budget of 10.

use super::ablation_scm::run_custom;
use super::Run;
use crate::metrics::Json;
use crate::report::{f2, ratio, Table};
use crate::sweep::Cell;
use elision_core::{make_scheme_with_aux, LockKind, SchemeConfig, SchemeKind};

fn run_with_budget(
    threads: usize,
    scheme: SchemeKind,
    lock: LockKind,
    budget: u32,
    ops: u64,
) -> f64 {
    let cfg = SchemeConfig { max_retries: budget, ..SchemeConfig::paper() };
    let build = |b: &mut _, t| make_scheme_with_aux(scheme, lock, LockKind::Mcs, cfg, b, t);
    run_custom(threads, build, ops).0
}

pub(super) fn run(run: &mut Run) {
    let threads = run.args.threads;
    let ops = if run.args.quick { 300 } else { 1000 };
    let budgets = [1u32, 2, 5, 10, 20, 50];

    println!("== Ablation: MAX_RETRIES budget (128-node tree, moderate contention) ==");
    println!("values normalized to the paper's budget of 10\n");

    let schemes = [SchemeKind::HleRetries, SchemeKind::OptSlr, SchemeKind::HleScm];
    // Per lock: one baseline (budget 10) cell per scheme, then the full
    // budget × scheme grid.
    let mut cells = Vec::new();
    for lock in [LockKind::Ttas, LockKind::Mcs] {
        for &scheme in &schemes {
            cells.push(Cell::new(
                format!("{}/base/{}", lock.label(), scheme.label()),
                threads,
                move || run_with_budget(threads, scheme, lock, 10, ops),
            ));
        }
        for &budget in &budgets {
            for &scheme in &schemes {
                cells.push(Cell::new(
                    format!("{}/{budget}/{}", lock.label(), scheme.label()),
                    threads,
                    move || run_with_budget(threads, scheme, lock, budget, ops),
                ));
            }
        }
    }
    let results = run.sweep(cells);
    let mut locks_chunks = results.chunks_exact(schemes.len() * (1 + budgets.len()));
    for lock in [LockKind::Ttas, LockKind::Mcs] {
        let chunk = locks_chunks.next().expect("one chunk per lock");
        let (baseline, grid) = chunk.split_at(schemes.len());
        println!("--- {} main lock ---", lock.label());
        let mut table = Table::new(&["budget", "HLE-retries", "opt SLR", "HLE-SCM"]);
        let mut grid = grid.iter();
        for &budget in &budgets {
            let mut cells = vec![budget.to_string()];
            for (i, &scheme) in schemes.iter().enumerate() {
                let thr = *grid.next().expect("one result per budget/scheme");
                cells.push(f2(ratio(thr, baseline[i])));
                run.report.push_row(Json::obj(vec![
                    ("lock", Json::Str(lock.label().to_string())),
                    ("budget", Json::Uint(u64::from(budget))),
                    ("scheme", Json::Str(scheme.label().to_string())),
                    ("throughput", Json::Float(thr)),
                    ("norm_throughput", Json::Float(ratio(thr, baseline[i]))),
                ]));
            }
            table.row(cells);
        }
        run.table(&table, Some(&format!("ablation_retries_{}", lock.label().to_lowercase())));
        println!();
    }
    println!("Shape check: performance is flat-ish around 10 and degrades at budget 1.");
}
