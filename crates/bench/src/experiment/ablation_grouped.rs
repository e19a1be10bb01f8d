//! Ablation — the grouped-SCM extension (paper §6 remark / §8 future
//! work): partition conflicting threads by the cache line the abort
//! occurred on, one auxiliary lock per group, so threads conflicting on
//! unrelated data do not serialize with each other.
//!
//! The sweep covers multi-hot-spot workloads under one global lock,
//! varying the number of independent hot words, the thread count and the
//! critical-section length. The measured pattern: grouping wins when
//! several well-separated conflict groups are simultaneously active and
//! critical sections are long (the serializing path is the bottleneck),
//! and can *lose* when few groups are active — the global serialization
//! of classic SCM then usefully throttles wasted speculation, which is
//! exactly the trade-off the paper's remark anticipates.

use super::Run;
use crate::metrics::Json;
use crate::report::{f2, Table};
use crate::sweep::Cell;
use elision_core::{make_grouped_scm, make_scheme, LockKind, SchemeConfig, SchemeKind};
use elision_htm::{harness, HtmConfig, MemoryBuilder, VarId};

fn run_hot_words(grouped: bool, hot_words: usize, threads: usize, work: u64, ops: u64) -> u64 {
    let mut b = MemoryBuilder::new();
    let hot: Vec<VarId> = (0..hot_words).map(|_| b.alloc_isolated(0)).collect();
    let scheme = if grouped {
        make_grouped_scm(LockKind::Ttas, 16, SchemeConfig::paper(), &mut b, threads)
    } else {
        make_scheme(SchemeKind::HleScm, LockKind::Ttas, SchemeConfig::paper(), &mut b, threads)
    };
    let mem = b.freeze(threads);
    let hot2 = hot.clone();
    let (_, mem, makespan) =
        harness::run(threads, 0, HtmConfig::deterministic(), 3, mem, move |s| {
            let target = hot2[s.tid() % hot2.len()];
            for _ in 0..ops {
                scheme.execute(s, |s| {
                    let v = s.load(target)?;
                    s.work(work)?;
                    s.store(target, v + 1)
                });
            }
        });
    let total: u64 = hot.iter().map(|&h| mem.read_direct(h)).sum();
    assert_eq!(total, threads as u64 * ops, "lost updates");
    makespan
}

pub(super) fn run(run: &mut Run) {
    let ops = if run.args.quick { 60 } else { 150 };

    println!("== Ablation: grouped SCM (conflict-line-aware auxiliary locks) ==");
    println!("speedup of grouped over single-aux SCM; >1 means grouping wins\n");

    const CONFIGS: [(usize, usize, u64); 7] =
        [(1, 8, 40), (2, 6, 80), (2, 8, 40), (4, 8, 40), (4, 8, 80), (4, 12, 60), (8, 16, 60)];
    let mut cells = Vec::new();
    for (hw, thr, work) in CONFIGS {
        for grouped in [false, true] {
            let kind = if grouped { "grouped" } else { "single" };
            cells.push(Cell::new(format!("{hw}w/{thr}t/{work}c/{kind}"), thr, move || {
                run_hot_words(grouped, hw, thr, work, ops)
            }));
        }
    }
    let results = run.sweep(cells);

    let mut table =
        Table::new(&["hot words", "threads", "cs work", "single-aux", "grouped", "speedup"]);
    let mut pairs = results.chunks_exact(2);
    for (hw, thr, work) in CONFIGS {
        let pair = pairs.next().expect("one single/grouped pair per config");
        let (s, g) = (pair[0], pair[1]);
        table.row(vec![
            hw.to_string(),
            thr.to_string(),
            work.to_string(),
            s.to_string(),
            g.to_string(),
            f2(s as f64 / g as f64),
        ]);
        run.report.push_row(Json::obj(vec![
            ("hot_words", Json::Uint(hw as u64)),
            ("threads", Json::Uint(thr as u64)),
            ("cs_work", Json::Uint(work)),
            ("single_aux_makespan", Json::Uint(s)),
            ("grouped_makespan", Json::Uint(g)),
            ("speedup", Json::Float(s as f64 / g as f64)),
        ]));
    }
    run.table(&table, Some("ablation_grouped"));
    println!(
        "\nShape check: speedup > 1 with many active groups and long critical \
         sections; <= 1 when conflicts collapse into one or two groups."
    );
}
