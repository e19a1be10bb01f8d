//! The subscription log follows the memory, not a scheme flag: every
//! speculative attempt logs its subscription to the main lock whenever
//! the memory carries a sanitizer log, whatever the scheme's subscription
//! style.

use elision_analysis::driver::{analyze, Checks};
use elision_analysis::LintId;
use elision_core::{make_scheme, LazyMode, LockKind, SchemeConfig, SchemeKind};
use elision_htm::{harness, HtmConfig, MemoryBuilder};
use std::sync::Arc;

/// A paper-configuration run of each speculative scheme, of SCM with true
/// nesting and of each lazy mode never trips `slr-unsubscribed-commit`.
#[test]
fn paper_config_runs_log_every_subscription() {
    let paper = SchemeConfig::paper();
    let mut cells: Vec<(SchemeKind, SchemeConfig)> = [
        SchemeKind::Hle,
        SchemeKind::HleRetries,
        SchemeKind::HleScm,
        SchemeKind::OptSlr,
        SchemeKind::SlrScm,
        SchemeKind::GroupedScm,
    ]
    .into_iter()
    .map(|kind| (kind, paper))
    .collect();
    cells.push((SchemeKind::HleScm, SchemeConfig { scm_true_nesting: true, ..paper }));
    for mode in [LazyMode::Unfenced, LazyMode::HardwareCommit] {
        for kind in [SchemeKind::OptSlr, SchemeKind::SlrScm] {
            cells.push((kind, paper.with_lazy_mode(mode)));
        }
    }
    let threads = 3;
    for (kind, cfg) in cells {
        let mut b = MemoryBuilder::new();
        b.enable_sanitizer();
        let scheme = make_scheme(kind, LockKind::Ttas, cfg, &mut b, threads);
        let x = b.alloc_isolated(0);
        let mem = Arc::new(b.freeze(threads));
        let runner = Arc::clone(&scheme);
        let htm = HtmConfig::deterministic();
        let (speculative, makespan) =
            harness::run_arc(threads, 0, htm, 3, Arc::clone(&mem), move |s| {
                for _ in 0..20 {
                    runner.execute(s, |s| {
                        let v = s.load(x)?;
                        s.work(5)?;
                        s.store(x, v + 1)
                    });
                }
                s.counters.speculative
            });
        assert!(speculative.iter().sum::<u64>() > 0, "{kind} {cfg:?}: nothing committed");
        let findings = analyze(&Checks::for_scheme(&scheme, threads), &mem, makespan);
        assert!(
            findings.iter().all(|f| f.lint != LintId::SlrUnsubscribedCommit),
            "{kind} {cfg:?}: {findings:#?}"
        );
    }
}
