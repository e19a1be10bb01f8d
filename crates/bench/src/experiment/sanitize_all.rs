//! Run the opacity/race sanitizer and lock-discipline lints over the
//! whole scheme × lock matrix, under the default configuration and
//! under injected chaos, then verify the sanitizer still *catches*
//! violations by replaying the seeded known-bad schedules.
//!
//! Exits nonzero (via assertion) if any clean cell produces a finding,
//! any cell's counters fail to add up, or a seeded violation goes
//! undetected. Findings are printed with full access provenance and
//! serialized into the metrics JSON (`--metrics <dir>`).

use super::{finding_json, Run};
use crate::metrics::{Json, MetricsReport};
use crate::report::Table;
use crate::sweep::Cell;
use crate::ChaosProfile;
use elision_analysis::driver::{sanitize_run, SanReport, SanitizeSpec};
use elision_analysis::testkit::{broken_slr_schedule, double_release_schedule};
use elision_analysis::{Finding, LintId};
use elision_core::{LockKind, SchemeKind};
use elision_htm::HtmConfig;

fn cell_row(scheme: SchemeKind, lock: LockKind, profile: &str, level: u32, r: &SanReport) -> Json {
    Json::obj(vec![
        ("scheme", Json::Str(scheme.label().to_string())),
        ("lock", Json::Str(lock.label().to_string())),
        ("profile", Json::Str(profile.to_string())),
        ("level", Json::Uint(u64::from(level))),
        ("san_events", Json::Uint(r.san_events as u64)),
        ("trace_events", Json::Uint(r.trace_events as u64)),
        ("makespan", Json::Uint(r.makespan)),
        ("hot_total", Json::Uint(r.hot_total)),
        ("expected_total", Json::Uint(r.expected_total)),
        ("findings", Json::Arr(r.findings.iter().map(finding_json).collect())),
    ])
}

/// Post-pass over one sanitized cell: print, tabulate, assert clean.
fn check_cell(r: &SanReport, what: &str, table: &mut Table) {
    table.row(vec![
        what.to_string(),
        r.san_events.to_string(),
        r.trace_events.to_string(),
        r.findings.len().to_string(),
        if r.counters_ok() { "ok".to_string() } else { "MISMATCH".to_string() },
    ]);
    for f in &r.findings {
        println!("  FINDING {what}: {f}");
    }
    assert!(
        r.counters_ok(),
        "{what}: counters corrupted (hot {} / targets {} / expected {})",
        r.hot_total,
        r.target_sum,
        r.expected_total
    );
    assert!(r.findings.is_empty(), "{what}: sanitizer reported {} finding(s)", r.findings.len());
}

/// A seeded schedule must trip every expected lint, with provenance.
fn check_seeded(name: &str, findings: &[Finding], expected: &[LintId], report: &mut MetricsReport) {
    for lint in expected {
        let hit = findings.iter().find(|f| f.lint == *lint);
        let hit = hit.unwrap_or_else(|| {
            panic!("seeded schedule {name}: expected {lint} was not detected: {findings:#?}")
        });
        assert!(
            !hit.sites.is_empty(),
            "seeded schedule {name}: {lint} finding carries no access provenance"
        );
        println!("  seeded {name}: caught {hit}");
    }
    report.push_row(Json::obj(vec![
        ("seeded", Json::Str(name.to_string())),
        ("expected", Json::Arr(expected.iter().map(|l| Json::Str(l.to_string())).collect())),
        ("findings", Json::Arr(findings.iter().map(finding_json).collect())),
    ]));
}

pub(super) fn run(run: &mut Run) {
    let args = &run.args;
    let threads = args.threads.clamp(2, 4);
    let ops = if args.quick { 16 } else { 32 };

    let schemes = SchemeKind::ALL;
    let locks: &[LockKind] = if args.quick {
        &[LockKind::Ttas, LockKind::Mcs]
    } else {
        &[LockKind::Ttas, LockKind::Mcs, LockKind::Ticket, LockKind::Clh]
    };
    let chaos: Vec<(ChaosProfile, u32)> = if args.quick {
        vec![(ChaosProfile::Storm, 1), (ChaosProfile::Preempt, 1), (ChaosProfile::Full, 1)]
    } else {
        ChaosProfile::ALL
            .iter()
            .copied()
            .filter(|p| *p != ChaosProfile::None)
            .map(|p| (p, 2))
            .collect()
    };

    println!("== Sanitizer sweep: every scheme x lock, default + chaos, window=0 ==");
    println!("{threads} threads, {ops} ops/thread\n");

    // Build the full default + chaos grid as sweep cells; sanitize_run is
    // pure per cell, so the matrix parallelizes like any figure sweep.
    // Keys double as the post-pass labels so ordering stays canonical.
    let mut keys: Vec<(SchemeKind, LockKind, String, u32, String)> = Vec::new();
    let mut sweep_cells = Vec::new();
    for &scheme in &schemes {
        for &lock in locks {
            let what = format!("{}/{}", scheme.label(), lock.label());
            keys.push((scheme, lock, "none".to_string(), 0, what.clone()));
            sweep_cells.push(Cell::new(what, threads, move || {
                let mut spec = SanitizeSpec::new(scheme, lock);
                spec.threads = threads;
                spec.ops_per_thread = ops;
                sanitize_run(&spec)
            }));
        }
    }
    for &(profile, level) in &chaos {
        let (plan, htm_faults) = profile.at_intensity(level, 0x5A17_AB1E);
        for &scheme in &schemes {
            for &lock in locks {
                let what = format!("{}/{} {profile}@{level}", scheme.label(), lock.label());
                keys.push((scheme, lock, profile.label().to_string(), level, what.clone()));
                sweep_cells.push(Cell::new(what, threads, move || {
                    let mut spec = SanitizeSpec::new(scheme, lock);
                    spec.threads = threads;
                    spec.ops_per_thread = ops;
                    spec.htm = HtmConfig::deterministic().with_faults(htm_faults);
                    spec.faults = plan;
                    sanitize_run(&spec)
                }));
            }
        }
    }
    let results = run.sweep(sweep_cells);
    let mut table = Table::new(&["cell", "san-events", "trace-events", "findings", "counters"]);
    for ((scheme, lock, profile, level, what), r) in keys.iter().zip(&results) {
        check_cell(r, what, &mut table);
        run.report.push_row(cell_row(*scheme, *lock, profile, *level, r));
    }

    run.table(&table, None);
    println!("\n{} cells clean under the sanitizer", keys.len());

    println!("\n-- seeded negative schedules --");
    check_seeded(
        "broken-slr",
        &broken_slr_schedule(),
        &[LintId::DataRace, LintId::CommitWhileLockHeld, LintId::SlrUnsubscribedCommit],
        &mut run.report,
    );
    check_seeded(
        "double-release",
        &double_release_schedule(),
        &[LintId::ReleaseWithoutAcquire],
        &mut run.report,
    );
    println!("\nall sanitizer assertions passed");
}
