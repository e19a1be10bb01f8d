//! Bounded model checking over the scheme × lock matrix: drive every
//! cell through *all* interleavings of a small configuration (DPOR with
//! the explorer's divergence/step bounds), run every execution through
//! the race/opacity/lint passes plus the linearizability oracle, and
//! fail on any finding.
//!
//! Two seeded known-bad workloads (an eager/unsubscribed SLR commit and
//! a double lock release) are swept alongside the correct cells; each
//! MUST produce at least one finding, with a minimized counterexample of
//! at most 12 forced schedule steps, proving the explorer actually
//! catches schedule-dependent violations rather than vacuously passing.
//!
//! Results are rendered as a table and, with `--metrics DIR`, written as
//! `MODELCHECK.json`. The report deliberately contains no job counts,
//! timestamps or wall-clock data, so it is byte-identical across
//! `--jobs` values (host timing goes to `TIMING_model_check.json`,
//! which the determinism gates exclude).

use super::{assert_counterexamples, cell_report, cell_report_json, Run};
use crate::metrics::{Json, SCHEMA_VERSION};
use crate::report::Table;
use crate::sweep::Cell;
use elision_analysis::explore::{
    explore_and_minimize, explore_cell, Bounds, CellReport, ExploreSpec, Mode,
};
use elision_analysis::testkit::{broken_slr_explore, double_release_explore, ExploreRun};
use elision_analysis::LintId;
use elision_core::{LockKind, SchemeKind};
use elision_structures::history::StructureKind;
use std::collections::BTreeMap;

/// Acceptance bound on a minimized counterexample: replaying at most
/// this many forced decisions must reproduce a seeded violation.
const MAX_COUNTEREXAMPLE_STEPS: usize = 12;

/// A seeded known-bad workload: its name, its explorer runner, and the
/// lints at least one of which it must trip (the explorer may
/// legitimately surface several).
type SeededCell = (&'static str, fn(&BTreeMap<usize, usize>) -> ExploreRun, Vec<LintId>);

fn seeded_cells() -> Vec<SeededCell> {
    vec![
        (
            "seeded/broken-slr",
            broken_slr_explore as fn(&BTreeMap<usize, usize>) -> ExploreRun,
            vec![LintId::CommitWhileLockHeld, LintId::DataRace],
        ),
        ("seeded/double-release", double_release_explore, vec![LintId::ReleaseWithoutAcquire]),
    ]
}

pub(super) fn run(run: &mut Run) {
    let args = &run.args;
    let schemes = SchemeKind::ALL;
    let locks = [LockKind::Ttas, LockKind::Mcs, LockKind::Ticket, LockKind::Clh];
    let structures = StructureKind::ALL;

    println!("== Model check: every scheme x lock, DPOR at 2 threads x 3 sections ==\n");

    // Every scheme × lock pair is always covered (that is the CI
    // contract); `--full` additionally crosses in every structure,
    // while the default/quick grid rotates structures round-robin so
    // all four kinds still appear.
    let mut keys: Vec<(String, bool, Vec<LintId>)> = Vec::new();
    let mut cells: Vec<Cell<'_, CellReport>> = Vec::new();
    for (i, &scheme) in schemes.iter().enumerate() {
        for (j, &lock) in locks.iter().enumerate() {
            let kinds: Vec<StructureKind> = if args.full {
                structures.to_vec()
            } else {
                vec![structures[(i * locks.len() + j) % structures.len()]]
            };
            for kind in kinds {
                let spec = ExploreSpec::quick(scheme, lock, kind);
                let key = format!("{}/{}/{}", scheme.label(), lock.label(), kind.label());
                keys.push((key.clone(), false, Vec::new()));
                cells.push(Cell::new(key, spec.threads, move || explore_cell(&spec)));
            }
        }
    }
    for (name, runner, expected) in seeded_cells() {
        // The seeded fixtures are 2-thread workloads; the grid cells'
        // DPOR bounds apply, so their counterexamples honor the same
        // budget.
        keys.push((name.to_string(), true, expected));
        cells.push(Cell::new(name, 2, move || {
            cell_report(explore_and_minimize(Mode::Dpor, &Bounds::quick(), runner))
        }));
    }

    let results = run.sweep(cells);

    let mut rows: Vec<Json> = Vec::new();
    let mut table = Table::new(&["cell", "executions", "runs", "truncated", "findings"]);
    let mut clean = 0usize;
    for ((key, seeded, expected), r) in keys.iter().zip(&results) {
        table.row(vec![
            key.clone(),
            r.executions.to_string(),
            r.runs.to_string(),
            if r.truncated { "yes".to_string() } else { "no".to_string() },
            r.findings.len().to_string(),
        ]);
        for f in &r.findings {
            println!("  FINDING {key}: {} ({} forced steps)", f.finding, f.forced.len());
            for line in &f.diagram {
                println!("    {line}");
            }
        }
        let labels = vec![("cell", Json::Str(key.clone())), ("seeded", Json::Bool(*seeded))];
        rows.push(cell_report_json(labels, r, true));
        if *seeded {
            assert_counterexamples(key, r, expected, MAX_COUNTEREXAMPLE_STEPS);
            println!(
                "  seeded {key}: caught {} finding(s), all within {MAX_COUNTEREXAMPLE_STEPS} \
                 forced steps",
                r.findings.len()
            );
        } else {
            assert!(
                r.findings.is_empty(),
                "{key}: model checker reported {} finding(s) on a correct cell",
                r.findings.len()
            );
            clean += 1;
        }
    }

    run.table(&table, None);
    println!("\n{clean} cells verified clean across every explored interleaving");

    let (quick, full) = (run.args.quick, run.args.full);
    run.document(Json::obj(vec![
        ("schema_version", Json::Uint(SCHEMA_VERSION)),
        ("binary", Json::Str("model_check".to_string())),
        (
            "config",
            Json::obj(vec![
                ("threads", Json::Uint(2)),
                ("sections", Json::Uint(3)),
                ("mode", Json::Str("dpor".to_string())),
                ("quick", Json::Bool(quick)),
                ("full", Json::Bool(full)),
            ]),
        ),
        ("cells", Json::Arr(rows)),
    ]));
    println!("\nall model-check assertions passed");
}
