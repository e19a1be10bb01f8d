//! The experiment registry and the one artifact pipeline it shares.
//!
//! Every figure, ablation and check of the reproduction is an
//! [`Experiment`]: a name plus a `fn(&mut Run)` that builds its grid,
//! projects the sweep results into tables and rows, asserts what it must
//! and prints its paper-shape note. Everything the experiments have in
//! common is owned by [`Run`]: flag parsing, the sweep executor and its
//! timing log, table printing, CSV files, the metrics document and
//! `TIMING_<name>.json`. The `repro` binary is a thin shell over [`main`]:
//!
//! ```text
//! repro <name>... [flags]   run the named experiments, in the order given
//! repro all [flags]         run every experiment, in registry order
//! repro summary [DIR]       merge DIR's reports into BENCH_SUMMARY.json
//! ```
//!
//! Under `--metrics DIR` an experiment writes `DIR/<artifact>.json` and
//! `DIR/TIMING_<name>.json`; under `--csv DIR` it writes its tables.
//! A usage error (unknown name or flag, malformed value, a `--chaos`
//! profile a selected experiment does not apply) exits 2 before anything
//! runs.

mod ablation_finegrained;
mod ablation_grouped;
mod ablation_retries;
mod ablation_scm;
mod ablation_spurious;
mod chaos_stress;
mod diag_aborts;
mod elision_lint;
mod fig10_spectrum;
mod fig11_stamp;
mod fig2_lemming;
mod fig3_dynamics;
mod fig4_hle_speedup;
mod fig9_scaling;
mod hashtable_bench;
mod lazy_safety;
mod model_check;
mod perf_gate;
mod sanitize_all;
mod service_bench;

use crate::chaos::ChaosProfile;
use crate::cli::{parse_flags, CliArgs, Flags};
use crate::metrics::{Json, MetricsReport};
use crate::report::Table;
use crate::sweep::{Cell, Sweep, TimingLog};
use crate::TreeBenchSpec;
use elision_analysis::explore::{CellReport, ExploreFinding};
use elision_analysis::{AccessSite, Finding, LintId};
use elision_core::{LockKind, SchemeKind};
use elision_htm::HtmFaults;
use elision_sim::FaultPlan;
use elision_structures::OpMix;
use std::cell::RefCell;
use std::path::Path;

/// One registered experiment.
#[derive(Debug)]
pub struct Experiment {
    /// The name `repro` selects it by; also names its `TIMING_<name>.json`.
    pub name: &'static str,
    /// Stem of the metrics document it writes under `--metrics DIR`.
    pub artifact: &'static str,
    /// Whether it applies a `--chaos` fault profile. Every other
    /// experiment rejects a profile other than `none`.
    pub chaos: bool,
    /// Builds the grid, sweeps it and reports.
    pub run: fn(&mut Run),
}

const fn exp(name: &'static str, artifact: &'static str, run: fn(&mut Run)) -> Experiment {
    Experiment { name, artifact, chaos: false, run }
}

/// Every experiment, in the order `repro all` runs them.
pub static EXPERIMENTS: [Experiment; 20] = [
    Experiment { chaos: true, ..exp("fig2_lemming", "fig2_lemming", fig2_lemming::run) },
    exp("fig3_dynamics", "fig3_dynamics", fig3_dynamics::run),
    exp("fig4_hle_speedup", "fig4_hle_speedup", fig4_hle_speedup::run),
    exp("fig9_scaling", "fig9_scaling", fig9_scaling::run),
    exp("fig10_spectrum", "fig10_spectrum", fig10_spectrum::run),
    exp("fig11_stamp", "fig11_stamp", fig11_stamp::run),
    Experiment { chaos: true, ..exp("hashtable_bench", "hashtable_bench", hashtable_bench::run) },
    exp("ablation_finegrained", "ablation_finegrained", ablation_finegrained::run),
    exp("ablation_grouped", "ablation_grouped", ablation_grouped::run),
    exp("ablation_retries", "ablation_retries", ablation_retries::run),
    exp("ablation_scm", "ablation_scm", ablation_scm::run),
    exp("ablation_spurious", "ablation_spurious", ablation_spurious::run),
    exp("diag_aborts", "diag_aborts", diag_aborts::run),
    exp("chaos_stress", "chaos_stress", chaos_stress::run),
    exp("sanitize_all", "sanitize_all", sanitize_all::run),
    exp("service_bench", "SERVICE", service_bench::run),
    exp("perf_gate", "BENCH_SIM_HOTPATH", perf_gate::run),
    exp("model_check", "MODELCHECK", model_check::run),
    exp("elision_lint", "ELISION_LINT", elision_lint::run),
    exp("lazy_safety", "LAZY_SAFETY", lazy_safety::run),
];

/// The context one experiment runs in: its flags, its sweep executor,
/// its timing log and the documents it will leave behind.
pub struct Run {
    /// The shared flags.
    pub(crate) args: CliArgs,
    /// The row report written as `<artifact>.json` under `--metrics`,
    /// unless the experiment supplies its own [`Run::document`].
    pub(crate) report: MetricsReport,
    experiment: &'static Experiment,
    sweep: Sweep,
    timing: RefCell<TimingLog>,
    document: Option<Json>,
}

impl Run {
    fn new(experiment: &'static Experiment, args: &CliArgs) -> Run {
        let sweep = Sweep::new(args.jobs);
        Run {
            args: args.clone(),
            report: MetricsReport::new(experiment.artifact, args),
            experiment,
            sweep,
            timing: RefCell::new(TimingLog::new(experiment.name, sweep.jobs())),
            document: None,
        }
    }

    /// Run the cells on the `--jobs` pool and return their results in
    /// canonical (submission) order; their host timing goes to the log.
    pub(crate) fn sweep<T: Send>(&self, cells: Vec<Cell<'_, T>>) -> Vec<T> {
        let outcome = self.sweep.run(cells);
        self.timing.borrow_mut().absorb(&outcome);
        outcome.results
    }

    /// The `--chaos` profile's faults at a moderate intensity (level 2 of
    /// 3), for the experiments registered to apply it.
    pub(crate) fn faults(&self) -> (FaultPlan, HtmFaults) {
        self.args.chaos.at_intensity(2, 0xC4A0)
    }

    /// Print a table and, under `--csv DIR`, write it as `DIR/<csv>.csv`.
    pub(crate) fn table(&self, table: &Table, csv: Option<&str>) {
        table.print();
        if let (Some(dir), Some(name)) = (&self.args.csv, csv) {
            table.write_csv(dir, name);
        }
    }

    /// Write `doc` as the metrics document instead of the row report.
    pub(crate) fn document(&mut self, doc: Json) {
        self.document = Some(doc);
    }

    fn finish(self) {
        if let Some(dir) = &self.args.metrics {
            let doc = self.document.unwrap_or_else(|| self.report.to_json());
            std::fs::create_dir_all(dir).expect("creating metrics directory");
            let path = dir.join(format!("{}.json", self.experiment.artifact));
            std::fs::write(&path, doc.render()).expect("writing metrics JSON");
            eprintln!("wrote {}", path.display());
            self.timing.into_inner().write(dir);
        }
    }
}

/// A red-black-tree spec with `ops` operations per thread.
pub(crate) fn tree_spec(
    scheme: SchemeKind,
    lock: LockKind,
    threads: usize,
    size: usize,
    mix: OpMix,
    ops: u64,
) -> TreeBenchSpec {
    TreeBenchSpec { ops_per_thread: ops, ..TreeBenchSpec::new(scheme, lock, threads, size, mix) }
}

/// A workload label as a CSV file-name fragment: lowercase
/// alphanumerics, everything else `_`.
pub(crate) fn slug(label: &str) -> String {
    label.chars().map(|c| if c.is_alphanumeric() { c.to_ascii_lowercase() } else { '_' }).collect()
}

/// The four software-assisted schemes, compared against plain HLE.
pub(crate) const SOFTWARE_SCHEMES: [SchemeKind; 4] =
    [SchemeKind::HleRetries, SchemeKind::HleScm, SchemeKind::OptSlr, SchemeKind::SlrScm];

/// A table with a `first` label column and one column per scheme.
pub(crate) fn scheme_table(first: &str, schemes: &[SchemeKind]) -> Table {
    let mut headers = vec![first];
    headers.extend(schemes.iter().map(|s| s.label()));
    Table::new(&headers)
}

/// A finding as JSON: lint, message and witnessing accesses.
pub(crate) fn finding_json(f: &Finding) -> Json {
    Json::obj(vec![
        ("lint", Json::Str(f.lint.label().to_string())),
        ("message", Json::Str(f.message.clone())),
        ("sites", sites_json(&f.sites)),
    ])
}

/// A finding's witnessing accesses as JSON.
fn sites_json(sites: &[AccessSite]) -> Json {
    Json::Arr(
        sites
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("tid", Json::Uint(s.tid as u64)),
                    ("var", s.var.map_or(Json::Null, |v| Json::Uint(u64::from(v)))),
                    ("line", s.line.map_or(Json::Null, |l| Json::Uint(u64::from(l)))),
                    ("time", Json::Uint(s.time)),
                    ("seq", Json::Uint(s.seq as u64)),
                ])
            })
            .collect(),
    )
}

/// An explored cell as JSON: the caller's `labels`, the search
/// statistics and every counterexample (with its witnessing accesses
/// when `with_sites`).
pub(crate) fn cell_report_json(
    mut labels: Vec<(&str, Json)>,
    r: &CellReport,
    with_sites: bool,
) -> Json {
    labels.extend([
        ("executions", Json::Uint(r.executions as u64)),
        ("runs", Json::Uint(r.runs as u64)),
        ("fallback_runs", Json::Uint(r.fallback_runs as u64)),
        ("truncated", Json::Bool(r.truncated)),
        (
            "findings",
            Json::Arr(r.findings.iter().map(|f| counterexample_json(f, with_sites)).collect()),
        ),
    ]);
    Json::obj(labels)
}

/// A minimized counterexample as JSON: lint, message, forced schedule
/// and diagram, then the witnessing accesses when `with_sites`.
fn counterexample_json(f: &ExploreFinding, with_sites: bool) -> Json {
    let forced = f.forced.iter().map(|&(step, thread)| {
        Json::obj(vec![("step", Json::Uint(step as u64)), ("thread", Json::Uint(thread as u64))])
    });
    let mut pairs = vec![
        ("lint", Json::Str(f.finding.lint.label().to_string())),
        ("message", Json::Str(f.finding.message.clone())),
        ("forced", Json::Arr(forced.collect())),
        ("diagram", Json::Arr(f.diagram.iter().map(|l| Json::Str(l.clone())).collect())),
    ];
    if with_sites {
        pairs.push(("sites", sites_json(&f.finding.sites)));
    }
    Json::obj(pairs)
}

/// Assert that every run of a cell beyond its executions, each a replay
/// of an execution already analyzed, is one whose forced prefix could
/// not be followed: the search skips every other replay before running
/// it.
pub(crate) fn assert_replays_fell_back(key: &str, r: &CellReport) {
    assert!(
        r.runs - r.executions <= r.fallback_runs,
        "{key}: {} runs for {} executions, but only {} fell back from their forced prefix",
        r.runs,
        r.executions,
        r.fallback_runs
    );
}

/// Assert that a cell which must fail did: at least one finding, one of
/// them an `expected` lint, and every counterexample replayable within
/// `max_steps` forced steps and drawn as a diagram.
pub(crate) fn assert_counterexamples(
    key: &str,
    r: &CellReport,
    expected: &[LintId],
    max_steps: usize,
) {
    let lints: Vec<LintId> = r.findings.iter().map(|f| f.finding.lint).collect();
    assert!(
        !lints.is_empty(),
        "{key}: a must-fail cell produced no counterexample (vacuous check)"
    );
    assert!(
        lints.iter().any(|l| expected.contains(l)),
        "{key}: none of the expected lints {expected:?} among the findings {lints:?}"
    );
    for f in &r.findings {
        assert!(
            f.forced.len() <= max_steps,
            "{key}: counterexample needs {} forced steps (budget {max_steps})",
            f.forced.len()
        );
        assert!(!f.diagram.is_empty(), "{key}: counterexample has no diagram");
    }
}

/// Resolve the positional words to experiments and check that every
/// selected experiment applies the given `--chaos` profile.
fn select(flags: &Flags) -> Result<Vec<&'static Experiment>, String> {
    if flags.words.is_empty() {
        return Err("name an experiment, or all".to_string());
    }
    let mut selected = Vec::new();
    for word in &flags.words {
        if word == "all" {
            selected.extend(EXPERIMENTS.iter());
        } else {
            let found = EXPERIMENTS.iter().find(|e| e.name == word);
            selected.push(found.ok_or_else(|| format!("unknown experiment {word}"))?);
        }
    }
    if flags.args.chaos != ChaosProfile::None {
        if let Some(e) = selected.iter().find(|e| !e.chaos) {
            let takers: Vec<&str> =
                EXPERIMENTS.iter().filter(|e| e.chaos).map(|e| e.name).collect();
            return Err(format!(
                "--chaos {}: {} applies no fault profile (only {} do)",
                flags.args.chaos,
                e.name,
                takers.join(" and ")
            ));
        }
    }
    Ok(selected)
}

fn names() -> Vec<&'static str> {
    EXPERIMENTS.iter().map(|e| e.name).collect()
}

fn usage(msg: &str) {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: repro <experiment>... [flags] | repro all [flags] | repro summary [DIR]\n\
         flags: [--quick] [--full] [--seeds N] [--threads N] [--jobs N] [--csv DIR] \
         [--metrics DIR] [--chaos PROFILE]"
    );
    eprintln!("experiments: {}", names().join(", "));
    eprintln!("chaos profiles: {}", ChaosProfile::ALL.map(|p| p.label()).join(", "));
}

/// The `repro` command line (without the program name); returns the
/// process exit code: 0 on success, 1 when the summary fails, 2 on a
/// usage error. A failed assertion inside an experiment panics.
pub fn main(argv: Vec<String>) -> u8 {
    if argv.first().map(String::as_str) == Some("summary") {
        let dir = match &argv[1..] {
            [] => "results",
            [dir] => dir.as_str(),
            _ => {
                usage("summary takes one directory");
                return 2;
            }
        };
        return match crate::summary::summarize(Path::new(dir)) {
            Ok(()) => 0,
            Err(msg) => {
                eprintln!("error: {msg}");
                1
            }
        };
    }
    let (flags, selected) = match parse_flags(argv).and_then(|f| Ok((select(&f)?, f))) {
        Ok((selected, flags)) => (flags, selected),
        Err(msg) => {
            usage(&msg);
            return 2;
        }
    };
    for experiment in selected {
        let mut run = Run::new(experiment, &flags.args);
        (experiment.run)(&mut run);
        run.finish();
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn select_names(s: &[&str]) -> Result<Vec<&'static str>, String> {
        let flags = parse_flags(s.iter().map(|s| s.to_string()))?;
        Ok(select(&flags)?.iter().map(|e| e.name).collect())
    }

    /// Names are unique, and each experiment's metrics document keeps the
    /// file name it has always had: its own name, or one of five report
    /// names that predate the registry (so artifacts are unique too).
    #[test]
    fn names_are_unique_and_artifacts_equal_names_except_the_named_reports() {
        for (i, a) in EXPERIMENTS.iter().enumerate() {
            assert!(EXPERIMENTS[i + 1..].iter().all(|b| a.name != b.name), "{}", a.name);
        }
        let renamed = [
            ("service_bench", "SERVICE"),
            ("perf_gate", "BENCH_SIM_HOTPATH"),
            ("model_check", "MODELCHECK"),
            ("elision_lint", "ELISION_LINT"),
            ("lazy_safety", "LAZY_SAFETY"),
        ];
        for e in &EXPERIMENTS {
            let want = renamed.iter().find(|(n, _)| *n == e.name).map_or(e.name, |(_, a)| a);
            assert_eq!(e.artifact, want, "{}", e.name);
        }
    }

    /// `all` expands in registry order; named experiments run in the
    /// order given.
    #[test]
    fn all_selects_every_experiment_in_order() {
        let names = select_names(&["all", "--quick"]).expect("valid");
        assert_eq!(names, super::names());
        let names = select_names(&["fig3_dynamics", "fig2_lemming"]).expect("valid");
        assert_eq!(names, ["fig3_dynamics", "fig2_lemming"]);
    }

    #[test]
    fn chaos_is_rejected_where_it_would_be_ignored() {
        assert!(select_names(&["fig2_lemming", "--chaos", "storm"]).is_ok());
        assert!(select_names(&["hashtable_bench", "--chaos", "full"]).is_ok());
        assert!(select_names(&["fig3_dynamics", "--chaos", "none"]).is_ok());
        let err = select_names(&["fig3_dynamics", "--chaos", "storm"]).unwrap_err();
        assert!(err.contains("--chaos storm") && err.contains("fig3_dynamics"), "{err}");
        let err = select_names(&["all", "--chaos", "storm"]).unwrap_err();
        assert!(err.contains("--chaos") && err.contains("fig3_dynamics"), "{err}");
        assert!(select_names(&["chaos_stress", "--chaos", "storm"]).is_err());
    }
}
