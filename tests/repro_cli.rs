//! The `repro` driver as a process: usage errors exit 2 before anything
//! runs, a run writes exactly its registered artifact names, and
//! `repro summary` merges them.

use std::path::PathBuf;
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("spawning repro")
}

/// Exit code and stderr of a run that must fail.
fn failure(args: &[&str]) -> (Option<i32>, String) {
    let out = repro(args);
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn usage_errors_exit_2_and_name_the_problem() {
    let cases: [(&[&str], &[&str]); 8] = [
        (&["no_such_figure"], &["unknown experiment no_such_figure", "fig2_lemming"]),
        (&[], &["name an experiment"]),
        (&["fig2_lemming", "--seeds", "many"], &["--seeds"]),
        (&["fig2_lemming", "--window", "16"], &["unknown flag --window"]),
        (&["perf_gate", "--reps", "0"], &["--reps"]),
        (&["fig3_dynamics", "--chaos", "storm"], &["--chaos storm", "fig3_dynamics"]),
        (&["all", "--quick", "--chaos", "storm"], &["--chaos storm", "fig3_dynamics"]),
        (&["fig2_lemming", "--bless"], &["--bless", "perf_gate"]),
    ];
    for (args, needles) in cases {
        let (code, stderr) = failure(args);
        assert_eq!(code, Some(2), "repro {args:?}: {stderr}");
        for needle in needles {
            assert!(stderr.contains(needle), "repro {args:?}: no {needle:?} in {stderr}");
        }
    }
    assert_eq!(failure(&["summary", "a", "b"]).0, Some(2));
}

/// A run writes exactly `<artifact>.json` and `TIMING_<name>.json` under
/// `--metrics` and its tables under `--csv`, and `repro summary` folds
/// the report into BENCH_SUMMARY.json.
#[test]
fn a_run_writes_its_registered_artifacts_and_summarizes() {
    let dir: PathBuf = std::env::temp_dir().join(format!("repro_cli_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let d = dir.to_str().expect("utf-8 temp dir");
    let run = ["ablation_finegrained", "--quick", "--threads", "2", "--jobs", "2"];
    assert!(repro(&[&run[..], &["--metrics", d, "--csv", d]].concat()).status.success());
    let listing = || {
        let mut files: Vec<String> = std::fs::read_dir(&dir)
            .expect("metrics dir exists")
            .map(|e| e.expect("dir entry").file_name().into_string().expect("utf-8 name"))
            .collect();
        files.sort();
        files
    };
    let written = [
        "TIMING_ablation_finegrained.json",
        "ablation_finegrained.csv",
        "ablation_finegrained.json",
    ];
    assert_eq!(listing(), written);
    assert!(repro(&["summary", d]).status.success());
    let summary = std::fs::read_to_string(dir.join("BENCH_SUMMARY.json")).expect("summary");
    assert!(summary.contains("\"binary\": \"ablation_finegrained\""), "{summary}");
    assert!(listing().contains(&"TIMING_SUMMARY.json".to_string()));
    let _ = std::fs::remove_dir_all(&dir);
}
