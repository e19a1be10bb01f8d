//! Cross-rewrite artifact byte-identity gates.
//!
//! The hot-path rewrite (fixed-capacity line sets, scratch reuse,
//! directed scheduler wakeups) promises that every window-0 artifact is
//! *byte-identical* to what the original `HashSet`/`HashMap` +
//! broadcast-wakeup implementation produced. These tests pin that promise
//! to hashes captured from the pre-rewrite binaries: they run the real
//! experiments (via `CARGO_BIN_EXE_repro`) into a scratch directory and
//! compare an FNV-1a hash of each deterministic artifact (wall-clock
//! `TIMING_*.json` files are excluded, as in the CI determinism gates).
//!
//! If one of these fails after an intentional behavior change (new RNG
//! draw, different cost model, extra instrumentation), regenerate the
//! constants from the failure message — the test prints the actual hash.

use std::path::{Path, PathBuf};
use std::process::Command;

/// FNV-1a 64-bit. Stable, dependency-free, good enough to pin artifact
/// bytes (these are equality gates, not security).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn hash_artifact(dir: &Path, name: &str) -> u64 {
    let path = dir.join(name);
    let bytes =
        std::fs::read(&path).unwrap_or_else(|e| panic!("reading artifact {}: {e}", path.display()));
    fnv1a(&bytes)
}

/// A scratch directory under the target-adjacent temp dir, removed on
/// drop so repeated runs never see stale artifacts.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("goldens_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("creating scratch dir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn repro(args: &[&str]) {
    let exe = env!("CARGO_BIN_EXE_repro");
    let status = Command::new(exe)
        .args(args)
        .stdout(std::process::Stdio::null())
        .status()
        .unwrap_or_else(|e| panic!("spawning {exe}: {e}"));
    assert!(status.success(), "repro {args:?} exited with {status}");
}

fn assert_golden(dir: &Path, name: &str, want: u64) {
    let got = hash_artifact(dir, name);
    assert_eq!(
        got, want,
        "artifact {name} changed: fnv1a {got:#018x} != golden {want:#018x} \
         (captured from the pre-rewrite implementation; update only for an \
         intentional behavior change)"
    );
}

/// Figure-2 artifacts (CSV + metrics JSON) at window 0 must match the
/// pre-rewrite implementation byte for byte.
#[test]
fn fig2_quick_artifacts_match_pre_rewrite_goldens() {
    let scratch = Scratch::new("fig2");
    let dir = scratch.0.to_str().expect("utf-8 scratch path");
    repro(&[
        "fig2_lemming",
        "--quick",
        "--seeds",
        "1",
        "--jobs",
        "2",
        "--csv",
        dir,
        "--metrics",
        dir,
    ]);
    assert_golden(&scratch.0, "fig2_lemming.csv", GOLDEN_FIG2_CSV);
    assert_golden(&scratch.0, "fig2_lemming.json", GOLDEN_FIG2_JSON);
}

/// The perf gate's deterministic metrics file is part of the same
/// promise: simulated throughput per cell is a pure function of the spec.
#[test]
fn perf_gate_metrics_match_pre_rewrite_goldens() {
    let scratch = Scratch::new("perf_gate");
    let dir = scratch.0.to_str().expect("utf-8 scratch path");
    repro(&["perf_gate", "--quick", "--seeds", "1", "--jobs", "2", "--metrics", dir]);
    assert_golden(&scratch.0, "BENCH_SIM_HOTPATH.json", GOLDEN_PERF_GATE_JSON);
}

/// The two artifacts built from slot series and hash-table cells: Fig. 3's
/// per-slot completions and abort causes, and the hash-table sweep.
#[test]
fn hashtable_and_fig3_artifacts_match_goldens() {
    let scratch = Scratch::new("ht_fig3");
    let dir = scratch.0.to_str().expect("utf-8 scratch path");
    repro(&[
        "hashtable_bench",
        "fig3_dynamics",
        "--quick",
        "--seeds",
        "1",
        "--jobs",
        "2",
        "--csv",
        dir,
        "--metrics",
        dir,
    ]);
    assert_golden(&scratch.0, "hashtable_bench.json", GOLDEN_HASHTABLE_JSON);
    assert_golden(&scratch.0, "fig3_dynamics.json", GOLDEN_FIG3_JSON);
}

/// The artifacts built from abort records: diag_aborts' per-cause
/// breakdown, the sanitizer sweep, and the advisor's conflict-line
/// cross-check at both the quick and the full grid.
#[test]
fn abort_record_artifacts_match_goldens() {
    let scratch = Scratch::new("aborts");
    let dir = scratch.0.to_str().expect("utf-8 scratch path");
    repro(&[
        "diag_aborts",
        "elision_lint",
        "sanitize_all",
        "--quick",
        "--seeds",
        "1",
        "--jobs",
        "2",
        "--csv",
        dir,
        "--metrics",
        dir,
    ]);
    assert_golden(&scratch.0, "diag_aborts.csv", GOLDEN_DIAG_ABORTS_CSV);
    assert_golden(&scratch.0, "diag_aborts.json", GOLDEN_DIAG_ABORTS_JSON);
    assert_golden(&scratch.0, "sanitize_all.json", GOLDEN_SANITIZE_ALL_JSON);
    assert_golden(&scratch.0, "ELISION_LINT.json", GOLDEN_ELISION_LINT_QUICK_JSON);
    let full = Scratch::new("aborts_full");
    let dir = full.0.to_str().expect("utf-8 scratch path");
    repro(&["elision_lint", "--full", "--jobs", "2", "--csv", dir, "--metrics", dir]);
    assert_golden(&full.0, "ELISION_LINT.json", GOLDEN_ELISION_LINT_FULL_JSON);
}

/// The only experiments that run SCM with true nesting, a non-MCS
/// auxiliary lock, grouped SCM and the hardened configuration: the
/// scheme's less-travelled attempt paths.
#[test]
fn scheme_path_artifacts_match_goldens() {
    let scratch = Scratch::new("scheme_paths");
    let dir = scratch.0.to_str().expect("utf-8 scratch path");
    repro(&[
        "ablation_scm",
        "ablation_grouped",
        "chaos_stress",
        "--quick",
        "--seeds",
        "1",
        "--jobs",
        "2",
        "--csv",
        dir,
        "--metrics",
        dir,
    ]);
    assert_golden(&scratch.0, "ablation_scm.json", GOLDEN_ABLATION_SCM_JSON);
    assert_golden(&scratch.0, "ablation_scm_aux.csv", GOLDEN_ABLATION_SCM_AUX_CSV);
    assert_golden(
        &scratch.0,
        "ablation_scm_subscription.csv",
        GOLDEN_ABLATION_SCM_SUBSCRIPTION_CSV,
    );
    assert_golden(&scratch.0, "ablation_grouped.json", GOLDEN_ABLATION_GROUPED_JSON);
    assert_golden(&scratch.0, "ablation_grouped.csv", GOLDEN_ABLATION_GROUPED_CSV);
    assert_golden(&scratch.0, "chaos_stress.json", GOLDEN_CHAOS_STRESS_JSON);
    assert_golden(&scratch.0, "chaos_full.csv", GOLDEN_CHAOS_FULL_CSV);
    assert_golden(&scratch.0, "chaos_preempt.csv", GOLDEN_CHAOS_PREEMPT_CSV);
    assert_golden(&scratch.0, "chaos_storm.csv", GOLDEN_CHAOS_STORM_CSV);
}

/// MODELCHECK.json from the DPOR model checker must also be unchanged.
/// `#[ignore]`d by default (the quick sweep takes ~1 minute unoptimized);
/// CI runs it in the model-check job via `-- --ignored`.
#[test]
#[ignore = "runs the full --quick model-check sweep; exercised by CI's model-check job"]
fn modelcheck_quick_artifact_matches_pre_rewrite_golden() {
    let scratch = Scratch::new("mc");
    let dir = scratch.0.to_str().expect("utf-8 scratch path");
    repro(&["model_check", "--quick", "--jobs", "2", "--metrics", dir]);
    assert_golden(&scratch.0, "MODELCHECK.json", GOLDEN_MODELCHECK_JSON);
}

/// LAZY_SAFETY.json from the lazy-subscription fix matrix: the search
/// statistics of every cell as well as the counterexamples that
/// `lazy_counterexamples.rs` pins. `#[ignore]`d by default with the
/// model-check golden; CI runs both in the model-check job.
#[test]
#[ignore = "runs the --quick lazy-safety sweep; exercised by CI's model-check job"]
fn lazy_safety_quick_artifact_matches_golden() {
    let scratch = Scratch::new("ls");
    let dir = scratch.0.to_str().expect("utf-8 scratch path");
    repro(&["lazy_safety", "--quick", "--jobs", "2", "--metrics", dir]);
    assert_golden(&scratch.0, "LAZY_SAFETY.json", GOLDEN_LAZY_SAFETY_JSON);
}

/// `repro summary` over the reports of `repro all` must reproduce the
/// BENCH_SUMMARY.json the per-figure binaries and `bench_summary` wrote
/// before the single driver, and must also merge the two explorer
/// reports (`MODELCHECK.json`, `LAZY_SAFETY.json`, whose rows are named
/// `cells`) that `bench_summary` rejected. `#[ignore]`d by default (it
/// runs every quick experiment); CI runs it with the model-check golden.
#[test]
#[ignore = "runs every --quick experiment; exercised by CI's model-check job"]
fn summary_of_all_matches_pre_driver_golden() {
    let scratch = Scratch::new("summary");
    let dir = scratch.0.to_str().expect("utf-8 scratch path");
    let quick = ["--quick", "--seeds", "1", "--jobs", "2", "--metrics", dir];
    repro(&[&["all"], &quick[..]].concat());
    let aside = Scratch::new("summary_aside");
    for name in ["MODELCHECK.json", "LAZY_SAFETY.json"] {
        std::fs::rename(scratch.0.join(name), aside.0.join(name)).expect("moving report aside");
    }
    repro(&["summary", dir]);
    assert_golden(&scratch.0, "BENCH_SUMMARY.json", GOLDEN_SUMMARY_WITHOUT_EXPLORERS_JSON);
    for name in ["MODELCHECK.json", "LAZY_SAFETY.json"] {
        std::fs::rename(aside.0.join(name), scratch.0.join(name)).expect("moving report back");
    }
    repro(&["summary", dir]);
    let text = std::fs::read_to_string(scratch.0.join("BENCH_SUMMARY.json")).expect("summary");
    let summary = elision_bench::metrics::parse(&text).expect("summary parses");
    let reports = summary.get("reports").and_then(|r| r.as_arr()).expect("reports array");
    assert_eq!(reports.len(), elision_bench::experiment::EXPERIMENTS.len());
}

// Golden hashes at window 0. Originally captured from the pre-rewrite
// implementation (HashSet / HashMap transaction sets, broadcast condvar
// scheduler); the fig2/perf_gate hashes were re-blessed after the
// `DetRng::new` reseed (two sequential SplitMix64 words — an intentional
// fix for (seed, stream) collisions that shifts every workload stream).
// MODELCHECK.json is unchanged: the DPOR sweep explores interleavings
// exhaustively and draws nothing from the reseeded streams.
// The fig2/perf_gate JSON hashes were re-blessed again when the
// dangerous-instruction screen added a seventh abort cause: every
// cause-enumerating artifact gains a `dangerous` bucket (zero in all
// default-config runs — the screen only fires under lazy subscription),
// while the CSV throughput columns are untouched.
const GOLDEN_FIG2_CSV: u64 = 0xd6cc_7b01_f6ed_1939;
const GOLDEN_FIG2_JSON: u64 = 0xfa0d_86b0_a82f_33e6;
const GOLDEN_PERF_GATE_JSON: u64 = 0xa36d_d358_d5f5_4d7f;
// Captured before the hash table ran through the tree driver and before
// completions and abort causes shared one slot series.
const GOLDEN_HASHTABLE_JSON: u64 = 0x05f6_3244_bfa7_d31f;
const GOLDEN_FIG3_JSON: u64 = 0x6cf7_3054_9dba_6f62;
// MODELCHECK.json was re-blessed when the explorer began skipping every
// queued prefix whose default continuation had already run: each cell's
// `runs` fell (40,256 to 33,720 in all) and gained a `fallback_runs`
// count, while executions, truncation and findings stayed the same.
// Re-blessed again when the lock-discipline lints began reading the
// sanitizer log instead of merged per-thread trace rings: one
// `release-without-acquire` site now carries the log's clock and index,
// (time 11, seq 4) -> (56, 13); nothing else in the artifact moved.
const GOLDEN_MODELCHECK_JSON: u64 = 0xad60_ce13_d54a_790a;
// Captured when the explorer began skipping covered prefixes, which is
// also when the artifact gained its `fallback_runs` counts.
const GOLDEN_LAZY_SAFETY_JSON: u64 = 0x72ea_ba2d_e6f2_e28d;
// Captured from `bench_summary` over the 18 row reports that the
// per-figure binaries wrote at `--quick --seeds 1` (all but the two
// explorer reports, which it could not merge).
const GOLDEN_SUMMARY_WITHOUT_EXPLORERS_JSON: u64 = 0xb7c8_40f6_4c0b_c302;
// Captured while each abort was still classified from a raw reason,
// tallied twice and recorded into a per-strand conflict-line histogram.
const GOLDEN_DIAG_ABORTS_CSV: u64 = 0x16ed_d62a_02ea_0c36;
const GOLDEN_DIAG_ABORTS_JSON: u64 = 0x051c_9f4b_f6ab_208f;
const GOLDEN_SANITIZE_ALL_JSON: u64 = 0xa69d_fcca_bb70_ba93;
const GOLDEN_ELISION_LINT_QUICK_JSON: u64 = 0xd7e1_b0f8_e022_0575;
const GOLDEN_ELISION_LINT_FULL_JSON: u64 = 0x982b_609a_f90d_754b;
// Captured while each subscription style was still written out at every
// attempt site of `Scheme`.
const GOLDEN_ABLATION_SCM_JSON: u64 = 0x60e4_ed85_a0f0_aaeb;
const GOLDEN_ABLATION_SCM_AUX_CSV: u64 = 0xd7a0_fc34_0de8_4380;
const GOLDEN_ABLATION_SCM_SUBSCRIPTION_CSV: u64 = 0xfb08_7358_9521_ddd3;
const GOLDEN_ABLATION_GROUPED_JSON: u64 = 0x673c_a549_77d5_c71c;
const GOLDEN_ABLATION_GROUPED_CSV: u64 = 0x6de9_0826_0c61_a04a;
const GOLDEN_CHAOS_STRESS_JSON: u64 = 0x2d66_b447_3a07_76aa;
const GOLDEN_CHAOS_FULL_CSV: u64 = 0x50c3_9eae_dc05_15a1;
const GOLDEN_CHAOS_PREEMPT_CSV: u64 = 0x4faa_674a_9274_ad0d;
const GOLDEN_CHAOS_STORM_CSV: u64 = 0xc0ca_affe_04cd_531b;
