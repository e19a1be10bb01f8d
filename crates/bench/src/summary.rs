//! Merge per-experiment `--metrics` JSON reports into one
//! `BENCH_SUMMARY.json` (`repro summary DIR`).
//!
//! Reads every `*.json` in the directory (except a previous summary),
//! validates the schema, and writes `<DIR>/BENCH_SUMMARY.json` containing
//! one entry per report — binary name, its config, its row count — plus
//! an abort-cause histogram summed over every row of every report and a
//! lint histogram summed over every row's `findings`. A report's rows are
//! its `rows` array, or the `cells` array of the explorer reports
//! (`MODELCHECK.json`, `LAZY_SAFETY.json`). Files are processed in sorted
//! name order, so the summary is deterministic.
//!
//! `TIMING_<name>.json` files (written by the sweep orchestrator) are
//! merged separately into `TIMING_SUMMARY.json` — per-experiment
//! wall-clock milliseconds, host jobs and cell counts plus the sweep
//! total. Wall time varies run to run, so the timing summary shares the
//! `TIMING_` prefix the determinism gates exclude, and
//! `BENCH_SUMMARY.json` itself stays byte-reproducible.

use crate::metrics::{parse, Json, SCHEMA_VERSION};
use elision_analysis::LintId;
use elision_sim::AbortCause;
use std::fs;
use std::path::{Path, PathBuf};

const SUMMARY_NAME: &str = "BENCH_SUMMARY.json";
const TIMING_SUMMARY_NAME: &str = "TIMING_SUMMARY.json";

/// Read and parse one report and check its schema version; returns the
/// document and its binary name.
fn load(path: &Path) -> Result<(Json, String), String> {
    let ctx = path.display();
    let text = fs::read_to_string(path).map_err(|e| format!("reading {ctx}: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("parsing {ctx}: {e}"))?;
    let version = doc
        .get("schema_version")
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{ctx}: missing schema_version"))?;
    if version != SCHEMA_VERSION {
        return Err(format!("{ctx}: schema_version {version} (expected {SCHEMA_VERSION})"));
    }
    let binary = doc
        .get("binary")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{ctx}: missing binary name"))?
        .to_string();
    Ok((doc, binary))
}

/// Validate one timing report's schema; returns its summary entry and
/// total wall-clock milliseconds.
fn validate_timing(path: &Path) -> Result<(Json, u64), String> {
    let (doc, binary) = load(path)?;
    let ctx = path.display();
    if doc.get("kind").and_then(Json::as_str) != Some("timing") {
        return Err(format!("{ctx}: TIMING_ file without kind == \"timing\""));
    }
    let jobs =
        doc.get("jobs").and_then(Json::as_u64).ok_or_else(|| format!("{ctx}: missing jobs"))?;
    let wall_ms = doc
        .get("wall_ms")
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{ctx}: missing wall_ms"))?;
    let cells = doc
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{ctx}: missing cells array"))?;
    let entry = Json::obj(vec![
        ("binary", Json::Str(binary)),
        ("jobs", Json::Uint(jobs)),
        ("wall_ms", Json::Uint(wall_ms)),
        ("cells", Json::Uint(cells.len() as u64)),
    ]);
    Ok((entry, wall_ms))
}

/// Validate one report's schema; returns (binary, config, rows).
fn validate(path: &Path) -> Result<(String, Json, Vec<Json>), String> {
    let (doc, binary) = load(path)?;
    let ctx = path.display();
    let config = doc.get("config").cloned().ok_or_else(|| format!("{ctx}: missing config"))?;
    let rows = doc
        .get("rows")
        .or_else(|| doc.get("cells"))
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{ctx}: missing rows array"))?
        .to_vec();
    Ok((binary, config, rows))
}

/// Write `dir/BENCH_SUMMARY.json` and, if `dir` holds timing files,
/// `dir/TIMING_SUMMARY.json`; errors name the offending file.
pub fn summarize(dir: &Path) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut timing_paths: Vec<PathBuf> = Vec::new();
    for p in entries.filter_map(|e| e.ok().map(|e| e.path())) {
        if p.extension().is_none_or(|x| x != "json") {
            continue;
        }
        let Some(name) = p.file_name().and_then(|n| n.to_str()).map(str::to_string) else {
            continue;
        };
        if name == SUMMARY_NAME || name == TIMING_SUMMARY_NAME {
            continue;
        }
        if name.starts_with("TIMING_") {
            timing_paths.push(p);
        } else {
            paths.push(p);
        }
    }
    paths.sort();
    timing_paths.sort();
    if paths.is_empty() {
        return Err(format!("no metrics reports (*.json) found in {}", dir.display()));
    }

    let mut reports = Vec::new();
    let mut total_rows = 0u64;
    let mut cause_totals = vec![0u64; AbortCause::ALL.len()];
    let mut lint_totals = vec![0u64; LintId::ALL.len()];
    let mut service_cells: Vec<Json> = Vec::new();
    for path in &paths {
        let (binary, config, rows) = validate(path)?;
        for row in &rows {
            if let Some(causes) = row.get("abort_causes") {
                for (i, cause) in AbortCause::ALL.iter().enumerate() {
                    cause_totals[i] +=
                        causes.get(cause.label()).and_then(Json::as_u64).unwrap_or(0);
                }
            }
            // Static-analysis reports (elision_lint) attach a "findings"
            // array per row; tally them by lint so the summary carries
            // the layout-health trajectory alongside the abort causes.
            if let Some(findings) = row.get("findings").and_then(Json::as_arr) {
                for finding in findings {
                    let label = finding.get("lint").and_then(Json::as_str);
                    for (i, lint) in LintId::ALL.iter().enumerate() {
                        if label == Some(lint.label()) {
                            lint_totals[i] += 1;
                        }
                    }
                }
            }
            // The open-loop service report (SERVICE.json) carries tail
            // percentiles per cell; surface them in the summary so the
            // latency trajectory rides alongside the abort causes.
            if binary == "SERVICE" {
                let latency = row.get("latency");
                let pick =
                    |k: &str| latency.and_then(|l| l.get(k)).and_then(Json::as_u64).unwrap_or(0);
                let cell = format!(
                    "{}/{}/{}/{}",
                    row.get("scheme").and_then(Json::as_str).unwrap_or("?"),
                    row.get("lock").and_then(Json::as_str).unwrap_or("?"),
                    row.get("shards").and_then(Json::as_u64).unwrap_or(0),
                    row.get("load").and_then(Json::as_str).unwrap_or("?"),
                );
                service_cells.push(Json::obj(vec![
                    ("cell", Json::Str(cell)),
                    ("p50", Json::Uint(pick("p50"))),
                    ("p99", Json::Uint(pick("p99"))),
                    ("p999", Json::Uint(pick("p999"))),
                    (
                        "lock_word_aborts",
                        Json::Uint(row.get("lock_word_aborts").and_then(Json::as_u64).unwrap_or(0)),
                    ),
                ]));
            }
        }
        total_rows += rows.len() as u64;
        reports.push(Json::obj(vec![
            ("binary", Json::Str(binary)),
            ("config", config),
            ("rows", Json::Uint(rows.len() as u64)),
        ]));
        println!("merged {}", path.display());
    }

    let summary = Json::obj(vec![
        ("schema_version", Json::Uint(SCHEMA_VERSION)),
        ("reports", Json::Arr(reports)),
        ("total_rows", Json::Uint(total_rows)),
        (
            "abort_cause_totals",
            Json::Obj(
                AbortCause::ALL
                    .iter()
                    .zip(&cause_totals)
                    .map(|(c, &n)| (c.label().to_string(), Json::Uint(n)))
                    .collect(),
            ),
        ),
        ("findings_total", Json::Uint(lint_totals.iter().sum())),
        (
            "lint_totals",
            Json::Obj(
                LintId::ALL
                    .iter()
                    .zip(&lint_totals)
                    .filter(|&(_, &n)| n > 0)
                    .map(|(l, &n)| (l.label().to_string(), Json::Uint(n)))
                    .collect(),
            ),
        ),
        (
            "service_tail_latency",
            Json::obj(vec![
                ("cells", Json::Uint(service_cells.len() as u64)),
                (
                    "worst_p999",
                    Json::Uint(
                        service_cells
                            .iter()
                            .filter_map(|c| c.get("p999").and_then(Json::as_u64))
                            .max()
                            .unwrap_or(0),
                    ),
                ),
                ("percentiles", Json::Arr(service_cells)),
            ]),
        ),
    ]);
    let out = dir.join(SUMMARY_NAME);
    fs::write(&out, summary.render()).map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!("wrote {} ({} reports, {total_rows} rows)", out.display(), paths.len());

    // Wall-clock trajectory: merged separately so the main summary stays
    // byte-reproducible run to run.
    if !timing_paths.is_empty() {
        let mut timing_entries = Vec::new();
        let mut total_wall_ms = 0u64;
        for path in &timing_paths {
            let (entry, wall_ms) = validate_timing(path)?;
            total_wall_ms += wall_ms;
            timing_entries.push(entry);
            println!("merged {}", path.display());
        }
        let n_binaries = timing_entries.len();
        let timing_summary = Json::obj(vec![
            ("schema_version", Json::Uint(SCHEMA_VERSION)),
            ("kind", Json::Str("timing_summary".to_string())),
            ("binaries", Json::Arr(timing_entries)),
            ("total_wall_ms", Json::Uint(total_wall_ms)),
        ]);
        let out = dir.join(TIMING_SUMMARY_NAME);
        fs::write(&out, timing_summary.render())
            .map_err(|e| format!("writing {}: {e}", out.display()))?;
        println!("wrote {} ({n_binaries} binaries, {total_wall_ms} ms wall total)", out.display());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The explorer reports name their rows `cells`; they merge like any
    /// other report, findings included.
    #[test]
    fn explorer_reports_merge_by_their_cells() {
        let dir = std::env::temp_dir().join(format!("summary-cells-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("creating temp dir");
        let cell = Json::obj(vec![(
            "findings",
            Json::Arr(vec![Json::obj(vec![("lint", Json::Str("data-race".to_string()))])]),
        )]);
        let report = Json::obj(vec![
            ("schema_version", Json::Uint(SCHEMA_VERSION)),
            ("binary", Json::Str("model_check".to_string())),
            ("config", Json::obj(vec![])),
            ("cells", Json::Arr(vec![cell])),
        ]);
        fs::write(dir.join("MODELCHECK.json"), report.render()).expect("writing report");
        summarize(&dir).expect("explorer report merges");
        let text = fs::read_to_string(dir.join(SUMMARY_NAME)).expect("summary written");
        let summary = parse(&text).expect("summary parses");
        assert_eq!(summary.get("total_rows").and_then(Json::as_u64), Some(1));
        let races = summary.get("lint_totals").and_then(|t| t.get("data-race"));
        assert_eq!(races.and_then(Json::as_u64), Some(1));
        let _ = fs::remove_dir_all(&dir);
    }
}
