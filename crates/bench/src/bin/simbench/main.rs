//! simbench: host throughput and per-layer host cost of the elision
//! simulator on four workloads (see `README.md` beside this file).
//!
//! ```text
//! simbench [--seed N] [--seconds S] [--trace DIR] [--out FILE]
//! simbench --workload NAME [--seed N] [--seconds S] [--trace 0|1|DIR] [--out FILE]
//! simbench --compare A.json B.json
//! ```
//!
//! Without `--workload` every workload runs in a fresh child process of
//! this binary, one after another. With it, one workload runs in this
//! process: its report goes to stdout as JSON, followed by a one-line
//! result as the last line.

mod compare;
mod kernel;
mod probes;
mod report;
mod stats;
mod workloads;

use elision_bench::metrics::{parse, Json, SCHEMA_VERSION};
use elision_bench::report::Table;
use report::{WorkloadReport, WorkloadRun};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::Workload;

const USAGE: &str = "usage:
  simbench [--seed N] [--seconds S] [--trace DIR] [--out FILE]
  simbench --workload NAME [--seed N] [--seconds S] [--trace 0|1|DIR] [--out FILE]
  simbench --compare A.json B.json
workloads: tree-contended, tree-solo, service-storm, explore-dpor";

/// Timed repetitions per workload run, at least; `--seconds` adds more
/// until that much time has passed since the warm-up ended.
const MIN_REPS: usize = 5;

/// The default `--seconds`. Repetitions take 1–2.5 s, so this gives 5–9
/// of them per workload, and all four workloads run in about a minute.
const DEFAULT_SECONDS: f64 = 10.0;

#[derive(Debug, Clone, PartialEq)]
enum Trace {
    Off,
    /// A traced run that keeps its spans in memory only.
    On,
    /// A traced run that also writes its spans and per-layer metrics here.
    Dir(String),
}

#[derive(Debug)]
struct Args {
    seed: u64,
    seconds: f64,
    trace: Trace,
    workload: Option<Workload>,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: Trace::Off,
        workload: None,
        out: None,
        compare: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(format!("--seconds {s} is outside 0..=3600"));
                }
                args.seconds = s;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => Trace::Off,
                    "1" => Trace::On,
                    dir => Trace::Dir(dir.to_string()),
                }
            }
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--out" => args.out = Some(value()?.into()),
            "--compare" => args.compare = Some((value()?.into(), value()?.into())),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("simbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (&args.compare, args.workload) {
        (Some((a, b)), _) => compare::run(a, b),
        (None, Some(w)) => run_workload(w, &args),
        (None, None) => run_all(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("simbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// A number with about five significant digits.
pub fn fmt(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    let decimals = (4 - v.abs().log10().floor() as i32).clamp(0, 8) as usize;
    format!("{v:.decimals$}")
}

/// Run one workload in this process: a warm-up repetition, then timed
/// repetitions, then (traced) the solo probes. `Ok(false)` if a check
/// failed.
fn run_workload(w: Workload, args: &Args) -> Result<bool, String> {
    let pinned_cpu = kernel::pin_to_one_cpu();
    let traced = args.trace != Trace::Off;
    eprintln!("{}: warm-up (seed {}, traced {traced})", w.name(), args.seed);
    let warmup = w.run_rep(args.seed, traced);
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        reps.push(w.run_rep(args.seed, traced));
    }
    let probes = if traced {
        probes::PROBES.iter().map(|(_, f)| f(args.seed)).collect()
    } else {
        Vec::new()
    };
    let run = WorkloadRun {
        workload: w,
        seed: args.seed,
        traced,
        pinned_cpu,
        warmup,
        reps,
        probes,
        peak_rss_mb: kernel::peak_rss_mb(),
    };
    let report = run.report();
    eprint!("{}", summary(&report));
    if let Trace::Dir(dir) = &args.trace {
        let dir = Path::new(dir);
        run.write_spans(dir).map_err(|e| format!("writing spans to {}: {e}", dir.display()))?;
        let path = dir.join(format!("{}.layers.json", w.name()));
        std::fs::write(&path, report.to_json().render())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    if let Some(out) = &args.out {
        write_out(out, args.seed, std::slice::from_ref(&report), &[])?;
    }
    println!("{}", report.to_json().render());
    println!("{}", report.result_line());
    Ok(report.failed == 0)
}

/// Run `w` in a child process of this binary and read back its report.
fn run_child(w: Workload, args: &Args, trace: &str) -> Result<(WorkloadReport, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", w.name(), "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running the {} child: {e}", w.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (body, _result_line) = stdout.trim_end().rsplit_once('\n').ok_or(format!(
        "the {} child printed no report ({})",
        w.name(),
        output.status
    ))?;
    let report = WorkloadReport::from_json(&parse(body)?)?;
    Ok((report, output.status.success()))
}

/// Run every workload, each in a fresh child process; with `--trace`, a
/// second, traced pass gives the per-layer metrics.
fn run_all(args: &Args) -> Result<bool, String> {
    let started = Instant::now();
    let mut ok = true;
    let mut reports = Vec::new();
    for w in Workload::ALL {
        let (report, child_ok) = run_child(w, args, "0")?;
        ok &= child_ok;
        reports.push(report);
    }
    let mut traced = Vec::new();
    let trace_arg = match &args.trace {
        Trace::Off => None,
        Trace::On => Some("1"),
        Trace::Dir(dir) => Some(dir.as_str()),
    };
    if let Some(trace_arg) = trace_arg {
        for w in Workload::ALL {
            let (report, child_ok) = run_child(w, args, trace_arg)?;
            ok &= child_ok;
            traced.push(report);
        }
    }

    for r in &reports {
        print!("{}", summary(r));
    }
    if !traced.is_empty() {
        print!("{}", layer_table(&reports, &traced));
    }
    println!(
        "all workloads: {:.1} s, {}",
        started.elapsed().as_secs_f64(),
        if ok { "every check passed" } else { "CHECKS FAILED" }
    );
    if let Some(out) = &args.out {
        write_out(out, args.seed, &reports, &traced)?;
    }
    Ok(ok)
}

fn write_out(
    path: &Path,
    seed: u64,
    reports: &[WorkloadReport],
    traced: &[WorkloadReport],
) -> Result<(), String> {
    let doc = Json::obj(vec![
        ("schema_version", Json::Uint(SCHEMA_VERSION)),
        ("binary", Json::Str("simbench".into())),
        ("seed", Json::Uint(seed)),
        ("workloads", Json::Arr(reports.iter().map(WorkloadReport::to_json).collect())),
        ("traced", Json::Arr(traced.iter().map(WorkloadReport::to_json).collect())),
    ]);
    std::fs::write(path, doc.render()).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// The end-to-end metrics of one workload report as text.
fn summary(r: &WorkloadReport) -> String {
    let reps = r.metrics.first().map_or(0, |m| m.samples.len());
    let mut out = format!(
        "\n== {} (seed {}, {} cells, {reps} timed reps, digest {}, CPU {}) ==\n",
        r.workload,
        r.seed,
        r.cells.len(),
        r.digest,
        r.pinned_cpu.map_or("unpinned".into(), |c| c.to_string()),
    );
    let mut t = Table::new(&["metric", "unit", "better", "bound", "median", "q1", "q3", "n"]);
    for m in &r.metrics {
        let s = m.summary();
        let cell = |f: fn(&stats::Summary) -> f64| s.as_ref().map_or("null".into(), |s| fmt(f(s)));
        t.row(vec![
            m.name.clone(),
            m.unit.clone(),
            m.better.label().into(),
            m.bound.label(),
            cell(|s| s.median),
            cell(|s| s.q1),
            cell(|s| s.q3),
            m.samples.len().to_string(),
        ]);
    }
    out.push_str(&t.render());
    if let Some(n) = r.latency_samples {
        out.push_str(&format!("latency percentiles over {n} requests per repetition\n"));
    }
    out.push_str(&format!("checks: {} of {} cell runs failed\n", r.failed, r.attempted));
    for f in &r.failures {
        out.push_str(&format!("  FAILED {f}\n"));
    }
    out
}

/// The per-layer metrics of the traced pass, one column per workload,
/// and the tracing overhead against the untraced pass.
fn layer_table(untraced: &[WorkloadReport], traced: &[WorkloadReport]) -> String {
    let mut headers = vec!["per-layer metric", "unit"];
    headers.extend(traced.iter().map(|r| r.workload.as_str()));
    let mut t = Table::new(&headers);
    let Some(first) = traced.first() else {
        return String::new();
    };
    for (i, l) in first.layers.iter().enumerate() {
        let mut row = vec![l.name.clone(), l.unit.clone()];
        row.extend(
            traced.iter().map(|r| r.layers.get(i).and_then(|l| l.value).map_or("-".into(), fmt)),
        );
        t.row(row);
    }
    let mut out = format!("\n== per-layer metrics (traced pass) ==\n{}", t.render());
    for (u, tr) in untraced.iter().zip(traced) {
        let plain = u.metric("ops_per_s").and_then(|m| m.summary()).map(|s| s.median);
        let with = tr.layers.iter().find(|l| l.name == "trace.ops_per_s").and_then(|l| l.value);
        if let (Some(plain), Some(with)) = (plain, with) {
            out.push_str(&format!(
                "{}: tracing overhead {:+.1}% ({} ops/s untraced, {} traced)\n",
                u.workload,
                (plain / with - 1.0) * 100.0,
                fmt(plain),
                fmt(with)
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::{Bound, LayerMetric, Metric};

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a =
            args(&["--workload", "tree-solo", "--seed", "7", "--seconds", "12", "--trace", "1"])
                .expect("valid arguments");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Some(Workload::TreeSolo), 7, 12.0, Trace::On)
        );
        assert_eq!(
            args(&["--trace", "out/trace"]).expect("a directory").trace,
            Trace::Dir("out/trace".into())
        );
        assert_eq!(args(&["--trace", "0"]).expect("off").trace, Trace::Off);
        assert!(args(&["--workload", "tree"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--seconds", "-1"]).is_err());
        assert!(args(&["--bogus"]).is_err());
    }

    #[test]
    fn reports_round_trip_through_the_metrics_writer_and_parser() {
        let r = WorkloadReport {
            workload: "service-storm".into(),
            seed: 42,
            traced: true,
            pinned_cpu: Some(1),
            cells: vec!["HLE/TTAS".into()],
            attempted: 18,
            failed: 1,
            failures: vec!["rep 2 HLE/TTAS: \"quoted\" reason".into()],
            digest: "00ff00ff00ff00ff".into(),
            latency_samples: Some(70_815),
            metrics: vec![
                Metric {
                    name: "ops_per_s".into(),
                    unit: "ops/s".into(),
                    better: report::Better::Higher,
                    bound: Bound::Frac(0.1),
                    samples: vec![31_412.123_456_789, 30_000.5, 29_999.25],
                },
                Metric {
                    name: "attempts_per_op".into(),
                    unit: "attempts/op".into(),
                    better: report::Better::Lower,
                    bound: Bound::Exact,
                    samples: vec![1.0736, 1.0736],
                },
            ],
            layers: vec![
                LayerMetric { name: "sim.sys_frac".into(), unit: "frac".into(), value: Some(0.5) },
                LayerMetric { name: "setup.fill_ms".into(), unit: "ms".into(), value: None },
            ],
        };
        let text = r.to_json().render();
        let back = WorkloadReport::from_json(&parse(&text).expect("own output parses"))
            .expect("valid report");
        assert_eq!(back, r);
        assert_eq!(back.to_json().render(), text, "re-rendering is byte-identical");
    }

    #[test]
    fn result_line_is_one_json_line_with_the_contract_keys() {
        let line = WorkloadReport {
            workload: "explore-dpor".into(),
            seed: 1,
            traced: false,
            pinned_cpu: None,
            cells: Vec::new(),
            attempted: 24,
            failed: 0,
            failures: Vec::new(),
            digest: "0".into(),
            latency_samples: None,
            metrics: vec![Metric {
                name: "ops_per_s".into(),
                unit: "ops/s".into(),
                better: report::Better::Higher,
                bound: Bound::Frac(0.1),
                samples: vec![2.0, 1.0, 3.0],
            }],
            layers: Vec::new(),
        }
        .result_line();
        assert!(!line.contains('\n'));
        let doc = parse(&line).expect("one JSON document");
        let Json::Obj(pairs) = &doc else { panic!("not an object: {line}") };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let ops = doc.get("metrics").and_then(|m| m.get("ops_per_s")).expect("ops_per_s reported");
        assert_eq!(ops.get("value"), Some(&Json::Float(2.0)));
        assert_eq!(ops.get("unit").and_then(Json::as_str), Some("ops/s"));
    }

    /// `BENCHMARK.json` at the repository root names exactly the metrics
    /// this binary reports in its result line, with the same units and
    /// directions, and the same bounds where a bound is a share.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let doc =
            parse(include_str!("../../../../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let list = |k: &str| doc.get(k).and_then(Json::as_arr).expect("a metric list");
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), report::END_TO_END.len());
        for (j, d) in e2e.iter().zip(&report::END_TO_END) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(d.name));
            assert_eq!(j.get("unit").and_then(Json::as_str), Some(d.unit));
            assert_eq!(j.get("better").and_then(Json::as_str), Some(d.better.label()));
            if let Bound::Frac(f) = d.bound {
                assert_eq!(j.get("bound"), Some(&Json::Float(f)), "{}", d.name);
            }
        }
        let names: Vec<String> = list("per_layer")
            .iter()
            .map(|j| j.get("name").and_then(Json::as_str).expect("a name").to_string())
            .collect();
        let expected: Vec<String> = report::EVERY_WORKLOAD_LAYERS
            .iter()
            .chain(probes::PROBES.iter().map(|(n, _)| n))
            .map(|n| n.to_string())
            .collect();
        assert_eq!(names, expected);
        let workloads: Vec<&str> = list("workloads")
            .iter()
            .map(|j| j.get("name").and_then(Json::as_str).expect("a name"))
            .collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));
    }
}
