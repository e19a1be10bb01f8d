//! What a workload run reports: the end-to-end metrics of its timed
//! repetitions, the per-layer metrics of a traced run, the checks and the
//! digest, and their JSON form (written and parsed with
//! `elision_bench::metrics`).

use crate::kernel::{CpuTimes, ThreadCounters};
use crate::probes::PROBES;
use crate::stats::{Fnv, Summary};
use crate::workloads::{CellRun, Latency, Phase, Rep, Workload};
use elision_bench::metrics::Json;
use elision_sim::{AbortCause, OpCounters};
use std::fs;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    fn parse(s: &str) -> Option<Better> {
        [Better::Higher, Better::Lower].into_iter().find(|b| b.label() == s)
    }
}

/// How far a metric may move between two runs of one seed before it
/// counts as a change: a share of the first run's median, or not at all
/// for a simulated statistic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    Frac(f64),
    Exact,
}

impl Bound {
    pub fn label(self) -> String {
        match self {
            Bound::Frac(f) => format!("{:.0}%", f * 100.0),
            Bound::Exact => "exact".into(),
        }
    }

    fn to_json(self) -> Json {
        match self {
            Bound::Frac(f) => Json::Float(f),
            Bound::Exact => Json::Str("exact".into()),
        }
    }

    fn from_json(j: &Json) -> Option<Bound> {
        match j {
            Json::Float(f) => Some(Bound::Frac(*f)),
            Json::Str(s) if s == "exact" => Some(Bound::Exact),
            _ => None,
        }
    }
}

#[derive(Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Bound,
}

const fn def(name: &'static str, unit: &'static str, better: Better, bound: Bound) -> MetricDef {
    MetricDef { name, unit, better, bound }
}

/// The end-to-end metrics every workload reports, as `BENCHMARK.json`
/// lists them. An op is a critical section in the tree workloads, a
/// request in `service-storm` and an explored execution in `explore-dpor`.
pub const END_TO_END: [MetricDef; 5] = [
    def("ops_per_s", "ops/s", Better::Higher, Bound::Frac(0.25)),
    def("cpu_us_per_op", "us", Better::Lower, Bound::Frac(0.25)),
    def("setup_s", "s", Better::Lower, Bound::Frac(0.25)),
    def("peak_rss_mb", "MB", Better::Lower, Bound::Frac(0.15)),
    def("attempts_per_op", "attempts/op", Better::Lower, Bound::Exact),
];

const SIM_THROUGHPUT: MetricDef = def("sim_throughput", "ops/kcycle", Better::Higher, Bound::Exact);
const LATENCY_P50: MetricDef = def("latency_p50_cycles", "cycles", Better::Lower, Bound::Exact);
const LATENCY_P99: MetricDef = def("latency_p99_cycles", "cycles", Better::Lower, Bound::Exact);
const FAILED_FRAC: MetricDef = def("failed_frac", "frac", Better::Lower, Bound::Exact);

/// The per-layer metrics every workload reports, as `BENCHMARK.json`
/// lists them after these three: the solo probes, in `PROBES` order.
/// The other per-layer metrics exist only where a workload exercises
/// their layer through code the benchmark owns.
pub const EVERY_WORKLOAD_LAYERS: [&str; 3] = ["trace.ops_per_s", "sim.cpu_util", "sim.sys_frac"];

/// One workload run: a warm-up repetition and the timed ones.
pub struct WorkloadRun {
    pub workload: Workload,
    pub seed: u64,
    pub traced: bool,
    pub pinned_cpu: Option<usize>,
    pub warmup: Rep,
    pub reps: Vec<Rep>,
    /// Solo probe results (traced runs only), in `PROBES` order.
    pub probes: Vec<f64>,
    pub peak_rss_mb: Option<f64>,
}

/// A metric with its samples, one per timed repetition (or one per run).
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: Better,
    pub bound: Bound,
    pub samples: Vec<f64>,
}

impl Metric {
    fn new(d: &MetricDef, samples: Vec<f64>) -> Metric {
        Metric {
            name: d.name.into(),
            unit: d.unit.into(),
            better: d.better,
            bound: d.bound,
            samples,
        }
    }

    pub fn summary(&self) -> Option<Summary> {
        Summary::of(&self.samples)
    }
}

/// A per-layer metric; `None` where the workload cannot measure it.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerMetric {
    pub name: String,
    pub unit: String,
    pub value: Option<f64>,
}

/// Everything one workload run reports; the JSON the `--workload` mode
/// prints and `--out` files collect.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadReport {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub pinned_cpu: Option<u64>,
    pub cells: Vec<String>,
    /// Cell runs checked, warm-up included, and how many failed.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// FNV-1a over every simulated statistic of one repetition.
    pub digest: String,
    /// Latency samples behind the latency percentiles, per repetition.
    pub latency_samples: Option<u64>,
    pub metrics: Vec<Metric>,
    pub layers: Vec<LayerMetric>,
}

/// The digest of one repetition: every simulated statistic of every cell.
pub fn digest(workload: Workload, rep: &Rep) -> u64 {
    let mut h = Fnv::new();
    h.str(workload.name());
    let latency = |h: &mut Fnv, l: &Latency| {
        for v in [l.count, l.p50, l.p90, l.p99, l.max] {
            h.u64(v);
        }
    };
    for c in &rep.cells {
        let m = &c.model;
        h.str(&c.key);
        for v in [m.ops, m.attempts, m.makespan] {
            h.u64(v);
        }
        if let Some(k) = &m.counters {
            for v in [k.speculative, k.aborted, k.nonspeculative, k.arrived_lock_held] {
                h.u64(v);
            }
            for cause in AbortCause::ALL {
                h.u64(k.causes.get(cause));
            }
        }
        if let Some(l) = &m.latency {
            latency(&mut h, l);
        }
        for (name, v) in &m.extra {
            h.str(name);
            h.u64(*v);
        }
    }
    if let Some(l) = &rep.latency {
        latency(&mut h, l);
    }
    h.finish()
}

fn sum_ops(cells: &[CellRun]) -> f64 {
    cells.iter().map(|c| c.model.ops as f64).sum()
}

fn run_secs(cells: &[CellRun]) -> f64 {
    cells.iter().map(|c| c.phase_time(Phase::Run).as_secs_f64()).sum()
}

fn ops_per_s(cells: &[CellRun]) -> Option<f64> {
    Some(sum_ops(cells) / run_secs(cells))
}

/// Process CPU over the cells' layer calls; `None` if any is unknown.
fn sum_cpu<'a>(cells: impl IntoIterator<Item = &'a CellRun>) -> Option<CpuTimes> {
    cells.into_iter().try_fold(CpuTimes::default(), |mut acc, c| {
        acc.add(&c.cpu?);
        Some(acc)
    })
}

impl WorkloadRun {
    fn cells(&self) -> impl Iterator<Item = &CellRun> {
        self.reps.iter().flat_map(|r| &r.cells)
    }

    /// One value per timed repetition; repetitions `f` cannot measure
    /// are left out.
    fn per_rep(&self, f: impl Fn(&[CellRun]) -> Option<f64>) -> Vec<f64> {
        self.reps.iter().filter_map(|r| f(&r.cells)).collect()
    }

    fn metrics(&self, attempted: u64, failed: u64) -> Vec<Metric> {
        let mut out = vec![
            Metric::new(&END_TO_END[0], self.per_rep(ops_per_s)),
            Metric::new(
                &END_TO_END[1],
                self.per_rep(|r| Some(sum_cpu(r)?.total() * 1e6 / sum_ops(r))),
            ),
            Metric::new(
                &END_TO_END[2],
                self.per_rep(|r| {
                    Some(r.iter().map(|c| c.phase_time(Phase::Setup).as_secs_f64()).sum())
                }),
            ),
            Metric::new(&END_TO_END[3], self.peak_rss_mb.into_iter().collect()),
            Metric::new(
                &END_TO_END[4],
                self.per_rep(|r| {
                    Some(r.iter().map(|c| c.model.attempts as f64).sum::<f64>() / sum_ops(r))
                }),
            ),
        ];
        if self.workload.is_tree() {
            out.push(Metric::new(
                &SIM_THROUGHPUT,
                self.per_rep(|r| {
                    let cycles: u64 = r.iter().map(|c| c.model.makespan).sum();
                    Some(sum_ops(r) * 1000.0 / cycles as f64)
                }),
            ));
        }
        if self.workload == Workload::ServiceStorm {
            let latencies = || self.reps.iter().filter_map(|r| r.latency);
            out.push(Metric::new(&LATENCY_P50, latencies().map(|l| l.p50 as f64).collect()));
            out.push(Metric::new(&LATENCY_P99, latencies().map(|l| l.p99 as f64).collect()));
        }
        out.push(Metric::new(&FAILED_FRAC, vec![failed as f64 / attempted.max(1) as f64]));
        out
    }

    /// The per-layer metrics: aggregated over every timed repetition,
    /// counts given per repetition.
    fn layers(&self) -> Vec<LayerMetric> {
        let reps = self.reps.len().max(1) as f64;
        let ops: f64 = self.reps.iter().map(|r| sum_ops(&r.cells)).sum();
        let run: f64 = self.reps.iter().map(|r| run_secs(&r.cells)).sum();
        let cpu = sum_cpu(self.cells());
        let threads = self.cells().try_fold(ThreadCounters::default(), |mut acc, c| {
            acc.add(&c.threads?);
            Some(acc)
        });
        let counters = self.cells().try_fold(OpCounters::new(), |mut acc, c| {
            acc.merge(c.model.counters.as_ref()?);
            Some(acc)
        });
        let mut per_op = crate::workloads::PerOp::default();
        for c in self.cells() {
            per_op.add(&c.per_op);
        }
        let span_ms = |name: &str| {
            let mut cells =
                self.cells().filter(|c| c.spans.iter().any(|s| s.name == name)).peekable();
            cells.peek()?;
            Some(cells.map(|c| c.span_time(name).as_secs_f64()).sum::<f64>() * 1e3 / reps)
        };
        let extra = |name: &str| -> Option<f64> {
            self.cells().map(|c| c.model.extra(name)).sum::<Option<u64>>().map(|v| v as f64 / reps)
        };
        let ratio = |num: f64, den: f64| (den > 0.0).then(|| num / den);
        let traced_ops = (per_op.executes > 0).then_some(per_op);
        let is = |w: Workload| self.workload == w;

        let mut out: Vec<(String, &str, Option<f64>)> = vec![
            (
                "trace.ops_per_s".into(),
                "ops/s",
                Summary::of(&self.per_rep(ops_per_s)).map(|s| s.median),
            ),
            ("sim.cpu_util".into(), "cpu/wall", cpu.and_then(|c| ratio(c.total(), run))),
            ("sim.sys_frac".into(), "frac", cpu.and_then(|c| ratio(c.sys, c.total()))),
        ];
        out.extend(
            PROBES.iter().zip(&self.probes).map(|((n, _), v)| (n.to_string(), "ns", Some(*v))),
        );
        out.extend([
            (
                "sim.ctx_switches_per_op".into(),
                "count",
                threads.map(|t| t.ctx_switches as f64 / ops),
            ),
            ("sim.thread_cpu_ms".into(), "ms", threads.map(|t| t.cpu_ns as f64 / 1e6 / reps)),
            ("sim.runq_wait_ms".into(), "ms", threads.map(|t| t.runq_wait_ns as f64 / 1e6 / reps)),
            (
                "sim.makespan_cycles".into(),
                "cycles",
                (!is(Workload::ExploreDpor))
                    .then(|| self.cells().map(|c| c.model.makespan as f64).sum::<f64>() / reps),
            ),
            ("htm.commits".into(), "count", counters.map(|k| k.speculative as f64 / reps)),
            ("htm.aborts".into(), "count", counters.map(|k| k.aborted as f64 / reps)),
            (
                "htm.commit_ratio".into(),
                "frac",
                counters
                    .and_then(|k| ratio(k.speculative as f64, (k.speculative + k.aborted) as f64)),
            ),
        ]);
        for cause in AbortCause::ALL {
            out.push((
                format!("htm.aborts.{}", cause.label()),
                "count",
                counters.map(|k| k.causes.get(cause) as f64 / reps),
            ));
        }
        out.extend([
            (
                "locks.nonspec_frac".into(),
                "frac",
                counters.and_then(|k| ratio(k.nonspeculative as f64, k.completed() as f64)),
            ),
            (
                "locks.arrived_lock_held_frac".into(),
                "frac",
                counters.and_then(|k| ratio(k.arrived_lock_held as f64, k.completed() as f64)),
            ),
            (
                "core.execute.self_us_per_op".into(),
                "us",
                traced_ops
                    .map(|p| p.execute_ns.saturating_sub(p.op_ns) as f64 / p.executes as f64 / 1e3),
            ),
            (
                "structures.op.us_per_attempt".into(),
                "us",
                traced_ops.map(|p| p.op_ns as f64 / p.op_attempts.max(1) as f64 / 1e3),
            ),
            (
                "structures.attempts_per_op".into(),
                "attempts/op",
                traced_ops.map(|p| p.op_attempts as f64 / p.executes as f64),
            ),
            ("service.plan_ms".into(), "ms", span_ms("service.build_plan")),
            ("service.requests".into(), "count", is(Workload::ServiceStorm).then(|| ops / reps)),
            (
                "service.hot_shard_lock_word_aborts".into(),
                "count",
                extra("hot_shard_lock_word_aborts"),
            ),
            (
                "service.storm_p99_cycles".into(),
                "cycles",
                self.reps.first().and_then(|r| {
                    r.cells
                        .iter()
                        .filter_map(|c| c.model.extra("storm_p99_cycles"))
                        .max()
                        .map(|v| v as f64)
                }),
            ),
            ("analysis.executions".into(), "count", is(Workload::ExploreDpor).then(|| ops / reps)),
            (
                "analysis.runs_per_execution".into(),
                "runs",
                is(Workload::ExploreDpor)
                    .then(|| self.cells().map(|c| c.model.attempts as f64).sum::<f64>() / ops),
            ),
            (
                "analysis.us_per_execution".into(),
                "us",
                is(Workload::ExploreDpor).then(|| run / ops * 1e6),
            ),
            ("setup.memory_ms".into(), "ms", span_ms("setup.memory")),
            ("setup.fill_ms".into(), "ms", span_ms("setup.fill")),
        ]);
        out.into_iter()
            .map(|(name, unit, value)| LayerMetric { name, unit: unit.into(), value })
            .collect()
    }

    pub fn report(&self) -> WorkloadReport {
        let base = digest(self.workload, &self.warmup);
        let (mut attempted, mut failed, mut failures) = (0, 0, Vec::new());
        for (i, rep) in std::iter::once(&self.warmup).chain(&self.reps).enumerate() {
            let same = digest(self.workload, rep) == base;
            for c in &rep.cells {
                attempted += 1;
                let mut why = c.failures.clone();
                if !same {
                    why.push("simulated statistics differ from the warm-up repetition".into());
                }
                if !why.is_empty() {
                    failed += 1;
                    failures.push(format!("rep {i} {}: {}", c.key, why.join("; ")));
                }
            }
        }
        WorkloadReport {
            workload: self.workload.name().into(),
            seed: self.seed,
            traced: self.traced,
            pinned_cpu: self.pinned_cpu.map(|c| c as u64),
            cells: self.warmup.cells.iter().map(|c| c.key.clone()).collect(),
            attempted,
            failed,
            failures,
            digest: format!("{base:016x}"),
            latency_samples: (self.workload == Workload::ServiceStorm)
                .then(|| self.warmup.latency.map_or(0, |l| l.count)),
            metrics: self.metrics(attempted, failed),
            layers: if self.traced { self.layers() } else { Vec::new() },
        }
    }

    /// Write the spans of the timed repetitions to `dir/<workload>.spans.json`,
    /// with times in microseconds from the first span.
    pub fn write_spans(&self, dir: &Path) -> io::Result<()> {
        let Some(epoch) = self.cells().flat_map(|c| &c.spans).map(|s| s.start).min() else {
            return Ok(());
        };
        let us = |t: Instant| (t - epoch).as_secs_f64() * 1e6;
        let mut spans = Vec::new();
        for (rep, r) in self.reps.iter().enumerate() {
            for c in &r.cells {
                let (Some(first), Some(last)) = (c.spans.first(), c.spans.last()) else {
                    continue;
                };
                let cell_id = spans.len() as u64;
                let span = |id: u64, name: &str, parent: Option<u64>, start: f64, end: f64| {
                    Json::obj(vec![
                        ("id", Json::Uint(id)),
                        ("parent", parent.map_or(Json::Null, Json::Uint)),
                        ("name", Json::Str(name.into())),
                        ("cell", Json::Str(c.key.clone())),
                        ("rep", Json::Uint(rep as u64)),
                        ("start_us", Json::Float(start)),
                        ("end_us", Json::Float(end)),
                    ])
                };
                spans.push(span(cell_id, "cell", None, us(first.start), us(last.end)));
                for s in &c.spans {
                    spans.push(span(
                        spans.len() as u64,
                        s.name,
                        Some(cell_id),
                        us(s.start),
                        us(s.end),
                    ));
                }
                if c.per_op.executes > 0 {
                    // Per-op spans are kept as totals under `sim.run`; one
                    // record per op would not fit in memory on tree-solo.
                    let run_id = spans.len() as u64 - 1;
                    let total = |id: u64, name: &str, parent: u64, count: u64, ns: u64| {
                        Json::obj(vec![
                            ("id", Json::Uint(id)),
                            ("parent", Json::Uint(parent)),
                            ("name", Json::Str(name.into())),
                            ("cell", Json::Str(c.key.clone())),
                            ("rep", Json::Uint(rep as u64)),
                            ("count", Json::Uint(count)),
                            ("total_us", Json::Float(ns as f64 / 1e3)),
                        ])
                    };
                    let p = c.per_op;
                    let exec_id = spans.len() as u64;
                    spans.push(total(exec_id, "core.execute", run_id, p.executes, p.execute_ns));
                    spans.push(total(
                        exec_id + 1,
                        "structures.op",
                        exec_id,
                        p.op_attempts,
                        p.op_ns,
                    ));
                }
            }
        }
        let doc = Json::obj(vec![
            ("workload", Json::Str(self.workload.name().into())),
            ("seed", Json::Uint(self.seed)),
            ("spans", Json::Arr(spans)),
        ]);
        fs::create_dir_all(dir)?;
        fs::write(dir.join(format!("{}.spans.json", self.workload.name())), doc.render())
    }
}

fn opt_float(v: Option<f64>) -> Json {
    v.map_or(Json::Null, Json::Float)
}

fn num(j: &Json) -> Option<f64> {
    match j {
        Json::Float(f) => Some(*f),
        Json::Uint(u) => Some(*u as f64),
        Json::Int(i) => Some(*i as f64),
        _ => None,
    }
}

impl WorkloadReport {
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let s = m.summary();
                let pairs = vec![
                    ("unit", Json::Str(m.unit.clone())),
                    ("better", Json::Str(m.better.label().into())),
                    ("bound", m.bound.to_json()),
                    ("median", opt_float(s.map(|s| s.median))),
                    ("q1", opt_float(s.map(|s| s.q1))),
                    ("q3", opt_float(s.map(|s| s.q3))),
                    ("n", Json::Uint(m.samples.len() as u64)),
                    ("samples", Json::Arr(m.samples.iter().map(|&v| Json::Float(v)).collect())),
                ];
                (m.name.clone(), Json::obj(pairs))
            })
            .collect();
        let layers = self
            .layers
            .iter()
            .map(|l| {
                let pairs =
                    vec![("unit", Json::Str(l.unit.clone())), ("value", opt_float(l.value))];
                (l.name.clone(), Json::obj(pairs))
            })
            .collect();
        Json::obj(vec![
            ("workload", Json::Str(self.workload.clone())),
            ("seed", Json::Uint(self.seed)),
            ("traced", Json::Bool(self.traced)),
            ("pinned_cpu", self.pinned_cpu.map_or(Json::Null, Json::Uint)),
            ("cells", Json::Arr(self.cells.iter().map(|c| Json::Str(c.clone())).collect())),
            ("attempted", Json::Uint(self.attempted)),
            ("failed", Json::Uint(self.failed)),
            ("failures", Json::Arr(self.failures.iter().map(|f| Json::Str(f.clone())).collect())),
            ("digest", Json::Str(self.digest.clone())),
            ("latency_samples", self.latency_samples.map_or(Json::Null, Json::Uint)),
            ("metrics", Json::Obj(metrics)),
            ("layers", Json::Obj(layers)),
        ])
    }

    pub fn from_json(j: &Json) -> Result<WorkloadReport, String> {
        let field = |k: &str| j.get(k).ok_or_else(|| format!("report lacks {k:?}"));
        let text =
            |k: &str| field(k)?.as_str().map(str::to_string).ok_or(format!("{k} is not a string"));
        let count = |k: &str| field(k)?.as_u64().ok_or(format!("{k} is not a count"));
        let strings = |k: &str| -> Result<Vec<String>, String> {
            let items = field(k)?.as_arr().ok_or(format!("{k} is not an array"))?;
            items
                .iter()
                .map(|s| s.as_str().map(str::to_string).ok_or(format!("{k} holds a non-string")))
                .collect()
        };
        let entries = |k: &str| match field(k)? {
            Json::Obj(pairs) => Ok(pairs),
            _ => Err(format!("{k} is not an object")),
        };
        let unit = |v: &Json| v.get("unit").and_then(Json::as_str).map(str::to_string);

        let mut metrics = Vec::new();
        for (name, m) in entries("metrics")? {
            let bad = || format!("metric {name} is malformed");
            let samples = m.get("samples").and_then(Json::as_arr).ok_or_else(bad)?;
            metrics.push(Metric {
                name: name.clone(),
                unit: unit(m).ok_or_else(bad)?,
                better: m
                    .get("better")
                    .and_then(Json::as_str)
                    .and_then(Better::parse)
                    .ok_or_else(bad)?,
                bound: m.get("bound").and_then(Bound::from_json).ok_or_else(bad)?,
                samples: samples.iter().map(num).collect::<Option<_>>().ok_or_else(bad)?,
            });
        }
        let mut layers = Vec::new();
        for (name, l) in entries("layers")? {
            layers.push(LayerMetric {
                name: name.clone(),
                unit: unit(l).ok_or_else(|| format!("layer metric {name} lacks a unit"))?,
                value: l.get("value").and_then(num),
            });
        }
        Ok(WorkloadReport {
            workload: text("workload")?,
            seed: count("seed")?,
            traced: matches!(field("traced")?, Json::Bool(true)),
            pinned_cpu: field("pinned_cpu")?.as_u64(),
            cells: strings("cells")?,
            attempted: count("attempted")?,
            failed: count("failed")?,
            failures: strings("failures")?,
            digest: text("digest")?,
            latency_samples: field("latency_samples")?.as_u64(),
            metrics,
            layers,
        })
    }

    /// The one-line result for a benchmark harness: the `END_TO_END`
    /// medians, or with tracing the per-layer metrics every workload has.
    pub fn result_line(&self) -> String {
        let metric = |name: &str, unit: &str, value: Option<f64>| {
            (
                name.to_string(),
                Json::obj(vec![("value", opt_float(value)), ("unit", Json::Str(unit.into()))]),
            )
        };
        let metrics = if self.traced {
            let names = EVERY_WORKLOAD_LAYERS.iter().copied().chain(PROBES.iter().map(|(n, _)| *n));
            names
                .filter_map(|n| self.layers.iter().find(|l| l.name == n))
                .map(|l| metric(&l.name, &l.unit, l.value))
                .collect()
        } else {
            END_TO_END
                .iter()
                .filter_map(|d| self.metric(d.name))
                .map(|m| metric(&m.name, &m.unit, m.summary().map(|s| s.median)))
                .collect()
        };
        let doc = Json::obj(vec![
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Uint(self.attempted)),
            ("failed", Json::Uint(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ]);
        // The writer indents; strings never span lines, so dropping the
        // indentation leaves the same document on one line.
        doc.render().lines().map(str::trim_start).collect()
    }
}
