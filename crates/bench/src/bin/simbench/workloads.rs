//! The four workloads. Every cell is built here from the layer crates'
//! public API, not through `treebench.rs` or `servicebench.rs` in
//! `elision_bench`, so a refactor of those cannot change what this
//! benchmark measures.
//!
//! All runs use scheduler window 0, so every simulated statistic of a
//! cell is a pure function of the seed. A repetition runs every cell of
//! its workload once, serially, on the calling thread.

use crate::kernel::{self, CpuTimes, ThreadCounters};
use elision_analysis::explore::{explore_cell, ExploreSpec};
use elision_core::{
    make_scheme, LatencyHistogram, LockKind, Scheme, SchemeConfig, SchemeKind, Watchdog,
};
use elision_htm::{harness, HtmConfig, Memory, MemoryBuilder, Strand};
use elision_service::{build_plan, run_service, ServiceMix, ServiceSpec};
use elision_sim::{AbortCause, ArrivalPhase, OpCounters};
use elision_structures::{
    key_domain, HashTable, OpMix, RbTree, SimQueue, SortedList, StructureKind, TreeOp,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TreeContended,
    TreeSolo,
    ServiceStorm,
    ExploreDpor,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::TreeContended,
        Workload::TreeSolo,
        Workload::ServiceStorm,
        Workload::ExploreDpor,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TreeContended => "tree-contended",
            Workload::TreeSolo => "tree-solo",
            Workload::ServiceStorm => "service-storm",
            Workload::ExploreDpor => "explore-dpor",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_tree(self) -> bool {
        matches!(self, Workload::TreeContended | Workload::TreeSolo)
    }

    /// Run every cell of the workload once. `traced` adds the per-op
    /// spans and per-thread kernel counters inside the tree cells' bodies.
    pub fn run_rep(self, seed: u64, traced: bool) -> Rep {
        let outs: Vec<(CellRun, Option<LatencyHistogram>)> = match self {
            Workload::TreeContended => TREE_CELLS
                .iter()
                .map(|&(s, l)| run_tree_cell(&CONTENDED, s, l, seed, traced))
                .collect(),
            Workload::TreeSolo => {
                TREE_CELLS.iter().map(|&(s, l)| run_tree_cell(&SOLO, s, l, seed, traced)).collect()
            }
            Workload::ServiceStorm => SERVICE_SCHEMES
                .iter()
                .map(|&s| run_service_cell(s, seed, SERVICE_PHASE_CYCLES))
                .collect(),
            Workload::ExploreDpor => {
                (0..EXPLORE_CELLS).map(|i| run_explore_cell(i, seed)).collect()
            }
        };
        let mut merged: Option<LatencyHistogram> = None;
        for h in outs.iter().filter_map(|(_, h)| h.as_ref()) {
            merged.get_or_insert_with(LatencyHistogram::new).merge(h);
        }
        Rep {
            cells: outs.into_iter().map(|(c, _)| c).collect(),
            latency: merged.as_ref().map(Latency::of),
        }
    }
}

/// One repetition: every cell of a workload, run once.
#[derive(Debug, Clone)]
pub struct Rep {
    pub cells: Vec<CellRun>,
    /// The latency of every op of the repetition, all cells merged.
    pub latency: Option<Latency>,
}

/// A latency distribution in simulated cycles, reduced from its
/// histogram: a repetition keeps these few words, not ~60 KB of buckets
/// per cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Latency {
    pub count: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    pub max: u64,
}

impl Latency {
    fn of(h: &LatencyHistogram) -> Latency {
        let p = |q| h.percentile(q).unwrap_or(0);
        Latency { count: h.count(), p50: p(50), p90: p(90), p99: p(99), max: h.max() }
    }
}

/// Which part of a cell a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Building the cell's input: memory, fill, request plan.
    Setup,
    /// The layer call that runs the simulation.
    Run,
}

/// A span recorded around one call into a layer. Every span of a cell is
/// a child of that cell's `cell` span, which covers them all.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub phase: Phase,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }
}

/// Time `f` as a span named `name`.
fn span<T>(spans: &mut Vec<Span>, name: &'static str, phase: Phase, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    spans.push(Span { name, phase, start, end: Instant::now() });
    out
}

/// Time the layer call `f` as a `Run` span, with the process CPU time it
/// took.
fn run_span<T>(
    spans: &mut Vec<Span>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, Option<CpuTimes>) {
    let cpu0 = kernel::process_cpu();
    let out = span(spans, name, Phase::Run, f);
    (out, cpu0.zip(kernel::process_cpu()).map(|(a, b)| b.since(&a)))
}

/// The outcome of one cell in one repetition.
#[derive(Debug, Clone, Default)]
pub struct CellRun {
    pub key: String,
    pub spans: Vec<Span>,
    /// Process CPU time over the `Run` spans.
    pub cpu: Option<CpuTimes>,
    pub model: Model,
    /// Checks the cell failed; empty when its outputs are correct.
    pub failures: Vec<String>,
    /// Per-op spans inside the simulated threads (traced tree cells).
    pub per_op: PerOp,
    /// Kernel counters of the simulated threads, summed; `None` unless a
    /// traced tree cell could read `/proc/thread-self` in every thread.
    pub threads: Option<ThreadCounters>,
}

impl CellRun {
    pub fn phase_time(&self, phase: Phase) -> Duration {
        self.spans.iter().filter(|s| s.phase == phase).map(Span::duration).sum()
    }

    pub fn span_time(&self, name: &str) -> Duration {
        self.spans.iter().filter(|s| s.name == name).map(Span::duration).sum()
    }
}

/// The simulated statistics of one cell. They repeat exactly for a seed.
#[derive(Debug, Clone, Default)]
pub struct Model {
    /// Completed ops: critical sections, requests or executions.
    pub ops: u64,
    /// Attempts spent on them: critical-section attempts, or explorer
    /// runs (a run that replays a known execution is a wasted attempt).
    pub attempts: u64,
    /// Simulated makespan in cycles; 0 where the layer does not expose it.
    pub makespan: u64,
    pub counters: Option<OpCounters>,
    /// Per-op latency: from the op's start in the tree workloads, from
    /// the scheduled arrival in the service.
    pub latency: Option<Latency>,
    /// Workload-specific statistics, by name.
    pub extra: Vec<(&'static str, u64)>,
}

impl Model {
    pub fn extra(&self, name: &str) -> Option<u64> {
        self.extra.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// The `core.execute` span of every op and the `structures.op` span of
/// every attempt inside it, summed over a cell's simulated threads.
/// Thread switches happen inside these spans, so in a multi-threaded
/// cell they include time spent blocked while a peer ran.
#[derive(Debug, Clone, Copy, Default)]
pub struct PerOp {
    pub execute_ns: u64,
    pub executes: u64,
    pub op_ns: u64,
    pub op_attempts: u64,
}

impl PerOp {
    pub fn add(&mut self, o: &PerOp) {
        self.execute_ns += o.execute_ns;
        self.executes += o.executes;
        self.op_ns += o.op_ns;
        self.op_attempts += o.op_attempts;
    }
}

fn check_causes(counters: &OpCounters, failures: &mut Vec<String>) {
    if counters.causes.total() != counters.aborted {
        failures.push(format!(
            "abort causes sum to {}, aborted is {}",
            counters.causes.total(),
            counters.aborted
        ));
    }
}

// ---------------------------------------------------------------------------
// tree-contended and tree-solo

/// {Standard, HLE, HLE-SCM, Opt-SLR} × {TTAS, MCS}.
const TREE_CELLS: [(SchemeKind, LockKind); 8] = [
    (SchemeKind::Standard, LockKind::Ttas),
    (SchemeKind::Hle, LockKind::Ttas),
    (SchemeKind::HleScm, LockKind::Ttas),
    (SchemeKind::OptSlr, LockKind::Ttas),
    (SchemeKind::Standard, LockKind::Mcs),
    (SchemeKind::Hle, LockKind::Mcs),
    (SchemeKind::HleScm, LockKind::Mcs),
    (SchemeKind::OptSlr, LockKind::Mcs),
];

/// The shape of a closed-loop tree cell.
struct TreeShape {
    threads: usize,
    size: usize,
    mix: OpMix,
    ops_per_thread: u64,
}

/// Write-heavy and handoff-bound: four threads on a small tree.
const CONTENDED: TreeShape =
    TreeShape { threads: 4, size: 512, mix: OpMix::EXTENSIVE, ops_per_thread: 200 };

/// Read-heavy with no handoffs: one thread on a tree of 8,192 keys. Its
/// nodes fit the host's L2 cache, so host time is the layers' own work
/// rather than host cache misses, which vary with the machine's other
/// load (a 65,536-key tree doubled the run-to-run spread).
const SOLO: TreeShape =
    TreeShape { threads: 1, size: 8_192, mix: OpMix::MODERATE, ops_per_thread: 200_000 };

/// What each simulated thread of a tree cell returns.
struct TreeThreadOut {
    counters: OpCounters,
    watchdog: Watchdog,
    /// Inserts that added a key minus deletes that removed one.
    net_inserted: i64,
    per_op: PerOp,
    kernel: Option<ThreadCounters>,
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn run_tree_cell(
    shape: &TreeShape,
    kind: SchemeKind,
    lock: LockKind,
    seed: u64,
    traced: bool,
) -> (CellRun, Option<LatencyHistogram>) {
    let mut spans = Vec::new();
    let domain = key_domain(shape.size);
    let (tree, scheme, mem) = span(&mut spans, "setup.memory", Phase::Setup, || {
        let mut b = MemoryBuilder::new();
        let tree = RbTree::new(&mut b, domain as usize + shape.threads * 4 + 16, shape.threads);
        let scheme = make_scheme(kind, lock, SchemeConfig::paper(), &mut b, shape.threads);
        let mem = Arc::new(b.freeze(shape.threads));
        tree.init(&mem);
        (tree, scheme, mem)
    });
    span(&mut spans, "setup.fill", Phase::Setup, || {
        let fill = {
            let tree = tree.clone();
            let size = shape.size;
            move |s: &mut Strand| {
                let mut filled = 0;
                while filled < size {
                    let key = s.rng.below(domain);
                    if tree.insert(s, key).expect("the fill runs without transactions") {
                        filled += 1;
                    }
                }
            }
        };
        harness::run_arc(1, 0, HtmConfig::deterministic(), seed ^ 0xF111, Arc::clone(&mem), fill);
        // The fill drained the per-thread allocator pools unevenly.
        tree.rebalance_freelists(&mem);
    });

    let body = {
        let tree = tree.clone();
        let scheme = Arc::clone(&scheme);
        let (ops, mix) = (shape.ops_per_thread, shape.mix);
        move |s: &mut Strand| tree_thread(s, &tree, &scheme, ops, mix, domain, traced)
    };
    let ((outs, makespan), cpu) = run_span(&mut spans, "sim.run", || {
        harness::run_arc(shape.threads, 0, HtmConfig::haswell(), seed, Arc::clone(&mem), body)
    });

    let mut counters = OpCounters::new();
    let mut latency = Watchdog::new(0);
    let mut per_op = PerOp::default();
    let mut threads = traced.then(ThreadCounters::default);
    let mut net_inserted = 0i64;
    for o in &outs {
        counters.merge(&o.counters);
        latency.merge(&o.watchdog);
        per_op.add(&o.per_op);
        threads = threads.zip(o.kernel).map(|(mut acc, k)| {
            acc.add(&k);
            acc
        });
        net_inserted += o.net_inserted;
    }

    let expected = shape.ops_per_thread * shape.threads as u64;
    let mut failures = Vec::new();
    if counters.completed() != expected {
        failures.push(format!("completed {} of {expected} ops", counters.completed()));
    }
    check_causes(&counters, &mut failures);
    let residual = mem.residual_lines();
    if !residual.is_empty() {
        failures.push(format!("{} cache lines kept conflict bits", residual.len()));
    }
    let expected_size = shape.size as i64 + net_inserted;
    match tree.validate(&mem) {
        Ok(size) if size as i64 == expected_size => {}
        Ok(size) => failures.push(format!("tree holds {size} keys, the ops imply {expected_size}")),
        Err(e) => failures.push(format!("tree invariant broken: {e}")),
    }

    let cell = CellRun {
        key: format!("{}/{}", kind.label(), lock.label()),
        spans,
        cpu,
        model: Model {
            ops: counters.completed(),
            attempts: counters.total_attempts(),
            makespan,
            counters: Some(counters),
            latency: Some(Latency::of(latency.histogram())),
            extra: vec![("tree_size", u64::try_from(expected_size).unwrap_or(0))],
        },
        failures,
        per_op,
        threads,
    };
    (cell, Some(latency.histogram().clone()))
}

/// One simulated thread of a tree cell: `ops` critical sections, each
/// drawn before it starts so speculative retries replay the same op.
fn tree_thread(
    s: &mut Strand,
    tree: &RbTree,
    scheme: &Scheme,
    ops: u64,
    mix: OpMix,
    domain: u64,
    traced: bool,
) -> TreeThreadOut {
    let kernel_start = traced.then(kernel::thread_counters).flatten();
    let mut watchdog = Watchdog::new(0);
    let mut per_op = PerOp::default();
    let mut net_inserted = 0i64;
    for _ in 0..ops {
        let op = mix.draw(&mut s.rng);
        let key = s.rng.below(domain);
        let started = s.now();
        let t_execute = traced.then(Instant::now);
        let out = scheme.execute(s, |s| {
            let t_op = traced.then(Instant::now);
            let r = match op {
                TreeOp::Insert => tree.insert(s, key).map(i64::from),
                TreeOp::Delete => tree.remove(s, key).map(|removed| -i64::from(removed)),
                TreeOp::Lookup => tree.contains(s, key).map(|_| 0),
            };
            if let Some(t) = t_op {
                per_op.op_ns += elapsed_ns(t);
                per_op.op_attempts += 1;
            }
            r
        });
        if let Some(t) = t_execute {
            per_op.execute_ns += elapsed_ns(t);
            per_op.executes += 1;
        }
        net_inserted += out.value;
        watchdog.record(out.attempts, s.now().saturating_sub(started));
    }
    let kernel = kernel_start.zip(kernel::thread_counters()).map(|(a, b)| b.since(&a));
    TreeThreadOut { counters: s.counters, watchdog, net_inserted, per_op, kernel }
}

// ---------------------------------------------------------------------------
// service-storm

const SERVICE_SCHEMES: [SchemeKind; 3] = [SchemeKind::Hle, SchemeKind::HleScm, SchemeKind::OptSlr];

/// Simulated cycles of each arrival phase; sets the fixed host batch.
const SERVICE_PHASE_CYCLES: u64 = 170_000;

fn service_spec(scheme: SchemeKind, seed: u64, phase_cycles: u64) -> ServiceSpec {
    let mut spec = ServiceSpec::quick(scheme, LockKind::Ttas);
    spec.shards = 2;
    spec.workers_per_shard = 2;
    spec.keys_per_shard = 128;
    spec.zipf_theta = 1.25;
    spec.mix = ServiceMix::MIXED;
    spec.phases = vec![
        ArrivalPhase::steady("steady", phase_cycles, 90.0),
        ArrivalPhase::steady("storm", phase_cycles, 12.0),
    ];
    spec.window = 0;
    spec.seed = seed;
    spec
}

fn run_service_cell(
    scheme: SchemeKind,
    seed: u64,
    phase_cycles: u64,
) -> (CellRun, Option<LatencyHistogram>) {
    let mut spans = Vec::new();
    let spec = service_spec(scheme, seed, phase_cycles);
    let plan = span(&mut spans, "service.build_plan", Phase::Setup, || build_plan(&spec));
    let (r, cpu) = run_span(&mut spans, "service.run_service", || run_service(&spec));

    let mut failures = Vec::new();
    for (what, got) in [
        ("requests served", r.requests),
        ("requests completed", r.counters.completed()),
        ("latencies recorded", r.latency.count()),
    ] {
        if got != plan.total {
            failures.push(format!("{what}: {got}, the plan holds {}", plan.total));
        }
    }
    check_causes(&r.counters, &mut failures);

    let hot_shard_lock_word_aborts = r
        .shards
        .iter()
        .map(|s| s.counters.causes.get(AbortCause::LockWordConflict))
        .max()
        .unwrap_or(0);
    let mut extra = vec![("hot_shard_lock_word_aborts", hot_shard_lock_word_aborts)];
    for p in &r.phases {
        extra.push((p.label, p.requests));
    }
    let storm_p99 =
        r.phases.iter().find(|p| p.label == "storm").and_then(|p| p.latency.percentile(99));
    extra.push(("storm_p99_cycles", storm_p99.unwrap_or(0)));

    let cell = CellRun {
        key: format!("{}/{}", scheme.label(), LockKind::Ttas.label()),
        spans,
        cpu,
        model: Model {
            ops: r.requests,
            attempts: r.counters.total_attempts(),
            makespan: r.makespan,
            counters: Some(r.counters),
            latency: Some(Latency::of(&r.latency)),
            extra,
        },
        failures,
        ..Default::default()
    };
    (cell, Some(r.latency))
}

// ---------------------------------------------------------------------------
// explore-dpor

/// How many cells of the model checker's rotation one repetition runs:
/// the first four, one per structure kind.
const EXPLORE_CELLS: usize = 4;

/// Executions explored per cell: the first third of `Bounds::quick`'s
/// budget of 1,500, so a repetition takes about a second and a run holds
/// enough repetitions for a steady median.
const EXPLORE_SCHEDULES: usize = 500;

const EXPLORE_LOCKS: [LockKind; 4] =
    [LockKind::Ttas, LockKind::Mcs, LockKind::Ticket, LockKind::Clh];

/// Cell `i` of `model_check`'s default grid: scheme-major over
/// `SchemeKind::ALL` × the four locks, structures rotating round-robin.
fn explore_rotation(i: usize) -> (SchemeKind, LockKind, StructureKind) {
    let scheme = SchemeKind::ALL[i / EXPLORE_LOCKS.len()];
    let lock = EXPLORE_LOCKS[i % EXPLORE_LOCKS.len()];
    (scheme, lock, StructureKind::ALL[i % StructureKind::ALL.len()])
}

/// Initial-state builds per explore cell in one repetition's set-up. The
/// explorer rebuilds the state in each of its ~1,800 runs per cell; one
/// build takes microseconds, too short to time steadily on its own.
const EXPLORE_SETUP_BUILDS: usize = 500;

/// The initial state every explorer run starts from: a sanitized memory
/// holding the cell's scheme and structure, sized as the explorer sizes
/// them. The explorer's own builds happen inside `explore_cell`; the
/// benchmark times `EXPLORE_SETUP_BUILDS` more as the workload's set-up.
fn explore_initial_state(spec: &ExploreSpec) -> (Memory, Arc<Scheme>) {
    let t = spec.threads;
    let mut b = MemoryBuilder::new();
    b.enable_sanitizer();
    let scheme = make_scheme(spec.scheme, spec.lock, SchemeConfig::explore(), &mut b, t);
    let mem = match spec.structure {
        StructureKind::HashTable => {
            let h = HashTable::new(&mut b, 4, 64, t);
            let mem = b.freeze(t);
            h.init(&mem);
            mem
        }
        StructureKind::List => {
            let l = SortedList::new(&mut b, 64, t);
            let mem = b.freeze(t);
            l.init(&mem);
            mem
        }
        StructureKind::RbTree => {
            let tree = RbTree::new(&mut b, 64, t);
            let mem = b.freeze(t);
            tree.init(&mem);
            mem
        }
        StructureKind::Queue => {
            SimQueue::new(&mut b, 8);
            b.freeze(t)
        }
    };
    (mem, scheme)
}

fn run_explore_cell(i: usize, seed: u64) -> (CellRun, Option<LatencyHistogram>) {
    let mut spans = Vec::new();
    let (scheme, lock, structure) = explore_rotation(i);
    let mut spec = ExploreSpec { seed, ..ExploreSpec::quick(scheme, lock, structure) };
    spec.bounds.max_schedules = EXPLORE_SCHEDULES;
    span(&mut spans, "setup.memory", Phase::Setup, || {
        for _ in 0..EXPLORE_SETUP_BUILDS {
            black_box(explore_initial_state(&spec));
        }
    });
    let (r, cpu) = run_span(&mut spans, "analysis.explore_cell", || explore_cell(&spec));

    let mut failures = Vec::new();
    if !r.findings.is_empty() {
        failures.push(format!("{} findings on a correct cell", r.findings.len()));
    }
    // Bounds::quick stops every cell of this grid at its schedule
    // budget, which makes each cell a fixed batch of executions. Any
    // other stop (runs or steps) would change the batch.
    if r.truncated && r.executions != spec.bounds.max_schedules {
        failures.push(format!(
            "exploration stopped after {} of {} executions",
            r.executions, spec.bounds.max_schedules
        ));
    }
    let cell = CellRun {
        key: format!("{}/{}/{}", scheme.label(), lock.label(), structure.label()),
        spans,
        cpu,
        model: Model {
            ops: r.executions as u64,
            attempts: r.runs as u64,
            extra: vec![
                ("truncated", u64::from(r.truncated)),
                ("findings", r.findings.len() as u64),
            ],
            ..Default::default()
        },
        failures,
        ..Default::default()
    };
    (cell, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::digest;

    const TINY: TreeShape =
        TreeShape { threads: 2, size: 32, mix: OpMix::EXTENSIVE, ops_per_thread: 40 };

    fn tiny_tree(seed: u64, traced: bool) -> Rep {
        let (cell, h) = run_tree_cell(&TINY, SchemeKind::HleScm, LockKind::Mcs, seed, traced);
        Rep { cells: vec![cell], latency: h.as_ref().map(Latency::of) }
    }

    #[test]
    fn tree_cells_pass_their_checks_and_repeat_per_seed() {
        let a = tiny_tree(3, false);
        assert!(a.cells[0].failures.is_empty(), "{:?}", a.cells[0].failures);
        assert_eq!(a.cells[0].model.ops, 80);
        assert_eq!(a.latency.map(|l| l.count), Some(80));
        let d = |rep: &Rep| digest(Workload::TreeContended, rep);
        assert_eq!(d(&a), d(&tiny_tree(3, false)), "same seed, same digest");
        assert_eq!(d(&a), d(&tiny_tree(3, true)), "tracing leaves the model alone");
        assert_ne!(d(&a), d(&tiny_tree(4, false)), "the seed drives the inputs");
    }

    #[test]
    fn traced_tree_cells_time_every_op_and_attempt() {
        let c = &tiny_tree(5, true).cells[0];
        assert_eq!(c.per_op.executes, 80);
        assert!(c.per_op.op_attempts >= 80);
        assert!(c.per_op.op_ns <= c.per_op.execute_ns);
        let names: Vec<&str> = c.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["setup.memory", "setup.fill", "sim.run"]);
        assert!(tiny_tree(5, false).cells[0].threads.is_none());
    }

    #[test]
    fn service_cells_serve_the_whole_plan() {
        let (a, h) = run_service_cell(SchemeKind::Hle, 9, 4_000);
        assert!(a.failures.is_empty(), "{:?}", a.failures);
        assert_eq!(h.map(|h| h.count()), Some(a.model.ops));
        let (b, _) = run_service_cell(SchemeKind::Hle, 9, 4_000);
        let d = |c: CellRun| digest(Workload::ServiceStorm, &Rep { cells: vec![c], latency: None });
        assert_eq!(d(a), d(b));
    }

    #[test]
    fn explore_rotation_matches_model_check() {
        // model_check: scheme i, lock j -> structure (i * 4 + j) % 4.
        assert_eq!(
            explore_rotation(0),
            (SchemeKind::Standard, LockKind::Ttas, StructureKind::HashTable)
        );
        assert_eq!(
            explore_rotation(3),
            (SchemeKind::Standard, LockKind::Clh, StructureKind::RbTree)
        );
        assert_eq!(explore_rotation(5), (SchemeKind::Hle, LockKind::Mcs, StructureKind::List));
    }
}
