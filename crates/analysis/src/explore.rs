//! Bounded model checker over the controlled scheduler, by dynamic
//! partial-order reduction.
//!
//! The sampling passes in [`crate::driver`] check *one* schedule per
//! cell. This module instead drives [`elision_sim::ScheduleControl`]
//! through the interleavings of a small configuration (2–4 threads, a
//! handful of critical sections), up to the [`Bounds`] on executions,
//! runs, steps and divergences, replaying each schedule
//! deterministically and feeding each new execution through the full
//! sanitizer pipeline ([`crate::driver::analyze`]: races, opacity, lock
//! lints, residual bits) plus the [`crate::linearize`] history oracle.
//!
//! # Schedules as override prefixes
//!
//! A schedule is identified by a *dense prefix of forced choices*: the
//! override slice `[Some(c0), Some(c1), ..., Some(ck)]` pins the first
//! `k + 1` scheduling decisions and every later decision follows the
//! default `(clock, id)`-minimal rule (so the empty prefix is exactly the
//! standard window-0 run). Re-executing the same prefix reproduces the
//! same execution bit for bit, which is what makes stateless search and
//! counterexample minimization possible. The minimizer's sparse sets are
//! the same slices with holes: a `None` entry follows the default rule.
//!
//! # Search state
//!
//! Every prefix the search queued and every choice sequence it executed
//! is a path in one trie of thread choices. Children go straight into the
//! trie as they are found, the search stack holds trie nodes, and a
//! popped node's prefix is rebuilt by following parent links.
//!
//! After each new execution, every node of its path from which the rest
//! of the path took the default choice is flagged *covered*: running that
//! node's prefix would replay the execution decision for decision. A
//! popped node that is covered is skipped without a run, so a run
//! replays a known execution only when its forced prefix could not be
//! followed (a forced thread had already finished, and the control fell
//! back to the default rule; [`ExploreStats::fallback_runs`]). Such a
//! replay is caught after the run, because its leaf is covered already.
//!
//! # Dynamic partial-order reduction
//!
//! Two scheduling steps are *dependent* when they touch a common cache
//! line with at least one write (the footprints the instrumented stack
//! reports, read back with [`Schedule::accesses`]) or belong to the same
//! thread. For each executed trace, each racing pair `(j, i)` of
//! dependent steps of different threads generates one child prefix that
//! runs `i`'s thread up to the race *before* `j` — the standard
//! race-reversal rule. Steps with disjoint footprints never generate
//! children, which is where the (often exponential) savings come from;
//! the trie's flags make the redundancy of over-approximate reversal
//! harmless. The tests keep an exhaustive enumeration (every enabled
//! thread at every decision point) as the oracle DPOR is checked against.
//!
//! The context-switch bound in [`Bounds::divergence`] limits how many
//! decisions may differ from the default rule before an execution stops
//! spawning children, bounding search depth the way a preemption bound
//! does in CHESS-style checkers.
//!
//! # Counterexample minimization
//!
//! A failing schedule found by search usually carries many incidental
//! forced choices. [`minimize`] first drops every override that agreed
//! with the default decision anyway, then greedily re-runs with each
//! remaining override removed until a fixed point: what survives is a
//! minimal set of forced decisions that still reproduces the finding,
//! rendered by [`render_diagram`] as a step-by-step interleaving.

use crate::driver::{analyze, Checks};
use crate::linearize::check_linearizable;
use crate::{Finding, LintId};
use elision_core::{make_scheme, LockKind, Scheme, SchemeConfig, SchemeKind};
use elision_htm::{harness, HtmConfig, Memory, MemoryBuilder, Strand};
use elision_sim::Schedule;
use elision_structures::{
    HashTable, HistoryRecorder, OpAction, OpRecord, OpResponse, RbTree, SeqModel, SimQueue,
    SortedList, StructureKind,
};
use std::collections::HashSet;
use std::sync::Arc;

/// Exploration limits. Every bound is a *truncation*, reported via
/// [`ExploreStats::truncated`] — never a silent claim of full coverage.
#[derive(Debug, Clone)]
pub struct Bounds {
    /// Maximum scheduling decisions differing from the default rule an
    /// execution may contain and still spawn children (`None` =
    /// unbounded). This is the context-switch bound.
    pub divergence: Option<u32>,
    /// Maximum unique executions to analyze.
    pub max_schedules: usize,
    /// Maximum runner invocations. A queued prefix whose default
    /// continuation already ran is skipped without a run, but a prefix
    /// that could not be followed can still replay a known execution
    /// (deduplicated, so it does not count towards `max_schedules`; see
    /// [`ExploreStats::fallback_runs`]); this caps that redundancy so the
    /// search always terminates promptly.
    pub max_runs: usize,
    /// Executions longer than this many decisions are analyzed but not
    /// branched from.
    pub max_steps: usize,
}

impl Bounds {
    /// The small-bound configuration the CI `model_check` job uses.
    pub fn quick() -> Self {
        Bounds { divergence: Some(12), max_schedules: 1_500, max_runs: 6_000, max_steps: 2_000 }
    }

    /// The per-cell configuration the `lazy_safety` sweep uses for
    /// *every* cell, fixed and unfixed alike — the comparison "unfixed
    /// produces a counterexample, fixed verifies clean" is only
    /// meaningful under identical bounds. The context-switch bound is
    /// deep enough to reach both unsafe classes of arXiv 1407.6968 with
    /// headroom; the search is still truncated (and reported as such),
    /// so a clean cell means "no counterexample within these bounds",
    /// not total verification.
    pub fn lazy_safety() -> Self {
        Bounds { divergence: Some(12), max_schedules: 2_000, max_runs: 8_000, max_steps: 800 }
    }
}

/// Aggregate statistics from one exploration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Unique executions analyzed.
    pub executions: usize,
    /// Runner invocations: one per new execution, plus the replays of
    /// an already-analyzed one. Every replay is also a fallback run.
    pub runs: usize,
    /// Runs whose forced prefix could not be followed: a forced thread
    /// had already finished, so the control fell back to its default
    /// rule. Only these can replay a known execution, so `runs -
    /// executions` never exceeds this count.
    pub fallback_runs: usize,
    /// True when some bound in [`Bounds`] cut the search short.
    pub truncated: bool,
}

/// Drive `runner` through the interleaving space by DPOR.
///
/// `runner` executes the workload once under the given forced-choice
/// overrides and returns the recorded schedule plus an arbitrary
/// payload; `on_exec` receives every *unique* execution (its steps, the
/// forced prefix that produced it, and the payload). The search is
/// depth-first over forced prefixes, deterministic, and single-threaded
/// at the search level (each run itself uses the serialized controlled
/// scheduler).
pub fn explore<T>(
    bounds: &Bounds,
    runner: impl Fn(&[Option<usize>]) -> (Schedule, T),
    on_exec: impl FnMut(&Schedule, &[Option<usize>], T),
) -> ExploreStats {
    search(bounds, runner, on_exec, |steps, choices, child| dpor_children(steps, choices, child))
}

/// [`explore`] with the rule that turns an execution into child prefixes
/// as a parameter: `children(steps, choices, child)` hands each child to
/// `child` as `(j, tail)`, the prefix `choices[..j]` followed by `tail`.
fn search<T>(
    bounds: &Bounds,
    runner: impl Fn(&[Option<usize>]) -> (Schedule, T),
    mut on_exec: impl FnMut(&Schedule, &[Option<usize>], T),
    children: impl Fn(&Schedule, &[usize], &mut dyn FnMut(usize, &[usize])),
) -> ExploreStats {
    let mut stats = ExploreStats::default();
    let mut trie = PrefixTrie::new();
    trie.mark(PrefixTrie::ROOT, QUEUED);
    let mut stack = vec![PrefixTrie::ROOT];
    // Reused by every run: the forced prefix, the executed choices, and
    // the trie node of each executed prefix (`path[d]` is `choices[..d]`).
    let mut prefix: Vec<Option<usize>> = Vec::new();
    let mut choices: Vec<usize> = Vec::new();
    let mut path: Vec<u32> = Vec::new();

    while let Some(node) = stack.pop() {
        if stats.executions >= bounds.max_schedules || stats.runs >= bounds.max_runs {
            stats.truncated = true;
            break;
        }
        if trie.has(node, COVERED) {
            // The prefix with its default continuation is an execution
            // already analyzed, and its children were generated then.
            continue;
        }
        trie.prefix_into(node, &mut prefix);
        let (steps, payload) = runner(&prefix);
        stats.runs += 1;
        choices.clear();
        choices.extend(steps.iter().map(|s| s.chosen));
        path.clear();
        path.push(PrefixTrie::ROOT);
        for &t in &choices {
            let next = trie.child(path[path.len() - 1], t);
            path.push(next);
        }
        // A run that followed its forced prefix passes through its node.
        if path.get(prefix.len()) != Some(&node) {
            stats.fallback_runs += 1;
        }
        if !trie.mark(path[choices.len()], COVERED) {
            // Only a prefix that fell back can replay a known execution:
            // one that was followed would have been covered.
            continue;
        }
        // Every prefix from which the rest of this path is the default
        // continuation replays this execution.
        for (d, _) in steps.iter().enumerate().rev().take_while(|(_, s)| s.chosen == s.default) {
            trie.mark(path[d], COVERED);
        }
        stats.executions += 1;
        on_exec(&steps, &prefix, payload);

        if steps.len() > bounds.max_steps {
            stats.truncated = true;
            continue;
        }
        let divergences = steps.iter().filter(|s| s.chosen != s.default).count() as u32;
        if let Some(limit) = bounds.divergence {
            if divergences > limit {
                stats.truncated = true;
                continue;
            }
        }

        children(&steps, &choices, &mut |depth, tail| {
            let child = tail.iter().fold(path[depth], |at, &t| trie.child(at, t));
            if trie.mark(child, QUEUED) {
                stack.push(child);
            }
        });
    }
    stats
}

/// The prefix was pushed on the search stack.
const QUEUED: u8 = 1;
/// Running the prefix replays an analyzed execution: the node is on that
/// execution's path, and the rest of the path is the default
/// continuation. An execution's leaf is always covered.
const COVERED: u8 = 2;

/// The explorer's search state: a trie of thread choices whose nodes
/// live in one arena. A node stands for the choice sequence on its path
/// from the root, which is the empty prefix.
struct PrefixTrie {
    nodes: Vec<TrieNode>,
}

#[derive(Clone, Copy)]
struct TrieNode {
    parent: u32,
    /// Links of the child list; [`PrefixTrie::ROOT`] ends it (the root
    /// is nobody's child).
    first_child: u32,
    next_sibling: u32,
    /// The thread this node's last decision chose.
    choice: u8,
    /// [`QUEUED`] and [`COVERED`] bits.
    flags: u8,
}

impl PrefixTrie {
    const ROOT: u32 = 0;

    fn new() -> Self {
        let root = TrieNode { parent: 0, first_child: 0, next_sibling: 0, choice: 0, flags: 0 };
        PrefixTrie { nodes: vec![root] }
    }

    /// The node extending `node` by a decision for thread `t`, created if
    /// absent.
    fn child(&mut self, node: u32, t: usize) -> u32 {
        let choice = u8::try_from(t).expect("thread ids fit a byte");
        let mut at = self.nodes[node as usize].first_child;
        while at != Self::ROOT {
            let n = &self.nodes[at as usize];
            if n.choice == choice {
                return at;
            }
            at = n.next_sibling;
        }
        let id = u32::try_from(self.nodes.len()).expect("trie nodes fit u32 ids");
        let next_sibling = std::mem::replace(&mut self.nodes[node as usize].first_child, id);
        self.nodes.push(TrieNode { parent: node, first_child: 0, next_sibling, choice, flags: 0 });
        id
    }

    /// Whether `flag` is set on `node`.
    fn has(&self, node: u32, flag: u8) -> bool {
        self.nodes[node as usize].flags & flag != 0
    }

    /// Set `flag` on `node`; false when it was set already.
    fn mark(&mut self, node: u32, flag: u8) -> bool {
        let new = !self.has(node, flag);
        self.nodes[node as usize].flags |= flag;
        new
    }

    /// Rewrite `out` as the dense override prefix `node` stands for.
    fn prefix_into(&self, node: u32, out: &mut Vec<Option<usize>>) {
        out.clear();
        let mut at = node;
        while at != Self::ROOT {
            let n = &self.nodes[at as usize];
            out.push(Some(usize::from(n.choice)));
            at = n.parent;
        }
        out.reverse();
    }
}

/// Race-reversal children: one alternative prefix per reversible racing
/// pair of the executed trace, found in one forward pass and handed to
/// `child` as `(j, tail)`: the child prefix is `choices[..j]` followed by
/// `tail`. Children go out by step, and a step's races by descending `j`.
///
/// Two tables hold, per line and per thread, that thread's last write and
/// last access of the line. A step that writes a line depends on every
/// earlier access to it, and a step that only reads it on every earlier
/// write; per thread, the latest such step is the table entry, and the
/// earlier ones are ordered before it by program order. So each table
/// entry is also the peer's race frontier on that line, and joining the
/// entries' clocks and the step's own previous one gives exactly the
/// happens-before clock a join over every dependent earlier step would.
/// The pass costs O(lines touched × threads²) per step, plus the
/// reversibility check and the child per race.
fn dpor_children(steps: &Schedule, choices: &[usize], mut child: impl FnMut(usize, &[usize])) {
    let n = choices.len();
    let threads = steps
        .iter()
        .map(|s| (u64::BITS - s.enabled.leading_zeros()) as usize)
        .max()
        .unwrap_or(0)
        .max(choices.iter().copied().max().map_or(0, |t| t + 1));
    let lines =
        (0..n).flat_map(|i| steps.accesses(i)).map(|a| a.line as usize + 1).max().unwrap_or(0);
    // Table entries and clocks hold a step index plus one, so 0 is "none".
    let mut last_write = vec![0usize; lines * threads];
    let mut last_access = last_write.clone();
    let mut last_step = vec![0usize; threads];
    // clocks[i * threads + t] = 1 + the largest step index of thread t
    // that happens-before step i (0 when none), over the dependence
    // relation (same thread, or conflicting footprints). hb(j, i) for
    // j < i is then `clocks[i * threads + choices[j]] > j`.
    let mut clocks = vec![0usize; n * threads];
    let mut footprint: Vec<(u32, bool)> = Vec::new();
    let mut frontier = vec![0usize; threads];
    let mut races: Vec<usize> = Vec::new();
    let mut tail: Vec<usize> = Vec::new();

    for i in 0..n {
        let me = choices[i];
        // The footprint as sorted unique lines, written if any access was.
        footprint.clear();
        footprint.extend(steps.accesses(i).iter().map(|a| (a.line, a.write)));
        footprint.sort_unstable();
        footprint.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            kept.1 |= same && later.1;
            same
        });

        let (earlier, rest) = clocks.split_at_mut(i * threads);
        let clock = &mut rest[..threads];
        let mut join = |j1: usize| {
            let j = j1 - 1;
            for (ct, &jt) in clock.iter_mut().zip(&earlier[j * threads..(j + 1) * threads]) {
                *ct = (*ct).max(jt);
            }
            clock[choices[j]] = clock[choices[j]].max(j1);
        };
        if last_step[me] > 0 {
            join(last_step[me]);
        }
        frontier.fill(0);
        for &(line, write) in &footprint {
            let row = line as usize * threads;
            let table = if write { &last_access } else { &last_write };
            for (p, &j1) in table[row..row + threads].iter().enumerate() {
                if j1 > 0 {
                    join(j1);
                    frontier[p] = frontier[p].max(j1);
                }
            }
        }
        last_step[me] = i + 1;
        for &(line, write) in &footprint {
            let at = line as usize * threads + me;
            last_access[at] = i + 1;
            if write {
                last_write[at] = i + 1;
            }
        }

        // For each peer thread, only its *last* conflicting step before i
        // forms the race frontier; earlier ones are ordered through it.
        // Candidates go out latest first.
        races.clear();
        races.extend(
            frontier
                .iter()
                .enumerate()
                .filter(|&(p, &j1)| p != me && j1 > 0)
                .map(|(_, &j1)| j1 - 1),
        );
        races.sort_unstable_by(|a, b| b.cmp(a));
        let hb = |j: usize, k: usize| clocks[k * threads + choices[j]] > j;
        for &j in &races {
            // The race is reversible only when nothing in between is
            // ordered after j and before i (otherwise reversing that
            // intermediate race subsumes this one).
            if ((j + 1)..i).any(|k| hb(j, k) && hb(k, i)) {
                continue;
            }
            // Run everything not ordered after j, then i's thread, and
            // only then (by default continuation) j's — the reversal.
            tail.clear();
            tail.extend(((j + 1)..i).filter(|&k| !hb(j, k)).map(|k| choices[k]));
            tail.push(me);
            child(j, &tail);
        }
    }
}

/// Forced decisions as `(step index, thread)` pairs, in step order.
pub type Forced = Vec<(usize, usize)>;

/// One schedule-dependent violation with its minimized reproduction.
#[derive(Debug, Clone)]
pub struct ExploreFinding {
    /// The violation, as produced on the minimized schedule.
    pub finding: Finding,
    /// Minimized forced decisions, `(step index, thread)` — replaying
    /// exactly these overrides ([`overrides_for`]) reproduces the
    /// violation.
    pub forced: Forced,
    /// Human-readable interleaving diagram of the minimized schedule.
    pub diagram: Vec<String>,
}

/// The override slice that forces exactly the `(step index, thread)`
/// pairs of `forced` and leaves every other decision to the default rule.
pub fn overrides_for(forced: &[(usize, usize)]) -> Vec<Option<usize>> {
    let mut out = vec![None; forced.iter().map(|&(i, _)| i + 1).max().unwrap_or(0)];
    for &(i, t) in forced {
        out[i] = Some(t);
    }
    out
}

/// A run's payload that yields the run's findings when asked.
/// [`explore_and_minimize`] asks only for the executions the search
/// keeps, so a runner can return its raw run and leave the analysis
/// passes to [`Analyze::findings`]; a runner that analyzes eagerly
/// returns the findings themselves.
pub trait Analyze {
    /// Run the analysis passes still to go and return every finding.
    fn findings(self) -> Vec<Finding>;
}

impl Analyze for Vec<Finding> {
    fn findings(self) -> Vec<Finding> {
        self
    }
}

/// Shrink a failing forced schedule to a minimal one still exhibiting a
/// finding with lint `lint`.
///
/// Returns `None` if the schedule does not reproduce the finding at all
/// (callers pass schedules that just did, so this indicates
/// nondeterminism and is worth treating as a bug). Otherwise returns the
/// minimized forced decisions as `(step index, thread)` pairs, the
/// schedule they produce, and the surviving finding.
pub fn minimize<T: Analyze>(
    runner: impl Fn(&[Option<usize>]) -> (Schedule, T),
    forced: &[Option<usize>],
    lint: LintId,
) -> Option<(Forced, Schedule, Finding)> {
    let reproduces = |f: &[Option<usize>]| -> Option<(Schedule, Finding)> {
        let (steps, payload) = runner(f);
        payload.findings().into_iter().find(|x| x.lint == lint).map(|x| (steps, x))
    };
    let (mut steps, mut witness) = reproduces(forced)?;
    let mut forced = forced.to_vec();

    // Pass 1: drop, in one shot, every override that was a no-op — it
    // agreed with the default decision or fell back to it (forced thread
    // already finished). The remaining run is decision-for-decision
    // identical, so the finding necessarily survives; re-run to get the
    // (identical) steps anyway and keep the code honest.
    let diverging: Vec<Option<usize>> = forced
        .iter()
        .enumerate()
        .map(|(i, &t)| t.filter(|&t| steps.get(i).is_some_and(|s| s.chosen == t && s.default != t)))
        .collect();
    if diverging != forced {
        if let Some((s, w)) = reproduces(&diverging) {
            forced = diverging;
            steps = s;
            witness = w;
        }
    }

    // Pass 2: greedy delta-debugging to a fixed point — try removing
    // each override; keep any removal under which the finding persists.
    loop {
        let mut progress = false;
        for i in 0..forced.len() {
            if forced[i].is_none() {
                continue;
            }
            let mut trial = forced.clone();
            trial[i] = None;
            if let Some((s, w)) = reproduces(&trial) {
                forced = trial;
                steps = s;
                witness = w;
                progress = true;
            }
        }
        if !progress {
            break;
        }
    }
    let pairs = forced.iter().enumerate().filter_map(|(i, t)| t.map(|t| (i, t))).collect();
    Some((pairs, steps, witness))
}

/// Render a schedule as one line per decision:
/// `step  12: t1* [rL3 wL5] (default t0) <- forced`, where `*` marks a
/// decision differing from the default rule and `forced` holds the
/// `(step index, thread)` overrides. Long schedules elide their middle.
pub fn render_diagram(steps: &Schedule, forced: &[(usize, usize)]) -> Vec<String> {
    const MAX_LINES: usize = 60;
    const HEAD: usize = 40;
    let mut lines: Vec<String> = steps
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mark = if s.chosen != s.default { "*" } else { " " };
            let accesses = steps
                .accesses(i)
                .iter()
                .map(|a| format!("{}L{}", if a.write { "w" } else { "r" }, a.line))
                .collect::<Vec<_>>()
                .join(" ");
            let forced_note = if forced.iter().any(|&(j, _)| j == i) { " <- forced" } else { "" };
            format!(
                "step {i:>3}: t{}{mark} [{accesses}] (default t{}){forced_note}",
                s.chosen, s.default
            )
        })
        .collect();
    if lines.len() > MAX_LINES {
        let tail = lines.len() - (MAX_LINES - 1 - HEAD);
        let elided = format!("  ... {} steps elided ...", tail - HEAD);
        lines.splice(HEAD..tail, [elided]);
    }
    lines
}

/// Explore and, for the first execution exhibiting each distinct lint,
/// minimize that schedule into an [`ExploreFinding`]. Only the
/// executions the search keeps are analyzed; the minimizer analyzes
/// every run it makes.
pub fn explore_and_minimize<T: Analyze>(
    bounds: &Bounds,
    runner: impl Fn(&[Option<usize>]) -> (Schedule, T),
) -> (ExploreStats, Vec<ExploreFinding>) {
    let mut witnesses: Vec<(LintId, Vec<Option<usize>>)> = Vec::new();
    let mut seen: HashSet<LintId> = HashSet::new();
    let stats = explore(bounds, &runner, |_steps, overrides, payload: T| {
        for f in &payload.findings() {
            if seen.insert(f.lint) {
                witnesses.push((f.lint, overrides.to_vec()));
            }
        }
    });
    let mut out = Vec::new();
    for (lint, overrides) in witnesses {
        let (forced, steps, finding) = minimize(&runner, &overrides, lint)
            .expect("a finding observed during exploration must replay deterministically");
        let diagram = render_diagram(&steps, &forced);
        out.push(ExploreFinding { finding, forced, diagram });
    }
    (stats, out)
}

/// One scheme × lock × structure model-checking cell.
#[derive(Debug, Clone)]
pub struct ExploreSpec {
    /// The elision scheme under test.
    pub scheme: SchemeKind,
    /// The main lock family.
    pub lock: LockKind,
    /// Which data structure carries the operation history.
    pub structure: StructureKind,
    /// Simulated threads (2–4).
    pub threads: usize,
    /// Critical sections (structure operations) per thread.
    pub sections: usize,
    /// RNG seed for the HTM layer.
    pub seed: u64,
    /// Exploration limits.
    pub bounds: Bounds,
}

impl ExploreSpec {
    /// The CI-sized cell: 2 threads × 3 sections under DPOR at
    /// [`Bounds::quick`].
    pub fn quick(scheme: SchemeKind, lock: LockKind, structure: StructureKind) -> Self {
        ExploreSpec {
            scheme,
            lock,
            structure,
            threads: 2,
            sections: 3,
            seed: 0xE11D,
            bounds: Bounds::quick(),
        }
    }
}

/// Outcome of model-checking one cell.
#[derive(Debug)]
pub struct CellReport {
    /// Unique executions analyzed.
    pub executions: usize,
    /// Total runner invocations.
    pub runs: usize,
    /// Runs whose forced prefix could not be followed.
    pub fallback_runs: usize,
    /// True when a bound cut the search short.
    pub truncated: bool,
    /// Minimized schedule-dependent violations (empty for correct cells).
    pub findings: Vec<ExploreFinding>,
}

/// Capacity of the queue structure cell (both the simulated queue and
/// its sequential reference model).
const QUEUE_CAP: usize = 8;

enum CellStructure {
    Map(HashTable),
    Set(SortedList),
    Tree(RbTree),
    Fifo(SimQueue),
}

/// The deterministic action thread `tid` performs in its section `k`.
/// Key ranges deliberately overlap across threads so histories contend.
fn action_for(kind: StructureKind, tid: usize, k: usize) -> OpAction {
    let key = 1 + ((tid + k) % 3) as u64;
    match kind {
        StructureKind::HashTable => match k % 3 {
            0 => OpAction::MapPut(key, (tid as u64) * 100 + k as u64),
            1 => OpAction::MapGet(key),
            _ => OpAction::MapRemove(key),
        },
        StructureKind::List | StructureKind::RbTree => match k % 3 {
            0 => OpAction::SetInsert(key),
            1 => OpAction::SetContains(key),
            _ => OpAction::SetRemove(key),
        },
        StructureKind::Queue => {
            if (tid + k).is_multiple_of(2) {
                OpAction::Push((tid as u64) * 10 + k as u64)
            } else {
                OpAction::Pop
            }
        }
    }
}

fn apply_action(
    scheme: &Scheme,
    st: &CellStructure,
    s: &mut Strand,
    action: OpAction,
) -> OpResponse {
    match (st, action) {
        (CellStructure::Map(h), OpAction::MapGet(k)) => {
            OpResponse::Value(scheme.execute(s, |s| h.get(s, k)).value)
        }
        (CellStructure::Map(h), OpAction::MapPut(k, v)) => {
            OpResponse::Value(scheme.execute(s, |s| h.put(s, k, v)).value)
        }
        (CellStructure::Map(h), OpAction::MapRemove(k)) => {
            OpResponse::Value(scheme.execute(s, |s| h.remove(s, k)).value)
        }
        (CellStructure::Set(l), OpAction::SetInsert(k)) => {
            OpResponse::Flag(scheme.execute(s, |s| l.insert(s, k)).value)
        }
        (CellStructure::Set(l), OpAction::SetContains(k)) => {
            OpResponse::Flag(scheme.execute(s, |s| l.contains(s, k)).value)
        }
        (CellStructure::Set(l), OpAction::SetRemove(k)) => {
            OpResponse::Flag(scheme.execute(s, |s| l.remove(s, k)).value)
        }
        (CellStructure::Tree(t), OpAction::SetInsert(k)) => {
            OpResponse::Flag(scheme.execute(s, |s| t.insert(s, k)).value)
        }
        (CellStructure::Tree(t), OpAction::SetContains(k)) => {
            OpResponse::Flag(scheme.execute(s, |s| t.contains(s, k)).value)
        }
        (CellStructure::Tree(t), OpAction::SetRemove(k)) => {
            OpResponse::Flag(scheme.execute(s, |s| t.remove(s, k)).value)
        }
        (CellStructure::Fifo(q), OpAction::Push(v)) => {
            OpResponse::Flag(scheme.execute(s, |s| q.push(s, v)).value)
        }
        (CellStructure::Fifo(q), OpAction::Pop) => {
            OpResponse::Value(scheme.execute(s, |s| q.pop(s)).value)
        }
        (_, a) => unreachable!("action {a} does not fit this cell's structure"),
    }
}

/// One cell run whose analysis passes have not run yet.
struct CellRun<'a> {
    spec: &'a ExploreSpec,
    scheme: Arc<Scheme>,
    mem: Arc<Memory>,
    /// Per thread: its operation history.
    outs: Vec<Vec<OpRecord>>,
    makespan: u64,
}

/// Execute one cell run under the given schedule overrides; its analysis
/// waits in the returned [`CellRun`].
fn run_cell_once<'a>(
    spec: &'a ExploreSpec,
    overrides: &[Option<usize>],
) -> (Schedule, CellRun<'a>) {
    assert!(
        spec.scheme != SchemeKind::NoLock && spec.scheme != SchemeKind::GroupedScm,
        "{:?} is not explorable: see SchemeConfig::explore()",
        spec.scheme
    );
    let mut b = MemoryBuilder::new();
    b.enable_sanitizer();
    let scheme = make_scheme(spec.scheme, spec.lock, SchemeConfig::explore(), &mut b, spec.threads);
    let structure = match spec.structure {
        StructureKind::HashTable => CellStructure::Map(HashTable::new(&mut b, 4, 64, spec.threads)),
        StructureKind::List => CellStructure::Set(SortedList::new(&mut b, 64, spec.threads)),
        StructureKind::RbTree => CellStructure::Tree(RbTree::new(&mut b, 64, spec.threads)),
        StructureKind::Queue => CellStructure::Fifo(SimQueue::new(&mut b, QUEUE_CAP)),
    };
    let mem = Arc::new(b.freeze(spec.threads));
    match &structure {
        CellStructure::Map(h) => h.init(&mem),
        CellStructure::Set(l) => l.init(&mem),
        CellStructure::Tree(t) => t.init(&mem),
        CellStructure::Fifo(_) => {}
    }
    let structure = Arc::new(structure);

    let (steps, outs, makespan) = {
        let scheme = Arc::clone(&scheme);
        let structure = Arc::clone(&structure);
        let kind = spec.structure;
        let sections = spec.sections;
        harness::run_arc_controlled(
            spec.threads,
            HtmConfig::deterministic(),
            spec.seed,
            overrides,
            Arc::clone(&mem),
            move |s| {
                let mut rec = HistoryRecorder::new(s.tid());
                for k in 0..sections {
                    let action = action_for(kind, s.tid(), k);
                    let invoked = s.sim().steps_taken();
                    let response = apply_action(&scheme, &structure, s, action);
                    let responded = s.sim().steps_taken();
                    rec.record(action, response, invoked, responded);
                }
                rec.into_records()
            },
        )
    };

    (steps, CellRun { spec, scheme, mem, outs, makespan })
}

impl Analyze for CellRun<'_> {
    /// Every pass of [`analyze`], then the linearizability oracle.
    fn findings(self) -> Vec<Finding> {
        let CellRun { spec, scheme, mem, outs, makespan } = self;
        let checks = Checks::for_scheme(&scheme, spec.threads);
        let mut findings = analyze(&checks, &mem, makespan);
        let ops: Vec<OpRecord> = outs.into_iter().flatten().collect();
        let model = SeqModel::for_kind(spec.structure, QUEUE_CAP);
        findings.extend(check_linearizable(&model, &ops));

        findings
    }
}

/// Model-check one scheme × lock × structure cell: explore its
/// interleavings up to the spec's bounds (a bounded search, reported as
/// truncated when a bound cuts it short), run every new execution through
/// the full analysis pipeline, and minimize whatever fails.
pub fn explore_cell(spec: &ExploreSpec) -> CellReport {
    let (stats, findings) = explore_and_minimize(&spec.bounds, |ov| run_cell_once(spec, ov));
    CellReport {
        executions: stats.executions,
        runs: stats.runs,
        fallback_runs: stats.fallback_runs,
        truncated: stats.truncated,
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::race::{detect_races, RaceConfig};
    use crate::testkit::{
        broken_slr_explore, double_release_explore, lazy_race_explore, lazy_zombie_explore,
        LazyFixes,
    };
    use std::collections::BTreeMap;

    /// How a test enumerates schedules: the explorer's DPOR, or the
    /// exhaustive oracle DPOR is checked against.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Mode {
        /// Branch on every enabled thread at every decision point.
        Exhaustive,
        /// Branch only to reverse dependent (racing) step pairs.
        Dpor,
    }

    /// [`explore`], or the same search with [`exhaustive_children`].
    fn explore_in<T>(
        mode: Mode,
        bounds: &Bounds,
        runner: impl Fn(&[Option<usize>]) -> (Schedule, T),
        on_exec: impl FnMut(&Schedule, &[Option<usize>], T),
    ) -> ExploreStats {
        match mode {
            Mode::Exhaustive => search(bounds, runner, on_exec, |steps, choices, child| {
                exhaustive_children(steps, choices, child)
            }),
            Mode::Dpor => explore(bounds, runner, on_exec),
        }
    }

    /// Every alternative enabled choice at every decision point, handed to
    /// `child` as `(i, [t])`: the prefix `choices[..i]` followed by `t`.
    fn exhaustive_children(
        steps: &Schedule,
        choices: &[usize],
        mut child: impl FnMut(usize, &[usize]),
    ) {
        for (i, step) in steps.iter().enumerate() {
            for t in step.enabled_threads().filter(|&t| t != choices[i]) {
                child(i, &[t]);
            }
        }
    }

    /// Two threads, two pure-computation segments each: C(4,2) = 6
    /// interleavings, matching the hand-computed count.
    fn toy_runner(overrides: &[Option<usize>]) -> (Schedule, ()) {
        let b = MemoryBuilder::new();
        let mem = Arc::new(b.freeze(2));
        let (steps, _, _) =
            harness::run_arc_controlled(2, HtmConfig::deterministic(), 1, overrides, mem, |s| {
                s.work(1).expect("non-transactional work");
                s.work(1).expect("non-transactional work");
            });
        (steps, ())
    }

    /// `threads` threads racing on one word (plus an independent work
    /// segment each): even threads store it, odd threads load it, so
    /// every interleaving contains the same data race.
    fn racy_runner_n(threads: usize, overrides: &[Option<usize>]) -> (Schedule, Vec<Finding>) {
        let mut b = MemoryBuilder::new();
        b.enable_sanitizer();
        let x = b.alloc_isolated(0);
        let mem = Arc::new(b.freeze(threads));
        let (steps, _, _) = harness::run_arc_controlled(
            threads,
            HtmConfig::deterministic(),
            1,
            overrides,
            Arc::clone(&mem),
            move |s| {
                s.work(1).expect("non-transactional work");
                if s.tid() % 2 == 0 {
                    s.store(x, 1).expect("plain store");
                } else {
                    s.load(x).expect("plain load");
                }
            },
        );
        let san = mem.san_log().expect("sanitizer enabled above");
        let findings = detect_races(&RaceConfig::of(&mem, threads), &san.snapshot());
        (steps, findings)
    }

    fn racy_runner(overrides: &[Option<usize>]) -> (Schedule, Vec<Finding>) {
        racy_runner_n(2, overrides)
    }

    fn unbounded() -> Bounds {
        Bounds { divergence: None, max_schedules: 10_000, max_runs: 40_000, max_steps: 10_000 }
    }

    #[test]
    fn exhaustive_enumerates_all_toy_interleavings() {
        let mut seen = 0usize;
        let stats = explore_in(Mode::Exhaustive, &unbounded(), toy_runner, |steps, _, ()| {
            assert_eq!(steps.len(), 4, "two threads x two segments = four decisions");
            seen += 1;
        });
        assert_eq!(stats.executions, 6, "C(4,2) interleavings of 2x2 segments");
        assert_eq!(seen, 6);
        assert!(!stats.truncated);
    }

    #[test]
    fn dpor_explores_no_more_than_exhaustive_with_same_findings() {
        // Two segments per thread: (2t)! / 2^t interleavings.
        for (threads, interleavings) in [(2, 6), (3, 90)] {
            let collect = |mode| {
                let mut lints: HashSet<LintId> = HashSet::new();
                let runner = |ov: &[Option<usize>]| racy_runner_n(threads, ov);
                let stats = explore_in(mode, &unbounded(), runner, |_, _, findings| {
                    lints.extend(findings.iter().map(|f| f.lint));
                });
                (stats, lints)
            };
            let (ex_stats, ex_lints) = collect(Mode::Exhaustive);
            let (dp_stats, dp_lints) = collect(Mode::Dpor);
            assert_eq!(ex_stats.executions, interleavings, "{threads} threads x 2 segments");
            assert!(
                dp_stats.executions <= ex_stats.executions,
                "{threads} threads: DPOR ({}) must not exceed exhaustive ({})",
                dp_stats.executions,
                ex_stats.executions
            );
            assert!(
                dp_stats.executions < ex_stats.executions,
                "{threads} threads: independent segments must prune"
            );
            assert_eq!(ex_lints, dp_lints, "{threads} threads: reduction must preserve findings");
            assert!(dp_lints.contains(&LintId::DataRace));
        }
    }

    #[test]
    fn dpor_catches_schedule_dependent_broken_slr() {
        let (stats, findings) = explore_and_minimize(&unbounded(), broken_slr_explore);
        assert!(stats.executions > 1, "must explore beyond the (clean) default schedule");
        let hit = findings
            .iter()
            .find(|f| matches!(f.finding.lint, LintId::CommitWhileLockHeld | LintId::DataRace))
            .unwrap_or_else(|| panic!("unsubscribed commit not caught: {findings:#?}"));
        assert!(hit.forced.len() <= 12, "minimized counterexample too large: {:?}", hit.forced);
        assert!(!hit.diagram.is_empty());
        assert!(hit.diagram.iter().any(|l| l.contains("<- forced")));
    }

    #[test]
    fn dpor_catches_schedule_dependent_double_release() {
        let (stats, findings) = explore_and_minimize(&unbounded(), double_release_explore);
        assert!(stats.executions > 1);
        let hit = findings
            .iter()
            .find(|f| f.finding.lint == LintId::ReleaseWithoutAcquire)
            .unwrap_or_else(|| panic!("double release not caught: {findings:#?}"));
        assert!(hit.forced.len() <= 12, "minimized counterexample too large: {:?}", hit.forced);
        assert!(!hit.diagram.is_empty());
    }

    /// Diagnostic sweep over the full (class, lock, fixes) matrix —
    /// `cargo test -- --ignored debug_lazy_matrix --nocapture` prints
    /// the per-cell stats and lint sets the `lazy_safety` bench pins.
    #[test]
    #[ignore]
    fn debug_lazy_matrix() {
        let bounds = Bounds::lazy_safety();
        for fixes in LazyFixes::ALL {
            for lock in [LockKind::Ttas, LockKind::Ticket, LockKind::Clh] {
                let mut lints: HashSet<LintId> = HashSet::new();
                let mut max_len = 0usize;
                let stats = explore(
                    &bounds,
                    |ov| lazy_zombie_explore(lock, fixes, ov),
                    |steps, _, findings| {
                        max_len = max_len.max(steps.len());
                        lints.extend(findings.iter().map(|f| f.lint));
                    },
                );
                eprintln!(
                    "A {:>6}/{:<15} stats={stats:?} max_len={max_len} lints={lints:?}",
                    lock.label(),
                    fixes.label()
                );
            }
            for lock in [LockKind::Ttas, LockKind::Mcs, LockKind::Ticket, LockKind::Clh] {
                let mut lints: HashSet<LintId> = HashSet::new();
                let mut max_len = 0usize;
                let stats = explore(
                    &bounds,
                    |ov| lazy_race_explore(lock, fixes, ov),
                    |steps, _, findings| {
                        max_len = max_len.max(steps.len());
                        lints.extend(findings.iter().map(|f| f.lint));
                    },
                );
                eprintln!(
                    "B {:>6}/{:<15} stats={stats:?} max_len={max_len} lints={lints:?}",
                    lock.label(),
                    fixes.label()
                );
            }
        }
    }

    #[test]
    fn dpor_catches_lazy_zombie_dangerous_instruction() {
        // Class A of arXiv 1407.6968: unfixed lazy subscription lets a
        // zombie publish a wild store to the lock word itself.
        let (stats, findings) = explore_and_minimize(&Bounds::lazy_safety(), |ov| {
            lazy_zombie_explore(LockKind::Ttas, LazyFixes::default(), ov)
        });
        assert!(stats.executions > 1, "must explore beyond the (clean) default schedule");
        let hit = findings
            .iter()
            .find(|f| f.finding.lint == LintId::LazyDangerousInstruction)
            .unwrap_or_else(|| panic!("zombie wild store not caught: {findings:#?}"));
        assert!(hit.forced.len() <= 15, "minimized counterexample too large: {:?}", hit.forced);
        assert!(!hit.diagram.is_empty());
        assert!(hit.diagram.iter().any(|l| l.contains("<- forced")));
        assert!(
            findings.iter().any(|f| f.finding.lint == LintId::CommitWhileLockHeld),
            "the zombie's commit lands inside the critical section: {findings:#?}"
        );
    }

    #[test]
    fn dpor_catches_lazy_subscription_commit_race() {
        // Class B of arXiv 1407.6968: the lock is acquired between the
        // unfenced subscription check and the commit.
        let (stats, findings) = explore_and_minimize(&Bounds::lazy_safety(), |ov| {
            lazy_race_explore(LockKind::Ttas, LazyFixes::default(), ov)
        });
        assert!(stats.executions > 1, "must explore beyond the (clean) default schedule");
        let hit = findings
            .iter()
            .find(|f| matches!(f.finding.lint, LintId::ZombieCommit | LintId::CommitWhileLockHeld))
            .unwrap_or_else(|| panic!("subscription race not caught: {findings:#?}"));
        assert!(hit.forced.len() <= 15, "minimized counterexample too large: {:?}", hit.forced);
        assert!(!hit.diagram.is_empty());
    }

    #[test]
    fn hardware_fixes_verify_clean_under_identical_bounds() {
        // Both fixes together close both unsafe classes: the *same*
        // bounded search that finds the counterexamples above must come
        // back empty.
        let both = LazyFixes { dangerous_abort: true, hardware_commit: true };
        let (stats, findings) = explore_and_minimize(&Bounds::lazy_safety(), |ov| {
            lazy_zombie_explore(LockKind::Ttas, both, ov)
        });
        assert!(stats.executions > 1, "the fixed cell must actually be searched");
        assert!(findings.is_empty(), "fixed zombie cell must verify clean: {findings:#?}");

        let (stats, findings) = explore_and_minimize(&Bounds::lazy_safety(), |ov| {
            lazy_race_explore(LockKind::Ttas, both, ov)
        });
        assert!(stats.executions > 1, "the fixed cell must actually be searched");
        assert!(findings.is_empty(), "fixed race cell must verify clean: {findings:#?}");
    }

    #[test]
    fn dangerous_abort_alone_fixes_zombies_but_not_the_commit_race() {
        // The dangerous-instruction screen stops the wild store at the
        // offending access...
        let screen_only = LazyFixes { dangerous_abort: true, hardware_commit: false };
        let (stats, findings) = explore_and_minimize(&Bounds::lazy_safety(), |ov| {
            lazy_zombie_explore(LockKind::Ttas, screen_only, ov)
        });
        assert!(stats.executions > 1, "the screened cell must actually be searched");
        assert!(findings.is_empty(), "screen must stop the wild store: {findings:#?}");

        // ...but is no help against the check-to-commit window, which
        // involves no dangerous instruction at all.
        let (_, findings) = explore_and_minimize(&Bounds::lazy_safety(), |ov| {
            lazy_race_explore(LockKind::Ttas, screen_only, ov)
        });
        assert!(
            findings.iter().any(|f| matches!(
                f.finding.lint,
                LintId::ZombieCommit | LintId::CommitWhileLockHeld
            )),
            "the subscription race must survive the screen: {findings:#?}"
        );
    }

    #[test]
    fn minimizer_drops_noop_overrides() {
        // Seed the minimizer with a deliberately bloated override slice:
        // whatever the search found plus a stack of no-op entries.
        let (_, findings) = explore_and_minimize(&unbounded(), racy_runner);
        let witness = &findings[0];
        let bloated = bloat(racy_runner, &witness.forced);
        let (minimized, _, finding) =
            minimize(racy_runner, &bloated, LintId::DataRace).expect("race must reproduce");
        assert!(minimized.len() <= witness.forced.len());
        assert_eq!(finding.lint, LintId::DataRace);
    }

    /// `forced` as an override slice with every other decision the run
    /// took under it filled in: the same schedule, bloated with no-ops.
    fn bloat(
        runner: impl Fn(&[Option<usize>]) -> (Schedule, Vec<Finding>),
        forced: &[(usize, usize)],
    ) -> Vec<Option<usize>> {
        let mut bloated = overrides_for(forced);
        let (steps, _) = runner(&bloated);
        bloated.resize(bloated.len().max(steps.len()), None);
        for (slot, s) in bloated.iter_mut().zip(steps.iter()) {
            slot.get_or_insert(s.chosen); // agree with what ran
        }
        bloated
    }

    #[test]
    fn minimized_pairs_are_those_the_sparse_map_minimizer_found() {
        // The pairs below are what the minimizer produced when its sparse
        // sets were ordered maps; the slice with holes must find the same.
        type Runner = fn(&[Option<usize>]) -> (Schedule, Vec<Finding>);
        let cases: [(Runner, Vec<(LintId, Forced)>); 3] = [
            (racy_runner, vec![(LintId::DataRace, vec![])]),
            (
                broken_slr_explore,
                vec![
                    (LintId::DataRace, vec![(3, 0), (4, 0), (5, 0), (6, 0)]),
                    (LintId::CommitWhileLockHeld, vec![(3, 0), (4, 0), (5, 0)]),
                ],
            ),
            (
                double_release_explore,
                vec![(LintId::ReleaseWithoutAcquire, vec![(1, 1), (2, 1), (3, 1), (4, 1), (5, 1)])],
            ),
        ];
        for (runner, want) in cases {
            let (_, findings) = explore_and_minimize(&unbounded(), runner);
            let got: Vec<_> = findings.iter().map(|f| (f.finding.lint, f.forced.clone())).collect();
            assert_eq!(got, want);
            // Minimizing the bloated first witness lands on it again.
            let (lint, forced) = &want[0];
            let (minimized, _, finding) =
                minimize(runner, &bloat(runner, forced), *lint).expect("witness must reproduce");
            assert_eq!((&minimized, finding.lint), (forced, *lint));
        }
    }

    #[test]
    fn diagram_marks_divergences_and_elides_long_schedules() {
        let mut steps = Schedule::default();
        for i in 0..100 {
            steps.push_step(i % 2, 0, 0b11);
        }
        let lines = render_diagram(&steps, &[(1, 1)]);
        assert!(lines.len() <= 60, "diagram must stay readable: {}", lines.len());
        assert!(lines.iter().any(|l| l.contains("elided")));
        assert!(lines.iter().any(|l| l.contains("t1*")));
        assert!(lines.iter().any(|l| l.contains("<- forced")));
    }

    #[test]
    fn quick_cell_is_clean_for_a_correct_scheme() {
        let spec = ExploreSpec::quick(SchemeKind::Hle, LockKind::Ttas, StructureKind::Queue);
        let report = explore_cell(&spec);
        assert!(report.executions >= 1);
        assert!(
            report.findings.is_empty(),
            "correct HLE cell must verify clean: {:#?}",
            report.findings
        );
    }

    /// The children `mode` generates for one execution, as whole prefixes
    /// in generation order.
    fn child_lists(mode: Mode, steps: &Schedule, choices: &[usize]) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        let collect = |j: usize, tail: &[usize]| out.push([&choices[..j], tail].concat());
        match mode {
            Mode::Exhaustive => exhaustive_children(steps, choices, collect),
            Mode::Dpor => dpor_children(steps, choices, collect),
        }
        out
    }

    /// The search loop the prefix trie replaced: hashed sets of prefix
    /// and choice vectors. [`explore`] must make the same runs in the same
    /// order and report the same executions and stats.
    fn reference_explore<T>(
        mode: Mode,
        bounds: &Bounds,
        runner: impl Fn(&[Option<usize>]) -> (Schedule, T),
        mut on_exec: impl FnMut(&Schedule, &[Option<usize>], T),
    ) -> ExploreStats {
        let mut stats = ExploreStats::default();
        let mut queued: HashSet<Vec<usize>> = HashSet::new();
        let mut executed: HashSet<Vec<usize>> = HashSet::new();
        let mut stack: Vec<Vec<usize>> = vec![Vec::new()];
        queued.insert(Vec::new());

        while let Some(prefix) = stack.pop() {
            if stats.executions >= bounds.max_schedules || stats.runs >= bounds.max_runs {
                stats.truncated = true;
                break;
            }
            let overrides: Vec<Option<usize>> = prefix.iter().copied().map(Some).collect();
            let (steps, payload) = runner(&overrides);
            stats.runs += 1;
            let choices: Vec<usize> = steps.iter().map(|s| s.chosen).collect();
            if !executed.insert(choices.clone()) {
                continue;
            }
            stats.executions += 1;
            on_exec(&steps, &overrides, payload);

            if steps.len() > bounds.max_steps {
                stats.truncated = true;
                continue;
            }
            let divergences = steps.iter().filter(|s| s.chosen != s.default).count() as u32;
            if bounds.divergence.is_some_and(|limit| divergences > limit) {
                stats.truncated = true;
                continue;
            }
            for child in child_lists(mode, &steps, &choices) {
                if queued.insert(child.clone()) {
                    stack.push(child);
                }
            }
        }
        stats
    }

    /// Per-step footprint normalized to sorted unique `(line, write)` pairs
    /// with the write flag OR-ed per line.
    fn footprints(steps: &Schedule) -> Vec<Vec<(u32, bool)>> {
        (0..steps.len())
            .map(|i| {
                let mut map: BTreeMap<u32, bool> = BTreeMap::new();
                for a in steps.accesses(i) {
                    *map.entry(a.line).or_insert(false) |= a.write;
                }
                map.into_iter().collect()
            })
            .collect()
    }

    /// Two footprints conflict when they share a line at least one side
    /// writes.
    fn conflicting(a: &[(u32, bool)], b: &[(u32, bool)]) -> bool {
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    if a[i].1 || b[j].1 {
                        return true;
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        false
    }

    /// The reference for [`dpor_children`]: the same race-reversal rule
    /// by comparing every pair of steps, O(n²) per execution.
    fn reference_dpor_children(steps: &Schedule, choices: &[usize]) -> Vec<Vec<usize>> {
        let n = choices.len();
        let threads = steps
            .iter()
            .flat_map(|s| s.enabled_threads())
            .max()
            .map_or(0, |t| t + 1)
            .max(choices.iter().copied().max().map_or(0, |t| t + 1));
        let fp = footprints(steps);

        let mut clocks: Vec<Vec<usize>> = Vec::with_capacity(n);
        for i in 0..n {
            let mut c = vec![0usize; threads];
            for j in 0..i {
                if choices[j] == choices[i] || conflicting(&fp[j], &fp[i]) {
                    for (ct, &jt) in c.iter_mut().zip(&clocks[j]) {
                        *ct = (*ct).max(jt);
                    }
                    c[choices[j]] = c[choices[j]].max(j + 1);
                }
            }
            clocks.push(c);
        }
        let hb = |j: usize, i: usize| clocks[i][choices[j]] > j;

        let mut out = Vec::new();
        for i in 0..n {
            let mut seen = vec![false; threads];
            for j in (0..i).rev() {
                let p = choices[j];
                if p == choices[i] || seen[p] {
                    continue;
                }
                if !conflicting(&fp[j], &fp[i]) {
                    continue;
                }
                seen[p] = true;
                if ((j + 1)..i).any(|k| hb(j, k) && hb(k, i)) {
                    continue;
                }
                let mut child = choices[..j].to_vec();
                for (k, &ck) in choices.iter().enumerate().take(i).skip(j + 1) {
                    if !hb(j, k) {
                        child.push(ck);
                    }
                }
                child.push(choices[i]);
                out.push(child);
            }
        }
        out
    }

    /// A synthetic trace: step `i` runs thread `trace[i].0` and touches
    /// the `(line, write)` accesses `trace[i].1`; every thread stays
    /// enabled.
    fn synthetic_steps(threads: usize, trace: &[(usize, Vec<(u32, bool)>)]) -> Schedule {
        let mut steps = Schedule::default();
        for (t, accesses) in trace {
            steps.push_step(*t, *t, (1 << threads) - 1);
            for &(line, write) in accesses {
                steps.push_access(elision_sim::StepAccess { line, write });
            }
        }
        steps
    }

    fn both_children(steps: &Schedule) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
        let choices: Vec<usize> = steps.iter().map(|s| s.chosen).collect();
        (child_lists(Mode::Dpor, steps, &choices), reference_dpor_children(steps, &choices))
    }

    #[test]
    fn one_pass_children_match_reference_on_edge_traces() {
        let (r, w) = (false, true);
        // Pure computation: nothing conflicts, nothing to reverse.
        let empty = synthetic_steps(3, &[(0, vec![]), (1, vec![]), (2, vec![]), (0, vec![])]);
        assert_eq!(both_children(&empty), (vec![], vec![]));
        // One step both reads and writes a line: it conflicts with a
        // later plain read as a write would.
        let rmw = synthetic_steps(2, &[(0, vec![(0, r), (0, w)]), (1, vec![(0, r)])]);
        assert_eq!(both_children(&rmw), (vec![vec![1]], vec![vec![1]]));
        // Runs of reads between writes, by three threads.
        let reads = synthetic_steps(
            3,
            &[
                (0, vec![(0, w)]),
                (1, vec![(0, r)]),
                (2, vec![(0, r)]),
                (1, vec![(0, r), (1, w)]),
                (0, vec![(0, w)]),
                (2, vec![(0, r)]),
                (1, vec![(0, r)]),
                (2, vec![(0, w), (1, r)]),
            ],
        );
        let (one_pass, reference) = both_children(&reads);
        assert!(!reference.is_empty());
        assert_eq!(one_pass, reference);
    }

    /// Every execution `explore_with` hands to `on_exec`, as its choices
    /// and the overrides that produced it, plus the stats.
    type Trail = (Vec<(Vec<usize>, Vec<Option<usize>>)>, ExploreStats);

    fn trail<R: Fn(&[Option<usize>]) -> (Schedule, Vec<Finding>)>(
        explore_with: impl FnOnce(
            Mode,
            &Bounds,
            R,
            &mut dyn FnMut(&Schedule, &[Option<usize>], Vec<Finding>),
        ) -> ExploreStats,
        mode: Mode,
        bounds: &Bounds,
        runner: R,
    ) -> Trail {
        let mut execs = Vec::new();
        let stats = explore_with(mode, bounds, runner, &mut |steps, overrides, _| {
            execs.push((steps.iter().map(|s| s.chosen).collect(), overrides.to_vec()));
        });
        (execs, stats)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// Racing toys of 2–4 threads under both modes and random bounds,
        /// down to ones that cut the search after one run: the trie
        /// explorer analyzes the hashed-set loop's executions, in its
        /// order, and reports the same stats, in no more runs. Where the
        /// loop stopped on its run bound, the explorer (which skips the
        /// loop's replays) may go on to analyze more.
        #[test]
        fn trie_explorer_matches_the_hashed_set_loop(
            threads in 2usize..5,
            exhaustive in proptest::any::<bool>(),
            divergence in 0u32..5,
            max_schedules in 1usize..120,
            max_runs in 1usize..240,
            steps_slack in 0usize..4,
        ) {
            let mode = if exhaustive { Mode::Exhaustive } else { Mode::Dpor };
            // Divergence 4 stands for no context-switch bound.
            let divergence = (divergence < 4).then_some(divergence);
            // Every execution takes two steps per thread; slack 0 stops
            // the search after the first.
            let max_steps = 2 * threads - 1 + steps_slack;
            let bounds = Bounds { divergence, max_schedules, max_runs, max_steps };
            let runner = |ov: &[Option<usize>]| racy_runner_n(threads, ov);
            let (got, stats) = trail(|m, b, r, on| explore_in(m, b, r, on), mode, &bounds, runner);
            let (want, reference) =
                trail(|m, b, r, on| reference_explore(m, b, r, on), mode, &bounds, runner);
            if reference.runs >= max_runs {
                proptest::prop_assert!(got.starts_with(&want));
            } else {
                proptest::prop_assert_eq!(got, want);
                proptest::prop_assert_eq!(
                    (stats.executions, stats.truncated),
                    (reference.executions, reference.truncated)
                );
            }
            proptest::prop_assert!(stats.runs <= reference.runs);
            proptest::prop_assert!(stats.runs - stats.executions <= stats.fallback_runs);
        }

        /// On the racing toys every run of either enumeration, under any
        /// bounds, is a new execution: no prefix falls back, so none
        /// replays one.
        #[test]
        fn racy_toys_run_only_new_executions(
            threads in 2usize..5,
            exhaustive in proptest::any::<bool>(),
            divergence in 0u32..5,
            max_schedules in 1usize..120,
        ) {
            let mode = if exhaustive { Mode::Exhaustive } else { Mode::Dpor };
            let divergence = (divergence < 4).then_some(divergence);
            let bounds = Bounds { divergence, max_schedules, ..unbounded() };
            let runner = |ov: &[Option<usize>]| racy_runner_n(threads, ov);
            let stats = explore_in(mode, &bounds, runner, |_, _, _| {});
            proptest::prop_assert_eq!(stats.runs, stats.executions);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4096))]

        /// Random 2–4-thread traces over 1–6 lines, one in four accesses
        /// a write (so reads come in runs between writes), steps with no
        /// access and steps that read and write one line included: the
        /// one-pass children equal the pairwise scan's, in order.
        #[test]
        fn one_pass_children_match_quadratic_reference(
            threads in 2usize..5,
            lines in 1u32..7,
            raw in proptest::collection::vec(
                (0usize..4, proptest::collection::vec((0u32..6, 0u8..4), 0..4)),
                1..61,
            ),
        ) {
            let trace: Vec<(usize, Vec<(u32, bool)>)> = raw
                .iter()
                .map(|(t, acc)| {
                    (t % threads, acc.iter().map(|&(l, w)| (l % lines, w == 0)).collect())
                })
                .collect();
            let (one_pass, reference) = both_children(&synthetic_steps(threads, &trace));
            proptest::prop_assert_eq!(one_pass, reference);
        }
    }
}
