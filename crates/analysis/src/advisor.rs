//! The static elision advisor: layout-aware lints and scheme-selection
//! advice from solo dry-runs, with *no* interleaving exploration.
//!
//! [`advise`] builds one structure under a concrete
//! [`elision_htm::PlacementConfig`] ([`place`]), dry-runs a small battery of
//! operation instances per operation class ([`crate::footprint`]),
//! projects the footprints onto the placement's [`LayoutMap`]
//! ([`crate::layout`]), and emits [`Finding`]s under the sanitizer's
//! [`LintId`] taxonomy:
//!
//! - [`LintId::FalseSharing`] — operations that share no variable yet
//!   conflict on a line (arXiv 1504.04640's placement-induced aborts);
//! - [`LintId::CapacityRisk`] — a footprint within 20% of the HTM's
//!   read/write line budgets;
//! - [`LintId::LockWordCoResidency`] — data co-resident with a lock
//!   word, so every elided section self-aborts on its own lock line;
//! - [`LintId::LazyDangerousInstruction`] — a lazily-subscribed scheme
//!   running sections whose write targets are data-dependent
//!   (arXiv 1407.6968's dangerous instructions).
//!
//! The report also predicts the *hot lines* — where dynamic conflict
//! aborts should land — so a sweep can cross-validate the static story
//! against a real run: the conflict line of each
//! [`elision_htm::SanAccess::TxnAbort`] in the run's sanitizer log.

use std::collections::BTreeSet;
use std::sync::Arc;

use elision_core::{make_scheme, LockKind, Scheme, SchemeConfig, SchemeKind};
use elision_htm::{HtmConfig, LayoutMap, MemoryBuilder, PlacementConfig, Placer, VarRole};
use elision_structures::{
    HashTable, OpAction, RbTree, SimQueue, SortedList, Structure, StructureKind,
};

use crate::footprint::{dry_run, OpFn, OpFootprint, OpSpec};
use crate::layout::{false_sharing_lines, interference_graph, Interference};
use crate::{AccessSite, Finding, LintId};

/// The main-lock family every cell is laid out with.
const LOCK: LockKind = LockKind::Ttas;

/// Keys (queue values) present before the battery runs: `0, 2, 4, ...`.
pub const PREFILL: usize = 24;

/// Node (queue slot) capacity: the prefill plus slack for the battery's
/// inserts.
const CAPACITY: usize = PREFILL + 8;

/// Hash-table buckets: half the prefill, so chains stay short but
/// collisions exist.
const BUCKETS: usize = PREFILL / 2;

/// Flag a footprint whose line count reaches this fraction (permille) of
/// a capacity budget.
const CAPACITY_MARGIN_PERMILLE: usize = 800;

/// Everything [`advise`] needs to analyze one structure × placement ×
/// scheme cell.
#[derive(Debug, Clone)]
pub struct AdvisorSpec {
    /// Which data structure to profile.
    pub structure: StructureKind,
    /// The memory-placement policy to lay it out under.
    pub placement: PlacementConfig,
    /// The elision scheme the advice targets (its lock words are placed
    /// into the layout; lazy schemes enable the dangerous-instruction
    /// lint).
    pub scheme: SchemeKind,
    /// The HTM whose capacity budgets the footprints are linted against.
    pub htm: HtmConfig,
    /// Thread count the structure is sized for (free-list partitions,
    /// lock slots). The dry-run itself is always single-threaded.
    pub threads: usize,
}

impl AdvisorSpec {
    /// A spec with Haswell HTM budgets and 4 threads.
    pub fn new(structure: StructureKind, placement: PlacementConfig, scheme: SchemeKind) -> Self {
        AdvisorSpec { structure, placement, scheme, htm: HtmConfig::haswell(), threads: 4 }
    }

    /// Stable cell label: `structure/placement/scheme`.
    pub fn label(&self) -> String {
        format!("{}/{}/{}", self.structure.label(), self.placement.label(), self.scheme.label())
    }
}

/// Lay out `spec`'s scheme and structure under its placement policy,
/// sized for `spec.threads`, with the sanitizer enabled. Returns the
/// unfrozen memory, its layout map, the scheme and the structure (whose
/// `init` is still to run). The advisor's dry-run starts here, and so
/// does any dynamic run meant to see the layout the advice is about.
pub fn place(spec: &AdvisorSpec) -> (MemoryBuilder, LayoutMap, Arc<Scheme>, Structure) {
    let mut b = MemoryBuilder::new();
    b.enable_sanitizer();
    let mut p = Placer::new(b, spec.placement);
    let threads = spec.threads;
    // Lock words first: co-resident placement packs them against the
    // structure the same way a careless allocator would.
    let scheme = make_scheme(spec.scheme, LOCK, SchemeConfig::paper(), p.builder_mut(), threads);
    let structure = match spec.structure {
        StructureKind::HashTable => {
            Structure::HashTable(HashTable::new_placed(&mut p, BUCKETS, CAPACITY, threads))
        }
        StructureKind::List => Structure::List(SortedList::new_placed(&mut p, CAPACITY, threads)),
        StructureKind::Queue => Structure::Queue(SimQueue::new_placed(&mut p, CAPACITY)),
        StructureKind::RbTree => Structure::RbTree(RbTree::new_placed(&mut p, CAPACITY, threads)),
    };
    let (b, layout) = p.finish();
    (b, layout, scheme, structure)
}

/// The advisor's verdict for one cell.
#[derive(Debug)]
pub struct AdvisorReport {
    /// Cell label (`structure/placement/scheme`).
    pub label: String,
    /// Layout-aware lints, in taxonomy order then line/label order.
    pub findings: Vec<Finding>,
    /// The dry-run footprints, in battery order.
    pub footprints: Vec<OpFootprint>,
    /// The cross-operation interference graph.
    pub edges: Vec<Interference>,
    /// Predicted conflict/capacity hot lines: lines of written
    /// variables, widened to whole record regions (a dry-run write to
    /// record *i* stands for a runtime write to any record), plus every
    /// lock line.
    pub hot_lines: BTreeSet<u32>,
    /// Scheme-selection advice, human-readable, deterministic.
    pub advice: Vec<String>,
    /// The placement's layout map.
    pub layout: LayoutMap,
}

impl AdvisorReport {
    /// The distinct lints present, in [`LintId::ALL`] order.
    pub fn lints(&self) -> Vec<LintId> {
        LintId::ALL.into_iter().filter(|l| self.findings.iter().any(|f| f.lint == *l)).collect()
    }
}

fn site(var: Option<u32>, line: Option<u32>) -> AccessSite {
    // Static findings have no schedule provenance; tid/time/seq are
    // fixed so reports stay byte-stable.
    AccessSite { tid: 0, var, line, time: 0, seq: 0 }
}

/// The dry-run battery: a prefill of the [`PREFILL`] present (even)
/// keys, three instances of the structure's read class, then three each
/// of its two write classes, interleaved. Inserts use absent (odd) keys.
fn battery(structure: &Structure) -> (OpFn, Vec<OpSpec>) {
    let hit = |i: usize| 2 * i as u64;
    let miss = |i: usize| (2 * i + 1) as u64;
    // The three instances per class are spread across the prefilled
    // keyspace (first, middle, last) so worst-case walks — the
    // footprints capacity linting must see — are represented instead of
    // only near-head early exits.
    let spread = |i: usize| i * (PREFILL - 1) / 2;
    let op = |class: &str, label: String, action: OpAction| {
        let st = structure.clone();
        OpSpec::new(class, label, move |s| st.apply(s, action).map(|_| ()))
    };
    let mut ops = Vec::new();
    for i in 0..3 {
        let h = hit(spread(i));
        ops.push(match structure {
            Structure::HashTable(_) => op("get", format!("get({h})"), OpAction::MapGet(h)),
            Structure::Queue(q) => {
                let q = q.clone();
                OpSpec::new("len", "len()", move |s| q.len(s).map(|_| ()))
            }
            _ => op("contains", format!("contains({h})"), OpAction::SetContains(h)),
        });
    }
    for i in 0..3 {
        let (h, m) = (hit(spread(i)), miss(spread(i)));
        ops.extend(match structure {
            Structure::HashTable(_) => [
                op("put", format!("put({m})"), OpAction::MapPut(m, 7)),
                op("remove", format!("remove({h})"), OpAction::MapRemove(h)),
            ],
            Structure::Queue(_) => [
                op("push", format!("push#{i}"), OpAction::Push(9)),
                op("pop", format!("pop#{i}"), OpAction::Pop),
            ],
            _ => [
                op("insert", format!("insert({m})"), OpAction::SetInsert(m)),
                op("remove", format!("remove({h})"), OpAction::SetRemove(h)),
            ],
        });
    }
    let fill: Vec<OpAction> = (0..PREFILL)
        .map(|i| match structure {
            Structure::HashTable(_) => OpAction::MapPut(hit(i), hit(i) + 1),
            Structure::Queue(_) => OpAction::Push(hit(i)),
            _ => OpAction::SetInsert(hit(i)),
        })
        .collect();
    let st = structure.clone();
    let prefill: OpFn = Box::new(move |s| {
        for &action in &fill {
            st.apply(s, action)?;
        }
        Ok(())
    });
    (prefill, ops)
}

/// The layout and battery footprints of one cell.
fn profile(spec: &AdvisorSpec) -> (LayoutMap, Vec<OpFootprint>) {
    let (b, layout, _scheme, structure) = place(spec);
    let mem = b.freeze(1);
    structure.init(&mem);
    let (prefill, ops) = battery(&structure);
    (layout, dry_run(mem, prefill, ops))
}

fn lint_false_sharing(
    edges: &[Interference],
    fps: &[OpFootprint],
    layout: &LayoutMap,
    findings: &mut Vec<Finding>,
) {
    for (line, edge_idx) in false_sharing_lines(edges) {
        let e = &edges[edge_idx];
        let (wv, tv) = e.witness.expect("false-sharing edge carries a witness");
        let name = |v: u32| {
            layout
                .resolve(v)
                .map(|r| format!("{}[{}].{}", r.name, r.record, r.field))
                .unwrap_or_else(|| format!("word {v}"))
        };
        findings.push(Finding {
            lint: LintId::FalseSharing,
            message: format!(
                "line {line}: {} ({}) and {} ({}) conflict only through co-residency — \
                 the operations share no variable; padding or scattering removes this abort",
                name(wv),
                fps[e.a].label,
                name(tv),
                fps[e.b].label,
            ),
            sites: vec![site(Some(wv), Some(line)), site(Some(tv), Some(line))],
        });
    }
}

fn lint_capacity(
    spec: &AdvisorSpec,
    fps: &[OpFootprint],
    layout: &LayoutMap,
    out: &mut Vec<Finding>,
) {
    let speculative = !matches!(spec.scheme, SchemeKind::NoLock | SchemeKind::Standard);
    // Every elided section also reads the main lock's line (eager
    // subscription up front, lazy at commit): one extra read line.
    let overhead = usize::from(speculative);
    let margin = CAPACITY_MARGIN_PERMILLE;
    for fp in fps {
        let reads = fp.read_lines(layout).len() + overhead;
        let writes = fp.write_lines(layout).len();
        for (kind, used, budget) in
            [("read", reads, spec.htm.read_set_lines), ("write", writes, spec.htm.write_set_lines)]
        {
            if budget > 0 && used * 1000 >= margin * budget {
                out.push(Finding {
                    lint: LintId::CapacityRisk,
                    message: format!(
                        "{}: {kind}-set footprint of {used} lines is within {}‰ of the \
                         {budget}-line budget — capacity aborts make elision futile here",
                        fp.label,
                        1000 - margin.min(1000),
                    ),
                    sites: vec![site(None, None)],
                });
            }
        }
    }
}

fn lint_lock_coresidency(layout: &LayoutMap, out: &mut Vec<Finding>) {
    let lock_lines: BTreeSet<u32> = layout.lock_lines().into_iter().collect();
    if lock_lines.is_empty() {
        return;
    }
    let mut flagged: BTreeSet<u32> = BTreeSet::new();
    for (ri, region) in layout.regions().iter().enumerate() {
        if region.role == VarRole::Lock {
            continue;
        }
        for line in layout.lines_of_region(ri) {
            if lock_lines.contains(&line) && flagged.insert(line) {
                out.push(Finding {
                    lint: LintId::LockWordCoResidency,
                    message: format!(
                        "line {line}: region \"{}\" shares a cache line with a lock word — \
                         every elided section touching it conflicts with its own lock \
                         (guaranteed HLE self-abort)",
                        region.name,
                    ),
                    sites: vec![site(None, Some(line))],
                });
            }
        }
    }
}

fn lint_lazy_dangerous(spec: &AdvisorSpec, fps: &[OpFootprint], out: &mut Vec<Finding>) {
    if !spec.scheme.is_lazy_subscription() {
        return;
    }
    let mut classes: Vec<&str> = Vec::new();
    for f in fps {
        if !classes.contains(&f.class.as_str()) {
            classes.push(&f.class);
        }
    }
    for class in classes {
        let sets: Vec<&BTreeSet<u32>> =
            fps.iter().filter(|f| f.class == class).map(|f| &f.writes).collect();
        let writes_anything = sets.iter().any(|s| !s.is_empty());
        let unstable = sets.windows(2).any(|w| w[0] != w[1]);
        if writes_anything && unstable {
            let a = sets[0];
            let b = sets.iter().find(|s| **s != a).expect("unstable implies a differing set");
            let wa = a.iter().next().copied();
            let wb = b.iter().next().copied();
            out.push(Finding {
                lint: LintId::LazyDangerousInstruction,
                message: format!(
                    "{} under {}: \"{class}\" writes data-dependent targets (instances \
                     differ in their write sets) — a zombie running this lazily-subscribed \
                     section can write wild addresses before the subscription check",
                    spec.structure.label(),
                    spec.scheme.label(),
                ),
                sites: vec![site(wa, None), site(wb, None)],
            });
        }
    }
}

fn predicted_hot_lines(fps: &[OpFootprint], layout: &LayoutMap) -> BTreeSet<u32> {
    let mut hot: BTreeSet<u32> = BTreeSet::new();
    let mut hot_regions: BTreeSet<usize> = BTreeSet::new();
    for fp in fps {
        for &w in &fp.writes {
            hot.insert(layout.line_of_word(w));
            if let Some(r) = layout.resolve(w) {
                // A dry-run write to record i stands for a runtime write
                // to any record of the region.
                if layout.regions()[r.region].bases.len() > 1 {
                    hot_regions.insert(r.region);
                }
            }
        }
    }
    for ri in hot_regions {
        hot.extend(layout.lines_of_region(ri));
    }
    hot.extend(layout.lock_lines());
    hot
}

fn build_advice(
    spec: &AdvisorSpec,
    findings: &[Finding],
    fps: &[OpFootprint],
    layout: &LayoutMap,
) -> Vec<String> {
    let has = |l: LintId| findings.iter().any(|f| f.lint == l);
    let mut advice = Vec::new();
    if has(LintId::LockWordCoResidency) {
        advice.push(
            "isolate lock words (placement without lock co-residency): co-resident locks \
             guarantee self-aborts, so elision degenerates to the standard lock"
                .to_string(),
        );
    }
    if has(LintId::CapacityRisk) {
        advice.push(format!(
            "footprints approach the HTM line budget: prefer {} over speculative retries \
             (capacity aborts are deterministic, retrying them is wasted work)",
            SchemeKind::Standard.label(),
        ));
    }
    if has(LintId::FalseSharing) {
        advice.push(
            "placement-induced conflicts detected: padded or index-aware placement removes \
             them without touching the algorithm"
                .to_string(),
        );
    }
    if has(LintId::LazyDangerousInstruction) {
        advice.push(format!(
            "write targets are data-dependent: prefer eager subscription ({} / {}) over \
             lazily-subscribed SLR variants",
            SchemeKind::Hle.label(),
            SchemeKind::HleScm.label(),
        ));
    }
    if advice.is_empty() {
        let max_lines = fps.iter().map(|f| f.lines(layout).len()).max().unwrap_or(0);
        advice.push(format!(
            "layout clean for {}: max footprint {max_lines} line(s) — speculation should \
             scale, conflicts (if any) are inherent to the workload",
            spec.scheme.label(),
        ));
    }
    advice
}

/// Run the full static analysis for one cell.
///
/// # Panics
///
/// Panics if the dry-run battery aborts (impossible under the dry-run
/// HTM configuration unless the structure itself is broken) or exhausts
/// an arena (spec sizing bug).
pub fn advise(spec: &AdvisorSpec) -> AdvisorReport {
    let (layout, footprints) = profile(spec);
    let edges = interference_graph(&footprints, &layout);
    let mut findings = Vec::new();
    lint_false_sharing(&edges, &footprints, &layout, &mut findings);
    lint_capacity(spec, &footprints, &layout, &mut findings);
    lint_lock_coresidency(&layout, &mut findings);
    lint_lazy_dangerous(spec, &footprints, &mut findings);
    // Taxonomy order, then insertion order within a lint: byte-stable.
    findings.sort_by_key(|f| LintId::ALL.iter().position(|l| *l == f.lint));
    let hot_lines = predicted_hot_lines(&footprints, &layout);
    let advice = build_advice(spec, &findings, &footprints, &layout);
    AdvisorReport { label: spec.label(), findings, footprints, edges, hot_lines, advice, layout }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elision_htm::PlacementPolicy;

    fn spec(
        structure: StructureKind,
        placement: PlacementConfig,
        scheme: SchemeKind,
    ) -> AdvisorSpec {
        AdvisorSpec::new(structure, placement, scheme)
    }

    #[test]
    fn padded_layouts_are_clean_for_eager_schemes() {
        for structure in StructureKind::ALL {
            let report = advise(&spec(structure, PlacementConfig::padded(), SchemeKind::Hle));
            assert!(
                report.findings.is_empty(),
                "{}: unexpected findings: {:?}",
                report.label,
                report.findings
            );
            assert!(!report.hot_lines.is_empty());
            assert_eq!(report.advice.len(), 1);
        }
    }

    #[test]
    fn coresident_locks_are_flagged() {
        let report =
            advise(&spec(StructureKind::RbTree, PlacementConfig::packed(), SchemeKind::Hle));
        assert!(report.lints().contains(&LintId::LockWordCoResidency), "{:?}", report.findings);
    }

    #[test]
    fn lazy_scheme_flags_data_dependent_writes() {
        let report =
            advise(&spec(StructureKind::RbTree, PlacementConfig::padded(), SchemeKind::OptSlr));
        let lints = report.lints();
        assert!(lints.contains(&LintId::LazyDangerousInstruction), "{:?}", report.findings);
        assert!(!lints.contains(&LintId::LockWordCoResidency));
    }

    #[test]
    fn tight_budget_triggers_capacity_risk() {
        let mut s = spec(StructureKind::List, PlacementConfig::padded(), SchemeKind::Hle);
        s.htm = HtmConfig::deterministic().with_capacity(8, 8);
        let report = advise(&s);
        assert!(report.lints().contains(&LintId::CapacityRisk), "{:?}", report.findings);
    }

    #[test]
    fn reports_are_deterministic() {
        let s = spec(
            StructureKind::HashTable,
            PlacementConfig::new(PlacementPolicy::Randomized(3)),
            SchemeKind::Hle,
        );
        let a = advise(&s);
        let b = advise(&s);
        assert_eq!(format!("{:?}", a.findings), format!("{:?}", b.findings));
        assert_eq!(a.hot_lines, b.hot_lines);
    }
}
