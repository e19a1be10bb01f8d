//! Static elision advisor sweep: run the layout-aware lint passes over
//! the structure × placement-policy × scheme matrix, assert the seeded
//! findings, and cross-validate the static predictions against dynamic
//! abort telemetry.
//!
//! Three cell families:
//!
//! - **matrix** cells run [`elision_analysis::advisor::advise`] alone.
//!   Seeded-bad layouts (packed records, lock words co-resident with
//!   data, lazily-subscribed schemes over data-dependent writes) MUST be
//!   flagged with the expected lints; padded layouts under eager schemes
//!   MUST report zero findings.
//! - **capacity** cells lint the sorted list against a deliberately tiny
//!   HTM line budget (flagged) and the default budget (clean), each
//!   cross-checked against a dynamic run's capacity-abort count.
//! - **xval** cells run a real multi-threaded workload under the
//!   sanitizer over the layout the advisor profiled (both build it with
//!   [`elision_analysis::advisor::place`]), tally the conflict lines of
//!   the aborts it logs in the measured phase, and assert that (a) every dynamic conflict abort lands on an
//!   advisor-predicted hot line and (b) the abort-cause mix agrees
//!   with the static verdict: a padded bucket-disjoint hash workload
//!   aborts zero times, the same workload packed aborts on placement
//!   alone, and a packed+lockco queue self-aborts on its lock line.
//!
//! With `--metrics DIR` the report is written as `ELISION_LINT.json`
//! (schema-compatible with `repro summary`). It contains no job counts
//! or wall-clock data, so it is byte-identical across `--jobs` values;
//! host timing goes to `TIMING_elision_lint.json`, which the determinism
//! gates exclude.

use super::{finding_json, Run};
use crate::metrics::{cause_histogram_json, Json, SCHEMA_VERSION};
use crate::report::Table;
use crate::sweep::Cell;
use elision_analysis::advisor::{advise, place, AdvisorReport, AdvisorSpec, PREFILL};
use elision_analysis::LintId;
use elision_core::SchemeKind;
use elision_htm::{harness, PlacementConfig, PlacementPolicy, SanAccess, Strand};
use elision_sim::{AbortCause, DetRng, OpCounters};
use elision_structures::{Structure, StructureKind};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The four layout lints, i.e. everything a clean layout must not trip.
const ALL_LAYOUT_LINTS: [LintId; 4] = [
    LintId::FalseSharing,
    LintId::CapacityRisk,
    LintId::LockWordCoResidency,
    LintId::LazyDangerousInstruction,
];

/// Operations per simulated thread in a dynamic probe.
const PROBE_ITERS: usize = 240;
/// Seed for probe workload RNGs.
const PROBE_SEED: u64 = 0xE11D;

/// What a cell's dynamic probe must show to agree with the advisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProbeCheck {
    /// Static-only cell: no dynamic run.
    None,
    /// The layout is clean and the workload conflict-free: zero aborts.
    NoAborts,
    /// Placement-induced conflicts must appear, all on predicted hot
    /// lines.
    ConflictsOnHot,
    /// Lock-word self-aborts must appear, all conflicts on hot lines.
    LockWordOnHot,
    /// Capacity aborts must appear (tight budget cell).
    CapacityYes,
    /// Capacity aborts must be absent (roomy budget cell).
    CapacityNo,
}

struct CellSpec {
    key: String,
    spec: AdvisorSpec,
    /// Lints that MUST be present in the advisor findings.
    expected: Vec<LintId>,
    /// Lints that MUST be absent.
    forbidden: Vec<LintId>,
    /// The findings list must be exactly empty.
    strict_clean: bool,
    probe: ProbeCheck,
}

/// A probe's dynamic telemetry: the measured phase's counters, and its
/// aborts counted by conflict line, in ascending line order.
type Probe = (OpCounters, BTreeMap<u32, u64>);

struct CellOut {
    report: AdvisorReport,
    probe: Option<Probe>,
}

/// Run one strand's measured phase: reset counters, run `iters`
/// operations. Returns the phase's counters and the strand's clock when
/// it began; the thread's logged aborts count from that time on.
fn measured<F: FnMut(&mut Strand, usize)>(
    s: &mut Strand,
    iters: usize,
    mut op: F,
) -> (OpCounters, u64) {
    s.counters = OpCounters::new();
    let start = s.now();
    for i in 0..iters {
        op(s, i);
    }
    (s.counters, start)
}

/// Run a real multi-threaded workload over the layout the advisor
/// profiled ([`place`]).
fn run_probe(spec: &AdvisorSpec) -> Probe {
    let threads = spec.threads;
    let (b, _, scheme, structure) = place(spec);
    let mem = Arc::new(b.freeze(threads));
    structure.init(&mem);
    let run = Arc::clone(&mem);
    let (results, _): (Vec<(OpCounters, u64)>, _) = match structure {
        Structure::HashTable(table) => {
            // Bucket-disjoint key sets: thread t only ever touches keys
            // hashing into its own half of the bucket array, so under a
            // padded layout the threads' footprints are fully disjoint
            // and every dynamic conflict is placement-induced.
            let buckets = table.n_buckets();
            let mut keys: Vec<Vec<u64>> = vec![Vec::new(); threads];
            let mut k = 0u64;
            let per = buckets / threads;
            while keys.iter().any(|v| v.len() < 8) {
                let t = (table.bucket_of(k) / per.max(1)).min(threads - 1);
                if keys[t].len() < 8 {
                    keys[t].push(k);
                }
                k += 1;
            }
            let keys = Arc::new(keys);
            harness::run_arc(threads, 0, spec.htm, PROBE_SEED, run, move |s| {
                let mine = &keys[s.tid()];
                // Prefill own keys (allocates from this thread's
                // free-list pool, interleaving node indices across
                // threads). Not part of the measured phase.
                for &key in mine {
                    scheme.execute(s, |s| table.put(s, key, 1).map(|_| ()));
                }
                let mut rng = DetRng::new(PROBE_SEED + s.tid() as u64, 0x11);
                measured(s, PROBE_ITERS, |s, i| {
                    let key = mine[rng.below(mine.len() as u64) as usize];
                    if rng.below(2) == 0 {
                        scheme.execute(s, |s| table.put(s, key, i as u64).map(|_| ()));
                    } else {
                        scheme.execute(s, |s| table.get(s, key).map(|_| ()));
                    }
                })
            })
        }
        Structure::Queue(q) => harness::run_arc(threads, 0, spec.htm, PROBE_SEED, run, move |s| {
            measured(s, PROBE_ITERS, |s, i| {
                if i % 2 == 0 {
                    scheme.execute(s, |s| q.push(s, i as u64).map(|_| ()));
                } else {
                    scheme.execute(s, |s| q.pop(s).map(|_| ()));
                }
            })
        }),
        Structure::List(list) => {
            let n = PREFILL as u64;
            // Quiescent single-thread prefill, as the advisor does.
            harness::run_arc(
                1,
                0,
                elision_htm::HtmConfig::deterministic(),
                PROBE_SEED,
                Arc::clone(&mem),
                {
                    let list = list.clone();
                    move |s| {
                        for i in 0..n {
                            list.insert(s, 2 * i).expect("plain prefill cannot abort");
                        }
                    }
                },
            );
            harness::run_arc(threads, 0, spec.htm, PROBE_SEED, run, move |s| {
                let mut rng = DetRng::new(PROBE_SEED + s.tid() as u64, 0x13);
                measured(s, PROBE_ITERS, |s, _| {
                    let key = 2 * rng.below(n);
                    scheme.execute(s, |s| list.contains(s, key).map(|_| ()));
                })
            })
        }
        Structure::RbTree(_) => unimplemented!("no rbtree probe cell in the sweep"),
    };
    let counters = OpCounters::sum(results.iter().map(|(c, _)| c));
    // A thread's prefill aborts are logged before its measured phase
    // starts (each unwind then charges the abort cost), and the list's
    // plain prefill, a run of its own, never aborts.
    let mut lines = BTreeMap::new();
    mem.san_log().expect("probe memory is sanitized").with_events(|events| {
        for e in events {
            if let SanAccess::TxnAbort { line: Some(line), .. } = e.access {
                if e.time >= results[e.tid].1 {
                    *lines.entry(line).or_insert(0) += 1;
                }
            }
        }
    });
    (counters, lines)
}

fn lint_labels(lints: &[LintId]) -> Json {
    Json::Arr(lints.iter().map(|l| Json::Str(l.label().to_string())).collect())
}

fn row_json(cell: &CellSpec, out: &CellOut, lines_in_hot: Option<bool>) -> Json {
    let footprints = out
        .report
        .footprints
        .iter()
        .map(|fp| {
            Json::obj(vec![
                ("class", Json::Str(fp.class.clone())),
                ("label", Json::Str(fp.label.clone())),
                ("read_lines", Json::Uint(fp.read_lines(&out.report.layout).len() as u64)),
                ("write_lines", Json::Uint(fp.write_lines(&out.report.layout).len() as u64)),
            ])
        })
        .collect();
    let mut fields = vec![
        ("cell", Json::Str(cell.key.clone())),
        ("structure", Json::Str(cell.spec.structure.label().to_string())),
        ("placement", Json::Str(cell.spec.placement.label())),
        ("scheme", Json::Str(cell.spec.scheme.label().to_string())),
        ("expected", lint_labels(&cell.expected)),
        ("forbidden", lint_labels(&cell.forbidden)),
        ("strict_clean", Json::Bool(cell.strict_clean)),
        ("findings", Json::Arr(out.report.findings.iter().map(finding_json).collect())),
        ("advice", Json::Arr(out.report.advice.iter().map(|a| Json::Str(a.clone())).collect())),
        (
            "hot_lines",
            Json::Arr(out.report.hot_lines.iter().map(|&l| Json::Uint(u64::from(l))).collect()),
        ),
        ("footprints", Json::Arr(footprints)),
    ];
    if let Some((counters, lines)) = &out.probe {
        fields.push(("abort_causes", cause_histogram_json(&counters.causes)));
        fields.push((
            "probe",
            Json::obj(vec![
                ("completed", Json::Uint(counters.completed())),
                ("aborted", Json::Uint(counters.aborted)),
                (
                    "conflict_lines",
                    Json::Arr(
                        lines
                            .iter()
                            .map(|(&l, &n)| {
                                Json::obj(vec![
                                    ("line", Json::Uint(u64::from(l))),
                                    ("aborts", Json::Uint(n)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("lines_in_hot", lines_in_hot.map_or(Json::Null, Json::Bool)),
            ]),
        ));
    }
    Json::obj(fields)
}

/// Structures whose packed battery provably exhibits cross-record false
/// sharing (determined by the advisor itself; asserted so the lint
/// cannot silently go vacuous).
fn packed_false_sharing(structure: StructureKind) -> bool {
    // The queue's operations all collide on head/tail, so every packed
    // conflict is inherent — the advisor correctly refuses to call it
    // false sharing.
    !matches!(structure, StructureKind::Queue)
}

fn matrix_cells(full: bool) -> Vec<CellSpec> {
    let placements = [
        PlacementConfig::packed(),
        PlacementConfig::new(PlacementPolicy::Packed),
        PlacementConfig::padded(),
        PlacementConfig::new(PlacementPolicy::IndexAware),
        PlacementConfig::new(PlacementPolicy::Randomized(0x9E37_79B9)),
    ];
    let schemes: &[SchemeKind] = if full {
        &[
            SchemeKind::Standard,
            SchemeKind::Hle,
            SchemeKind::HleRetries,
            SchemeKind::HleScm,
            SchemeKind::OptSlr,
            SchemeKind::SlrScm,
        ]
    } else {
        &[SchemeKind::Hle, SchemeKind::OptSlr]
    };
    let mut cells = Vec::new();
    for structure in StructureKind::ALL {
        for placement in placements {
            for &scheme in schemes {
                let lazy = scheme.is_lazy_subscription();
                let mut expected = Vec::new();
                let mut forbidden = Vec::new();
                let mut strict_clean = false;
                match placement.policy {
                    PlacementPolicy::Packed if placement.lock_coresident => {
                        expected.push(LintId::LockWordCoResidency);
                        forbidden.push(LintId::CapacityRisk);
                    }
                    PlacementPolicy::Packed => {
                        if packed_false_sharing(structure) {
                            expected.push(LintId::FalseSharing);
                        }
                        forbidden.push(LintId::LockWordCoResidency);
                        forbidden.push(LintId::CapacityRisk);
                    }
                    PlacementPolicy::Padded => {
                        forbidden.push(LintId::FalseSharing);
                        forbidden.push(LintId::LockWordCoResidency);
                        forbidden.push(LintId::CapacityRisk);
                        strict_clean = !lazy;
                    }
                    PlacementPolicy::IndexAware | PlacementPolicy::Randomized(_) => {
                        forbidden.push(LintId::LockWordCoResidency);
                        forbidden.push(LintId::CapacityRisk);
                    }
                }
                if lazy {
                    expected.push(LintId::LazyDangerousInstruction);
                } else {
                    forbidden.push(LintId::LazyDangerousInstruction);
                }
                let spec = AdvisorSpec::new(structure, placement, scheme);
                cells.push(CellSpec {
                    key: format!("matrix/{}", spec.label()),
                    spec,
                    expected,
                    forbidden,
                    strict_clean,
                    probe: ProbeCheck::None,
                });
            }
        }
    }
    cells
}

fn probe_cells() -> Vec<CellSpec> {
    let det = elision_htm::HtmConfig::deterministic();
    let mut cells = Vec::new();

    // Capacity pair: the same padded list linted against a tiny budget
    // (flagged, and the dynamic run hits capacity aborts) and the
    // default budget (clean, and the dynamic run hits none).
    let mut tight =
        AdvisorSpec::new(StructureKind::List, PlacementConfig::padded(), SchemeKind::Hle);
    tight.threads = 2;
    tight.htm = det.with_capacity(16, 8);
    cells.push(CellSpec {
        key: "capacity/list/tight".to_string(),
        spec: tight,
        expected: vec![LintId::CapacityRisk],
        forbidden: vec![
            LintId::FalseSharing,
            LintId::LockWordCoResidency,
            LintId::LazyDangerousInstruction,
        ],
        strict_clean: false,
        probe: ProbeCheck::CapacityYes,
    });
    let mut roomy =
        AdvisorSpec::new(StructureKind::List, PlacementConfig::padded(), SchemeKind::Hle);
    roomy.threads = 2;
    roomy.htm = det;
    cells.push(CellSpec {
        key: "capacity/list/roomy".to_string(),
        spec: roomy,
        expected: Vec::new(),
        forbidden: ALL_LAYOUT_LINTS.to_vec(),
        strict_clean: true,
        probe: ProbeCheck::CapacityNo,
    });

    // Cross-validation trio: identical bucket-disjoint hash workload
    // under padded (zero aborts) and packed (placement-induced aborts on
    // predicted hot lines), plus a packed+lockco queue whose head/tail
    // words share the lock line (lock-word self-aborts).
    let mut hp =
        AdvisorSpec::new(StructureKind::HashTable, PlacementConfig::padded(), SchemeKind::Hle);
    hp.threads = 2;
    hp.htm = det;
    cells.push(CellSpec {
        key: "xval/hashtable/padded".to_string(),
        spec: hp,
        expected: Vec::new(),
        forbidden: ALL_LAYOUT_LINTS.to_vec(),
        strict_clean: true,
        probe: ProbeCheck::NoAborts,
    });
    let mut hk = AdvisorSpec::new(
        StructureKind::HashTable,
        PlacementConfig::new(PlacementPolicy::Packed),
        SchemeKind::Hle,
    );
    hk.threads = 2;
    hk.htm = det;
    cells.push(CellSpec {
        key: "xval/hashtable/packed".to_string(),
        spec: hk,
        expected: vec![LintId::FalseSharing],
        forbidden: vec![LintId::LockWordCoResidency, LintId::CapacityRisk],
        strict_clean: false,
        probe: ProbeCheck::ConflictsOnHot,
    });
    let mut ql = AdvisorSpec::new(StructureKind::Queue, PlacementConfig::packed(), SchemeKind::Hle);
    ql.threads = 2;
    ql.htm = det;
    cells.push(CellSpec {
        key: "xval/queue/packed+lockco".to_string(),
        spec: ql,
        expected: vec![LintId::LockWordCoResidency],
        forbidden: vec![LintId::CapacityRisk],
        strict_clean: false,
        probe: ProbeCheck::LockWordOnHot,
    });
    cells
}

pub(super) fn run(run: &mut Run) {
    let (quick, full) = (run.args.quick, run.args.full);
    println!("== Static elision advisor: structure x placement x scheme ==\n");

    let mut cells = matrix_cells(full);
    cells.extend(probe_cells());

    let sweep_cells: Vec<Cell<'_, CellOut>> = cells
        .iter()
        .map(|c| {
            let spec = c.spec.clone();
            let probe = c.probe;
            // Matrix cells only dry-run on one strand; probe cells also
            // spawn `spec.threads` simulated threads.
            let sim = if probe == ProbeCheck::None { 1 } else { spec.threads };
            Cell::new(c.key.clone(), sim, move || {
                let report = advise(&spec);
                let probe = (probe != ProbeCheck::None).then(|| run_probe(&spec));
                CellOut { report, probe }
            })
        })
        .collect();

    let results = run.sweep(sweep_cells);

    let mut rows: Vec<Json> = Vec::new();
    let mut table = Table::new(&["cell", "findings", "lints", "probe"]);
    let mut clean = 0usize;
    let mut flagged = 0usize;
    for (cell, out) in cells.iter().zip(&results) {
        let found: Vec<LintId> = out.report.lints();
        for lint in &cell.expected {
            assert!(
                found.contains(lint),
                "{}: expected lint {} missing; found {:?}\nfindings: {:#?}",
                cell.key,
                lint.label(),
                found.iter().map(|l| l.label()).collect::<Vec<_>>(),
                out.report.findings
            );
        }
        for lint in &cell.forbidden {
            assert!(
                !found.contains(lint),
                "{}: forbidden lint {} present\nfindings: {:#?}",
                cell.key,
                lint.label(),
                out.report.findings
            );
        }
        if cell.strict_clean {
            assert!(
                out.report.findings.is_empty(),
                "{}: clean layout produced findings: {:#?}",
                cell.key,
                out.report.findings
            );
            clean += 1;
        }
        if !cell.expected.is_empty() {
            flagged += 1;
        }

        // Dynamic cross-validation.
        let mut lines_in_hot = None;
        let mut probe_desc = "-".to_string();
        if let Some((counters, lines)) = &out.probe {
            let hot = &out.report.hot_lines;
            let stray: Vec<u32> = lines.keys().copied().filter(|l| !hot.contains(l)).collect();
            assert!(
                stray.is_empty(),
                "{}: dynamic conflict aborts on lines {stray:?} outside the advisor's \
                 predicted hot set {hot:?}",
                cell.key
            );
            lines_in_hot = Some(true);
            let conflicts = counters.causes.get(AbortCause::DataConflict)
                + counters.causes.get(AbortCause::LockWordConflict);
            match cell.probe {
                ProbeCheck::None => unreachable!("probe result without a probe check"),
                ProbeCheck::NoAborts => assert_eq!(
                    (counters.aborted, lines.values().sum::<u64>()),
                    (0, 0),
                    "{}: advisor-clean cell aborted {} times dynamically",
                    cell.key,
                    counters.aborted
                ),
                ProbeCheck::ConflictsOnHot => assert!(
                    conflicts > 0,
                    "{}: advisor flagged false sharing but the dynamic run had no conflicts",
                    cell.key
                ),
                ProbeCheck::LockWordOnHot => assert!(
                    counters.causes.get(AbortCause::LockWordConflict) > 0,
                    "{}: advisor flagged lock co-residency but the dynamic run had no \
                     lock-word aborts",
                    cell.key
                ),
                ProbeCheck::CapacityYes => assert!(
                    counters.causes.get(AbortCause::Capacity) > 0,
                    "{}: advisor flagged capacity risk but the dynamic run had no \
                     capacity aborts",
                    cell.key
                ),
                ProbeCheck::CapacityNo => assert_eq!(
                    counters.causes.get(AbortCause::Capacity),
                    0,
                    "{}: advisor saw no capacity risk but the dynamic run hit capacity",
                    cell.key
                ),
            }
            probe_desc = format!(
                "{} ops, {} aborts ({} conflict lines)",
                counters.completed(),
                counters.aborted,
                lines.len()
            );
        }

        table.row(vec![
            cell.key.clone(),
            out.report.findings.len().to_string(),
            if found.is_empty() {
                "-".to_string()
            } else {
                found.iter().map(|l| l.label()).collect::<Vec<_>>().join(",")
            },
            probe_desc,
        ]);
        rows.push(row_json(cell, out, lines_in_hot));
    }

    run.table(&table, None);
    println!(
        "\n{} cells: {flagged} seeded-bad layouts flagged, {clean} clean layouts verified",
        cells.len()
    );

    run.document(Json::obj(vec![
        ("schema_version", Json::Uint(SCHEMA_VERSION)),
        ("binary", Json::Str("elision_lint".to_string())),
        (
            "config",
            Json::obj(vec![
                ("quick", Json::Bool(quick)),
                ("full", Json::Bool(full)),
                ("probe_iters", Json::Uint(PROBE_ITERS as u64)),
                ("probe_seed", Json::Uint(PROBE_SEED)),
            ]),
        ),
        ("rows", Json::Arr(rows)),
    ]));
    println!("\nall elision-lint assertions passed");
}
