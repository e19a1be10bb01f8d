//! The chaos harness: sweep injected-fault intensity across schemes and
//! locks, assert liveness and determinism, and print degradation curves.
//!
//! For every chaos profile the harness runs the red-black-tree benchmark
//! at increasing fault intensity and checks three robustness properties
//! that the figure experiments take for granted:
//!
//! 1. **Liveness**: every operation completes, and no single operation
//!    needs an unbounded number of attempts (starvation watchdog).
//! 2. **Determinism**: with `window == 0`, rerunning the same seed yields
//!    the identical makespan, counters and injected-fault statistics.
//! 3. **Hardening pays off**: under a sustained abort storm, the
//!    circuit-breaker-enabled configuration out-performs the paper
//!    configuration on a fair lock (the regime where naive elision
//!    collapses into the lemming effect).
//!
//! The degradation curves (throughput and p99 completion cycles vs
//! intensity) are printed as tables and optionally written as CSV.

use super::{tree_spec, Run};
use crate::metrics::Json;
use crate::report::{f2, Table};
use crate::sweep::Cell;
use crate::{chaos::MAX_INTENSITY, run_tree_bench, ChaosProfile, TreeBenchResult, TreeBenchSpec};
use elision_core::{BreakerConfig, LockKind, SchemeConfig, SchemeKind};
use elision_htm::HtmConfig;
use elision_structures::OpMix;

/// Watchdog bound asserted per operation: the speculative budget (10)
/// plus SCM serialization plus breaker re-probes leaves attempts far
/// below this for any live scheme; only a livelock would exceed it.
const MAX_ATTEMPTS_PER_OP: u32 = 200;

fn spec_for(
    scheme: SchemeKind,
    lock: LockKind,
    profile: ChaosProfile,
    level: u32,
    threads: usize,
    ops: u64,
) -> TreeBenchSpec {
    let (plan, htm_faults) = profile.at_intensity(level, 0xC4A0_5EED);
    // Tree runs use scheduler window 0, which makes the run (including
    // the fault schedule) a pure function of the seeds, which the
    // determinism check relies on.
    let mut spec = tree_spec(scheme, lock, threads, 64, OpMix::MODERATE, ops);
    spec.htm = HtmConfig::deterministic().with_faults(htm_faults);
    spec.scheme_cfg = SchemeConfig::hardened();
    spec.faults = plan;
    spec
}

/// Liveness + determinism for one cell; returns the (first) result.
fn run_checked(spec: &TreeBenchSpec, what: &str) -> TreeBenchResult {
    let r = run_tree_bench(spec);
    let total_ops = spec.ops_per_thread * spec.threads as u64;
    assert_eq!(
        r.counters.completed(),
        total_ops,
        "{what}: only {} of {total_ops} operations completed",
        r.counters.completed()
    );
    assert!(
        r.watchdog.max_attempts() <= MAX_ATTEMPTS_PER_OP,
        "{what}: an operation needed {} attempts (budget {MAX_ATTEMPTS_PER_OP})",
        r.watchdog.max_attempts()
    );
    // Conflict-engine leak check: after quiescence every reader/writer
    // bitmap bit must be cleared, even on abort paths the chaos faults
    // forced — a leftover bit would doom unrelated future transactions.
    assert!(
        r.residual_lines.is_empty(),
        "{what}: conflict bits leaked on lines {:?} after quiescence",
        r.residual_lines
    );
    r
}

/// Identical seeds must reproduce the identical run at window == 0.
fn assert_deterministic(spec: &TreeBenchSpec, what: &str) {
    let a = run_tree_bench(spec);
    let b = run_tree_bench(spec);
    assert_eq!(a.makespan, b.makespan, "{what}: makespan diverged between identical runs");
    assert_eq!(a.counters, b.counters, "{what}: S/A/N counters diverged");
    assert_eq!(a.fault_stats, b.fault_stats, "{what}: injected-fault schedule diverged");
    assert_eq!(
        a.watchdog.max_attempts(),
        b.watchdog.max_attempts(),
        "{what}: attempt statistics diverged"
    );
}

/// The breaker must beat the paper config under a sustained storm on a
/// fair lock (MCS): without shedding, every abort re-enqueues behind the
/// fallback holder and the whole run degenerates to lemming handoffs
/// *plus* ten wasted speculative attempts per operation. Returns
/// (breaker-on throughput, breaker-off throughput, trips) for reporting.
fn assert_breaker_pays_off(threads: usize, ops: u64) -> (f64, f64, u64) {
    let base = {
        let mut s =
            spec_for(SchemeKind::HleRetries, LockKind::Mcs, ChaosProfile::None, 0, threads, ops);
        // A permanent, near-total abort storm.
        s.htm = s.htm.with_faults(elision_htm::HtmFaults::none().with_storm(10, 10, 950));
        s
    };
    let mut on = base;
    on.scheme_cfg =
        SchemeConfig { breaker: Some(BreakerConfig::default_policy()), ..SchemeConfig::paper() };
    let mut off = base;
    off.scheme_cfg = SchemeConfig::paper();

    let r_on = run_checked(&on, "breaker-on under storm");
    let r_off = run_checked(&off, "breaker-off under storm");
    assert!(r_on.breaker_trips > 0, "breaker never tripped under a 95% abort storm");
    assert!(
        r_on.throughput > r_off.throughput,
        "breaker-on must beat breaker-off under a sustained storm \
         ({:.3} vs {:.3} ops/kcycle)",
        r_on.throughput,
        r_off.throughput
    );
    (r_on.throughput, r_off.throughput, r_on.breaker_trips)
}

pub(super) fn run(run: &mut Run) {
    let args = &run.args;
    let ops: u64 = if args.quick { 120 } else { 400 };
    let threads = args.threads.min(if args.quick { 4 } else { 8 });
    let profiles: Vec<ChaosProfile> = if args.quick {
        vec![ChaosProfile::Storm, ChaosProfile::Preempt, ChaosProfile::Full]
    } else {
        ChaosProfile::ALL.iter().copied().filter(|p| *p != ChaosProfile::None).collect()
    };
    let levels: Vec<u32> = if args.quick { vec![0, 2] } else { (0..=MAX_INTENSITY).collect() };
    let schemes = if args.quick {
        vec![SchemeKind::HleRetries, SchemeKind::HleScm]
    } else {
        vec![SchemeKind::HleRetries, SchemeKind::HleScm, SchemeKind::OptSlr, SchemeKind::SlrScm]
    };

    println!("== Chaos stress: degradation under injected faults ==");
    println!(
        "{threads} threads, {ops} ops/thread, hardened scheme config \
         (backoff + capacity fast-path + breaker), window=0\n"
    );

    // The full grid (every profile x level x scheme x lock) runs through
    // the shared sweep orchestrator; liveness assertions fire inside the
    // cells, all reporting happens afterwards in canonical order.
    let mut cells = Vec::new();
    for profile in &profiles {
        for &level in &levels {
            for &scheme in &schemes {
                for lock in [LockKind::Ttas, LockKind::Mcs] {
                    cells.push(Cell::new(
                        format!("{profile}@{level}/{}/{}", scheme.label(), lock.label()),
                        threads,
                        move || {
                            let spec = spec_for(scheme, lock, *profile, level, threads, ops);
                            let what = format!("{profile}@{level} {scheme}/{lock}");
                            run_checked(&spec, &what)
                        },
                    ));
                }
            }
        }
    }
    let results = run.sweep(cells);
    let mut next = results.iter();
    for profile in &profiles {
        let mut table = Table::new(&[
            "level",
            "scheme",
            "lock",
            "ops/kcycle",
            "attempts/op",
            "p99-cycles",
            "preempts",
            "trips",
        ]);
        for &level in &levels {
            for &scheme in &schemes {
                for lock in [LockKind::Ttas, LockKind::Mcs] {
                    let r = next.next().expect("one result per grid cell");
                    table.row(vec![
                        level.to_string(),
                        scheme.label().to_string(),
                        lock.label().to_string(),
                        f2(r.throughput),
                        f2(r.watchdog.mean_attempts()),
                        r.watchdog.percentile(99).unwrap_or(0).to_string(),
                        r.fault_stats.preemptions.to_string(),
                        r.breaker_trips.to_string(),
                    ]);
                    run.report.push_result(
                        vec![
                            ("profile", Json::Str(profile.label().to_string())),
                            ("level", Json::Uint(u64::from(level))),
                            ("scheme", Json::Str(scheme.label().to_string())),
                            ("lock", Json::Str(lock.label().to_string())),
                            ("p99_cycles", Json::Uint(r.watchdog.percentile(99).unwrap_or(0))),
                            ("preemptions", Json::Uint(r.fault_stats.preemptions)),
                            ("breaker_trips", Json::Uint(r.breaker_trips)),
                        ],
                        r,
                    );
                }
            }
        }
        println!("--- profile: {profile} ---");
        run.table(&table, Some(&format!("chaos_{profile}")));
        println!();
    }
    // Determinism (the nastiest profile, both lock families) and the
    // breaker payoff check also run as sweep cells.
    let mut check_cells: Vec<_> = [LockKind::Ttas, LockKind::Mcs]
        .into_iter()
        .map(|lock| {
            Cell::new(format!("determinism/{}", lock.label()), threads, move || {
                let spec = spec_for(
                    SchemeKind::HleScm,
                    lock,
                    ChaosProfile::Full,
                    2,
                    threads,
                    ops.min(150),
                );
                assert_deterministic(&spec, &format!("full@2 HLE-SCM/{lock}"));
                None
            })
        })
        .collect();
    check_cells.push(Cell::new("breaker-payoff", threads, move || {
        Some(assert_breaker_pays_off(threads, ops))
    }));
    let checks = run.sweep(check_cells);
    println!("determinism check: identical seeds reproduced identical runs (window=0)");
    let (on, off, trips) = checks[2].expect("breaker cell returns stats");
    println!(
        "breaker check (HLE-retries/MCS, permanent 95% storm): \
         on {on:.3} > off {off:.3} ops/kcycle, {trips} trips"
    );
    println!("\nall chaos assertions passed");
}
