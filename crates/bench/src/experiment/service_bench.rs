//! Open-loop sharded service benchmark: tail latency under arriving
//! traffic.
//!
//! Sweeps scheme × shard-count × load-scenario cells of the
//! [`elision_service`] engine: Poisson arrivals with Zipf key skew over
//! a sharded key-value/queue service, each request's latency measured
//! from its *scheduled arrival* (queueing delay included — no
//! coordinated omission). Emits a deterministic `SERVICE.json` with
//! p50/p90/p99/p999 tail percentiles, CDF rows, and per-shard/per-phase
//! telemetry; byte-identical at any `--jobs`.
//!
//! The experiment asserts the open-loop lemming-effect story end to end: the
//! plain-HLE storm cell must show *both* a lock-word-conflict spike and
//! a p999 blowup relative to its steady cell, and the burst cell (same
//! mean load as steady) must raise the tail — the signature a
//! closed-loop harness cannot see.

use super::Run;
use crate::report::{f2, Table};
use crate::servicebench::{run_service_avg, service_grid, service_row, LoadScenario, ServiceCell};
use crate::sweep::Cell;
use elision_core::SchemeKind;
use elision_service::ServiceResult;
use elision_sim::AbortCause;

pub(super) fn run(run: &mut Run) {
    let args = &run.args;
    let grid = service_grid(args.quick, args.full);

    println!("== Open-loop sharded service: tail latency under arriving traffic ==");
    println!("{} cells (scheme x shards x load), {} seed(s), window 0\n", grid.len(), args.seeds);

    let cells: Vec<Cell<'_, (ServiceCell, ServiceResult)>> = grid
        .iter()
        .map(|cell| {
            let cell = cell.clone();
            Cell::new(cell.key(), cell.workers(), move || {
                let r = run_service_avg(&cell, args.quick, args.seeds);
                (cell, r)
            })
        })
        .collect();
    let results = run.sweep(cells);

    let mut table = Table::new(&[
        "scheme",
        "lock",
        "shards",
        "load",
        "requests",
        "tput/kcyc",
        "p50",
        "p99",
        "p999",
        "lockword-aborts",
    ]);
    for (cell, r) in &results {
        table.row(vec![
            cell.scheme.label().to_string(),
            cell.lock.label().to_string(),
            cell.shards.to_string(),
            cell.load.label().to_string(),
            r.requests.to_string(),
            f2(r.throughput),
            r.latency.percentile(50).unwrap_or(0).to_string(),
            r.latency.percentile(99).unwrap_or(0).to_string(),
            r.latency.quantile(0.999).unwrap_or(0).to_string(),
            r.counters.causes.get(AbortCause::LockWordConflict).to_string(),
        ]);
        run.report.push_row(service_row(cell, r));
    }
    run.table(&table, Some("service_bench"));

    assert_storm_correlation(&results);
    println!(
        "\nOpen-loop shape check: the plain-HLE storm cell spikes lock-word \
         conflicts and p999 together; the burst cell moves only the tail \
         (same mean load as steady)."
    );
}

/// The acceptance assertions: lemming storms must be visible as
/// correlated lock-word-conflict and p999 spikes, and a burst at equal
/// mean load must raise the tail.
fn assert_storm_correlation(results: &[(ServiceCell, ServiceResult)]) {
    let find = |shards: usize, load: LoadScenario| {
        results
            .iter()
            .find(|(c, _)| c.scheme == SchemeKind::Hle && c.shards == shards && c.load == load)
    };
    let shard_counts: Vec<usize> = {
        let mut v: Vec<usize> = results
            .iter()
            .filter(|(c, _)| c.scheme == SchemeKind::Hle)
            .map(|(c, _)| c.shards)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    for shards in shard_counts {
        let Some((_, steady)) = find(shards, LoadScenario::Steady) else { continue };
        let Some((_, storm)) = find(shards, LoadScenario::Storm) else { continue };
        let steady_lw = steady.counters.causes.get(AbortCause::LockWordConflict);
        let storm_lw = storm.counters.causes.get(AbortCause::LockWordConflict);
        let steady_p999 = steady.latency.quantile(0.999).unwrap_or(0);
        let storm_p999 = storm.latency.quantile(0.999).unwrap_or(0);
        assert!(
            storm_lw > steady_lw,
            "HLE/{shards}: storm lock-word conflicts ({storm_lw}) must exceed steady ({steady_lw})"
        );
        assert!(
            storm_p999 > steady_p999,
            "HLE/{shards}: storm p999 ({storm_p999}) must exceed steady ({steady_p999})"
        );
        if let Some((_, burst)) = find(shards, LoadScenario::Burst) {
            let burst_p999 = burst.latency.quantile(0.999).unwrap_or(0);
            assert!(
                burst_p999 > steady_p999,
                "HLE/{shards}: burst p999 ({burst_p999}) must exceed steady ({steady_p999}) \
                 at equal mean load"
            );
        }
    }
    // Print the correlation evidence for the storm rows.
    for (cell, r) in results {
        if cell.load == LoadScenario::Storm && cell.scheme == SchemeKind::Hle {
            let lw = r.counters.causes.get(AbortCause::LockWordConflict);
            let p999 = r.latency.quantile(0.999).unwrap_or(0);
            println!("storm {}: lock-word aborts {lw}, p999 {p999} cycles", cell.key());
        }
    }
}
