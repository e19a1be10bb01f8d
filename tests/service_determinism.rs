//! Determinism gate for the open-loop service sweep: the rendered
//! `SERVICE.json` must be byte-identical whether the sweep runs its
//! cells sequentially (`--jobs 1`) or on a four-worker host pool
//! (`--jobs 4`). Host parallelism is a scheduling detail; the simulated
//! runs inside each cell never observe it, and the orchestrator merges
//! results back in canonical cell order.
//!
//! Also pins the coordinated-omission claim at the sweep level: a burst
//! scenario with the same total expected arrivals as steady load must
//! produce a strictly higher p999 (the mean hides what the tail shows).

use elision_bench::metrics::MetricsReport;
use elision_bench::servicebench::{
    run_service_avg, service_grid, service_row, LoadScenario, ServiceCell,
};
use elision_bench::sweep::{Cell, Sweep};
use elision_bench::CliArgs;
use elision_core::{LockKind, SchemeKind};
use elision_service::ServiceResult;
use proptest::prelude::*;

/// Run `cells` through the sweep at host parallelism `jobs` and render
/// the full SERVICE metrics report to its artifact bytes.
fn render_service_report(cells: &[ServiceCell], jobs: usize, seeds: u64) -> String {
    let sweep_cells: Vec<Cell<'_, (ServiceCell, ServiceResult)>> = cells
        .iter()
        .map(|cell| {
            let cell = cell.clone();
            Cell::new(cell.key(), cell.workers(), move || {
                let r = run_service_avg(&cell, true, seeds);
                (cell, r)
            })
        })
        .collect();
    let outcome = Sweep::new(jobs).run(sweep_cells);
    let mut report = MetricsReport::new("SERVICE", &CliArgs::default());
    for (cell, r) in &outcome.results {
        report.push_row(service_row(cell, r));
    }
    report.to_json().render()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any slice of the quick grid renders the same artifact bytes at
    /// `--jobs 1` and `--jobs 4`. Runs at window 0, the repo-wide
    /// determinism convention: a larger lag window deliberately trades
    /// byte-reproducibility for host speed (see `ServiceSpec::window`),
    /// so every artifact gate — this one included — pins window 0.
    #[test]
    fn service_report_is_byte_identical_across_jobs(
        start in 0usize..18,
        seeds in 1u64..3,
    ) {
        let grid = service_grid(true, false);
        let cells = &grid[start..(start + 3).min(grid.len())];
        let sequential = render_service_report(cells, 1, seeds);
        let pooled = render_service_report(cells, 4, seeds);
        prop_assert_eq!(sequential, pooled, "SERVICE.json differs between --jobs 1 and --jobs 4");
    }
}

/// The seeded burst cell (lull + 5x burst, same expected arrivals as
/// steady) must show a strictly higher p999 than the steady cell: an
/// open-loop harness charges queueing delay to every request, so equal
/// mean load with bursty arrivals moves the tail.
#[test]
fn burst_p999_strictly_exceeds_steady_at_equal_mean_load() {
    for shards in [2usize, 4] {
        let steady_cell = ServiceCell {
            scheme: SchemeKind::Hle,
            lock: LockKind::Ttas,
            shards,
            load: LoadScenario::Steady,
        };
        let burst_cell = ServiceCell { load: LoadScenario::Burst, ..steady_cell.clone() };
        let steady = run_service_avg(&steady_cell, true, 1);
        let burst = run_service_avg(&burst_cell, true, 1);
        let steady_p999 = steady.latency.quantile(0.999).unwrap_or(0);
        let burst_p999 = burst.latency.quantile(0.999).unwrap_or(0);
        assert!(
            burst_p999 > steady_p999,
            "{shards} shards: burst p999 ({burst_p999}) must strictly exceed \
             steady p999 ({steady_p999}) at equal mean load"
        );
    }
}
