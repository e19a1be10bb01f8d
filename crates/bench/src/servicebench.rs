//! Shared driver for the open-loop service benchmark (`service_bench`).
//!
//! Defines the scheme × shard-count × load-scenario cell grid, runs each
//! cell through [`elision_service::run_service`] (averaging histograms
//! across seeds with exact merges), and renders the rows of the
//! deterministic `SERVICE.json` artifact: tail percentiles
//! (p50/p90/p99/p999), CDF rows, per-phase and per-shard telemetry.
//! Lock-word-conflict counts ride along in every row so a lemming storm
//! is visible as a correlated conflict + p999 spike in one artifact.

use crate::metrics::{cause_histogram_json, Json};
use elision_core::{LatencyHistogram, LockKind, SchemeKind};
use elision_service::{run_service, ServiceMix, ServiceResult, ServiceSpec};
use elision_sim::{AbortCause, ArrivalPhase};

/// Maximum CDF rows emitted per cell (the histogram can hold thousands
/// of non-empty buckets; the artifact keeps a bounded, deterministic
/// downsample that always includes the final row).
pub const MAX_CDF_ROWS: usize = 48;

/// The load scenarios the service sweep drives each scheme through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadScenario {
    /// One steady Poisson phase.
    Steady,
    /// A lull then a 5x-rate burst, with the same total expected
    /// arrivals as [`LoadScenario::Steady`] (coordinated-omission
    /// probe: only the tail should move, not the mean load).
    Burst,
    /// A steady phase then a storm: high arrival rate on a strongly
    /// skewed key set — the open-loop lemming-effect scenario.
    Storm,
    /// A diurnal-style ramp climbing toward peak rate.
    Ramp,
    /// Steady load with a hot-shard migration halfway through (the
    /// routing salt flips, moving the Zipf head to another shard).
    Migrate,
}

impl LoadScenario {
    /// All scenarios, in sweep order.
    pub const ALL: [LoadScenario; 5] = [
        LoadScenario::Steady,
        LoadScenario::Burst,
        LoadScenario::Storm,
        LoadScenario::Ramp,
        LoadScenario::Migrate,
    ];

    /// Canonical label used in tables, CSV and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            LoadScenario::Steady => "steady",
            LoadScenario::Burst => "burst",
            LoadScenario::Storm => "storm",
            LoadScenario::Ramp => "ramp",
            LoadScenario::Migrate => "migrate",
        }
    }

    /// The arrival phases of this scenario at base duration `d`.
    fn phases(&self, d: u64) -> Vec<ArrivalPhase> {
        match self {
            LoadScenario::Steady => vec![ArrivalPhase::steady("steady", 2 * d, 80.0)],
            // 2d/80 == d/240 + d/48: same expected arrivals as Steady.
            LoadScenario::Burst => {
                vec![ArrivalPhase::steady("lull", d, 240.0), ArrivalPhase::steady("burst", d, 48.0)]
            }
            LoadScenario::Storm => vec![
                ArrivalPhase::steady("steady", d, 90.0),
                ArrivalPhase::steady("storm", d, 12.0),
            ],
            LoadScenario::Ramp => vec![ArrivalPhase::ramp("ramp", 2 * d, 400.0, 30.0)],
            LoadScenario::Migrate => {
                vec![ArrivalPhase::steady("pre", d, 80.0), ArrivalPhase::steady("post", d, 80.0)]
            }
        }
    }

    /// Zipf skew: the storm concentrates traffic much harder.
    fn zipf_theta(&self) -> f64 {
        match self {
            LoadScenario::Storm => 1.25,
            LoadScenario::Migrate => 1.2,
            _ => 0.99,
        }
    }
}

/// Parameters of one service-bench cell.
#[derive(Debug, Clone)]
pub struct ServiceCell {
    /// Elision scheme of every shard.
    pub scheme: SchemeKind,
    /// Main-lock family.
    pub lock: LockKind,
    /// Shard count.
    pub shards: usize,
    /// Load scenario.
    pub load: LoadScenario,
}

impl ServiceCell {
    /// Canonical row key, e.g. `HLE/TTAS/4/storm`.
    pub fn key(&self) -> String {
        format!(
            "{}/{}/{}/{}",
            self.scheme.label(),
            self.lock.label(),
            self.shards,
            self.load.label()
        )
    }

    /// Simulated worker threads this cell spawns.
    pub fn workers(&self) -> usize {
        self.shards * WORKERS_PER_SHARD
    }
}

/// Worker threads per shard in every cell.
pub const WORKERS_PER_SHARD: usize = 2;

/// The scheme × shard-count × load grid.
pub fn service_grid(quick: bool, full: bool) -> Vec<ServiceCell> {
    let schemes: &[SchemeKind] = if quick {
        &[SchemeKind::Hle, SchemeKind::HleScm]
    } else if full {
        &[SchemeKind::Hle, SchemeKind::HleScm, SchemeKind::OptSlr, SchemeKind::SlrScm]
    } else {
        &[SchemeKind::Hle, SchemeKind::HleScm, SchemeKind::OptSlr]
    };
    let shard_counts: &[usize] = if quick {
        &[2, 4]
    } else if full {
        &[2, 4, 8, 16]
    } else {
        &[2, 4, 8]
    };
    let mut cells = Vec::new();
    for &scheme in schemes {
        for &shards in shard_counts {
            for load in LoadScenario::ALL {
                cells.push(ServiceCell { scheme, lock: LockKind::Ttas, shards, load });
            }
        }
    }
    cells
}

/// Build the full [`ServiceSpec`] for a cell (at window 0, so the run is
/// a pure function of the seed).
pub fn service_spec(cell: &ServiceCell, quick: bool, seed: u64) -> ServiceSpec {
    let d = if quick { 40_000 } else { 120_000 };
    let mut spec = ServiceSpec::quick(cell.scheme, cell.lock);
    spec.shards = cell.shards;
    spec.workers_per_shard = WORKERS_PER_SHARD;
    spec.keys_per_shard = if quick { 48 } else { 128 };
    spec.zipf_theta = cell.load.zipf_theta();
    spec.mix = ServiceMix::MIXED;
    spec.phases = cell.load.phases(d);
    spec.migrate_at = (cell.load == LoadScenario::Migrate).then_some(d);
    spec.seed = seed;
    spec
}

/// Run a cell over several seeds, merging results exactly (histograms
/// and counters sum; throughput is recomputed over the summed makespan).
pub fn run_service_avg(cell: &ServiceCell, quick: bool, seeds: u64) -> ServiceResult {
    let mut merged: Option<ServiceResult> = None;
    for k in 0..seeds.max(1) {
        let spec = service_spec(cell, quick, 42u64.wrapping_add(k * 7919));
        let r = run_service(&spec);
        match &mut merged {
            Some(acc) => acc.merge(&r),
            None => merged = Some(r),
        }
    }
    merged.expect("at least one seed")
}

/// The percentile block of a latency histogram: p50/p90/p99/p999 plus
/// the exact min/max, all in simulated cycles.
pub fn percentile_json(h: &LatencyHistogram) -> Json {
    Json::obj(vec![
        ("p50", Json::Uint(h.percentile(50).unwrap_or(0))),
        ("p90", Json::Uint(h.percentile(90).unwrap_or(0))),
        ("p99", Json::Uint(h.percentile(99).unwrap_or(0))),
        ("p999", Json::Uint(h.quantile(0.999).unwrap_or(0))),
        ("min", Json::Uint(h.min().unwrap_or(0))),
        ("max", Json::Uint(h.max())),
    ])
}

/// The CDF of a latency histogram as at most [`MAX_CDF_ROWS`] rows of
/// `{le, count, cum_frac}`, always ending at the final bucket so the
/// last row's `cum_frac` is 1.0.
pub fn cdf_json(h: &LatencyHistogram) -> Json {
    let rows = h.cdf();
    let total = h.count().max(1) as f64;
    let stride = rows.len().div_ceil(MAX_CDF_ROWS).max(1);
    let mut out = Vec::new();
    for (i, &(le, count, cum)) in rows.iter().enumerate() {
        if i % stride == 0 || i + 1 == rows.len() {
            out.push(Json::obj(vec![
                ("le", Json::Uint(le)),
                ("count", Json::Uint(count)),
                ("cum_frac", Json::Float(cum as f64 / total)),
            ]));
        }
    }
    Json::Arr(out)
}

/// Render one cell's full `SERVICE.json` row.
pub fn service_row(cell: &ServiceCell, r: &ServiceResult) -> Json {
    let lockword = r.counters.causes.get(AbortCause::LockWordConflict);
    let phases = r
        .phases
        .iter()
        .map(|p| {
            Json::obj(vec![
                ("label", Json::Str(p.label.to_string())),
                ("requests", Json::Uint(p.requests)),
                ("latency", percentile_json(&p.latency)),
            ])
        })
        .collect();
    let shards = r
        .shards
        .iter()
        .enumerate()
        .map(|(i, s)| {
            Json::obj(vec![
                ("shard", Json::Uint(i as u64)),
                ("requests", Json::Uint(s.requests)),
                ("aborted", Json::Uint(s.counters.aborted)),
                (
                    "lock_word_aborts",
                    Json::Uint(s.counters.causes.get(AbortCause::LockWordConflict)),
                ),
                ("latency", percentile_json(&s.latency)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("scheme", Json::Str(cell.scheme.label().to_string())),
        ("lock", Json::Str(cell.lock.label().to_string())),
        ("shards", Json::Uint(cell.shards as u64)),
        ("load", Json::Str(cell.load.label().to_string())),
        ("requests", Json::Uint(r.requests)),
        ("throughput", Json::Float(r.throughput)),
        ("latency", percentile_json(&r.latency)),
        ("mean_attempts", Json::Float(r.watchdog.mean_attempts())),
        ("aborted", Json::Uint(r.counters.aborted)),
        ("lock_word_aborts", Json::Uint(lockword)),
        ("abort_causes", cause_histogram_json(&r.counters.causes)),
        ("phases", Json::Arr(phases)),
        ("shards_detail", Json::Arr(shards)),
        ("cdf", cdf_json(&r.latency)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_nonempty_and_keys_are_unique() {
        for (quick, full) in [(true, false), (false, false), (false, true)] {
            let grid = service_grid(quick, full);
            assert!(!grid.is_empty());
            let mut keys: Vec<String> = grid.iter().map(ServiceCell::key).collect();
            let n = keys.len();
            keys.sort();
            keys.dedup();
            assert_eq!(keys.len(), n, "duplicate cell keys");
            assert!(grid.iter().all(|c| c.workers() <= 64), "cells exceed simulator threads");
        }
    }

    #[test]
    fn burst_scenario_matches_steady_mean_load() {
        let steady: f64 =
            LoadScenario::Steady.phases(40_000).iter().map(|p| p.expected_arrivals()).sum();
        let burst: f64 =
            LoadScenario::Burst.phases(40_000).iter().map(|p| p.expected_arrivals()).sum();
        assert!((steady - burst).abs() < 1e-9, "steady {steady} vs burst {burst}");
    }

    #[test]
    fn row_contains_percentiles_and_cdf() {
        let cell = ServiceCell {
            scheme: SchemeKind::Hle,
            lock: LockKind::Ttas,
            shards: 2,
            load: LoadScenario::Steady,
        };
        let r = run_service(&service_spec(&cell, true, 42));
        let row = service_row(&cell, &r);
        for key in ["p50", "p90", "p99", "p999"] {
            assert!(row.get("latency").and_then(|l| l.get(key)).is_some(), "missing {key}");
        }
        let cdf = row.get("cdf").and_then(Json::as_arr).expect("cdf rows");
        assert!(!cdf.is_empty() && cdf.len() <= MAX_CDF_ROWS);
        // The last CDF row covers the whole distribution.
        let last = cdf.last().unwrap();
        let frac = match last.get("cum_frac") {
            Some(Json::Float(f)) => *f,
            other => panic!("cum_frac missing: {other:?}"),
        };
        assert!((frac - 1.0).abs() < 1e-12);
        assert_eq!(row.get("requests").and_then(Json::as_u64), Some(r.requests));
    }

    #[test]
    fn seed_merge_accumulates_requests() {
        let cell = ServiceCell {
            scheme: SchemeKind::Hle,
            lock: LockKind::Ttas,
            shards: 2,
            load: LoadScenario::Steady,
        };
        let one = run_service_avg(&cell, true, 1);
        let three = run_service_avg(&cell, true, 3);
        assert!(three.requests > one.requests, "three seeds must see more requests");
        assert_eq!(three.latency.count(), three.requests);
    }
}
