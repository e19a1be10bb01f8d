//! Parallel deterministic sweep orchestration for the experiments.
//!
//! Every figure/ablation experiment sweeps a grid of scheme × lock × threads
//! × size × seed cells, and every cell is an *independent* deterministic
//! simulation: with lag window 0 its result is a pure function of its
//! spec. That makes the harness embarrassingly parallel at the cell
//! level, so a [`Sweep`] executes cells on a host thread pool
//! (`--jobs N`) while guaranteeing the rendered tables, CSVs and metrics
//! JSON stay **byte-identical** to the sequential run:
//!
//! 1. cells are submitted in canonical (sequential) order and results are
//!    merged back by submission index, so every downstream consumer sees
//!    the exact sequence the old nested loops produced;
//! 2. cells never share mutable state — each spawns its own simulated
//!    threads via `elision_sim` and returns a value;
//! 3. all printing/reporting happens *after* the sweep, sequentially.
//!
//! A cell never oversubscribes the host: however many simulated threads
//! it spawns, only the one holding the scheduler's baton runs, so a cell
//! occupies at most one host CPU and `--jobs N` bounds the sweep at `N`.
//!
//! Host wall-clock per cell and per sweep is recorded in a [`TimingLog`]
//! and written as `TIMING_<experiment>.json` next to the metrics reports.
//! Wall time is inherently nondeterministic, so it lives in a separate
//! file that the artifact-determinism gates exclude; `repro summary`
//! folds the timing files into `BENCH_SUMMARY.json` as the perf
//! trajectory evidence.

use crate::metrics::{Json, SCHEMA_VERSION};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One unit of sweep work: a closure producing the cell's result, plus a
/// canonical row key and the number of simulated threads the cell will
/// spawn (both used for timing attribution).
pub struct Cell<'a, T> {
    key: String,
    sim_threads: usize,
    run: Box<dyn FnOnce() -> T + Send + 'a>,
}

impl<'a, T> Cell<'a, T> {
    /// Create a cell. `sim_threads` is the number of simulated threads
    /// the closure will have in flight, recorded in the timing report; a
    /// cell that runs several benchmarks back-to-back should declare the
    /// maximum it uses at once.
    pub fn new(
        key: impl Into<String>,
        sim_threads: usize,
        run: impl FnOnce() -> T + Send + 'a,
    ) -> Self {
        Cell { key: key.into(), sim_threads: sim_threads.max(1), run: Box::new(run) }
    }
}

/// Host wall-clock attribution for one executed cell.
#[derive(Debug, Clone)]
pub struct CellTiming {
    /// The cell's canonical row key.
    pub key: String,
    /// Simulated threads the cell declared.
    pub sim_threads: usize,
    /// Host wall-clock milliseconds the cell's closure took.
    pub wall_ms: u64,
}

/// The merged outcome of one sweep: results and timings in canonical
/// (submission) order, plus the sweep's own wall clock.
#[derive(Debug)]
pub struct SweepOutcome<T> {
    /// Per-cell results, index-aligned with the submitted cells.
    pub results: Vec<T>,
    /// Per-cell wall-clock timings, same order.
    pub timings: Vec<CellTiming>,
    /// Wall-clock milliseconds for the whole sweep (including pool
    /// scheduling overhead).
    pub wall_ms: u64,
}

/// The sweep executor: a fixed-size host thread pool.
#[derive(Debug, Clone, Copy)]
pub struct Sweep {
    jobs: usize,
}

impl Sweep {
    /// An executor running up to `jobs` cells concurrently.
    pub fn new(jobs: usize) -> Self {
        Sweep { jobs: jobs.max(1) }
    }

    /// Host-parallelism level of this executor.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Execute every cell and merge results in canonical order.
    ///
    /// With `jobs == 1` cells run strictly sequentially on the calling
    /// thread, in submission order — the reference behavior the parallel
    /// path must reproduce bit-for-bit.
    ///
    /// # Panics
    ///
    /// Propagates the first panic raised inside a cell (benchmark
    /// assertions fail the whole sweep, as they did sequentially).
    pub fn run<T: Send>(&self, cells: Vec<Cell<'_, T>>) -> SweepOutcome<T> {
        let started = Instant::now();
        let n = cells.len();
        let jobs = self.jobs.min(n.max(1));
        let mut merged: Vec<Option<(T, CellTiming)>> = if jobs <= 1 {
            cells.into_iter().map(|c| Some(Self::execute(c))).collect()
        } else {
            let work: Vec<Mutex<Option<Cell<'_, T>>>> =
                cells.into_iter().map(|c| Mutex::new(Some(c))).collect();
            let out: Vec<Mutex<Option<(T, CellTiming)>>> =
                (0..n).map(|_| Mutex::new(None)).collect();
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..jobs {
                    scope.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let cell = work[i]
                            .lock()
                            .expect("work slot poisoned")
                            .take()
                            .expect("each cell is taken exactly once");
                        let result = Self::execute(cell);
                        *out[i].lock().expect("result slot poisoned") = Some(result);
                    });
                }
            });
            out.into_iter().map(|m| m.into_inner().expect("result slot poisoned")).collect()
        };
        let mut results = Vec::with_capacity(n);
        let mut timings = Vec::with_capacity(n);
        for slot in merged.drain(..) {
            let (r, t) = slot.expect("every cell ran");
            results.push(r);
            timings.push(t);
        }
        SweepOutcome { results, timings, wall_ms: started.elapsed().as_millis() as u64 }
    }

    fn execute<T>(cell: Cell<'_, T>) -> (T, CellTiming) {
        let t0 = Instant::now();
        let result = (cell.run)();
        let wall_ms = t0.elapsed().as_millis() as u64;
        (result, CellTiming { key: cell.key, sim_threads: cell.sim_threads, wall_ms })
    }
}

/// Accumulates wall-clock evidence for one experiment (possibly across
/// several [`Sweep::run`] calls) and writes it as `TIMING_<binary>.json`,
/// `binary` being the experiment's name.
///
/// Timing files are deliberately separate from the deterministic metrics
/// reports: wall time varies run to run, so the determinism gates diff
/// artifact directories with `TIMING_*` excluded.
#[derive(Debug)]
pub struct TimingLog {
    binary: String,
    jobs: usize,
    cells: Vec<CellTiming>,
    wall_ms: u64,
}

impl TimingLog {
    /// Start a log for `binary` run at host parallelism `jobs`.
    pub fn new(binary: &str, jobs: usize) -> Self {
        TimingLog { binary: binary.to_string(), jobs, cells: Vec::new(), wall_ms: 0 }
    }

    /// Fold one sweep's timings into the log.
    pub fn absorb<T>(&mut self, outcome: &SweepOutcome<T>) {
        self.cells.extend(outcome.timings.iter().cloned());
        self.wall_ms += outcome.wall_ms;
    }

    /// The timing report as a JSON value.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::Uint(SCHEMA_VERSION)),
            ("kind", Json::Str("timing".to_string())),
            ("binary", Json::Str(self.binary.clone())),
            ("jobs", Json::Uint(self.jobs as u64)),
            ("wall_ms", Json::Uint(self.wall_ms)),
            (
                "cells",
                Json::Arr(
                    self.cells
                        .iter()
                        .map(|c| {
                            Json::obj(vec![
                                ("key", Json::Str(c.key.clone())),
                                ("sim_threads", Json::Uint(c.sim_threads as u64)),
                                ("wall_ms", Json::Uint(c.wall_ms)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Write `dir/TIMING_<binary>.json` (creating `dir`), and echo the
    /// experiment's wall clock to stderr.
    ///
    /// # Panics
    ///
    /// Panics on I/O errors (experiments fail loudly).
    pub fn write(&self, dir: &Path) {
        std::fs::create_dir_all(dir).expect("creating metrics directory");
        let path = dir.join(format!("TIMING_{}.json", self.binary));
        std::fs::write(&path, self.to_json().render()).expect("writing timing JSON");
        eprintln!(
            "wrote {} ({} cells, {} ms wall at --jobs {})",
            path.display(),
            self.cells.len(),
            self.wall_ms,
            self.jobs
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::CliArgs;
    use crate::metrics::MetricsReport;
    use proptest::prelude::*;
    use std::time::Duration;

    /// Cells completing in shuffled order must merge back canonically.
    fn shuffled_cells<'a>(n: usize) -> Vec<Cell<'a, usize>> {
        (0..n)
            .map(|i| {
                Cell::new(format!("cell{i}"), 1 + i % 4, move || {
                    // Later-submitted cells finish earlier: maximal shuffle.
                    std::thread::sleep(Duration::from_millis(((n - i) % 7) as u64));
                    i * i
                })
            })
            .collect()
    }

    #[test]
    fn results_merge_in_canonical_order() {
        let expected: Vec<usize> = (0..16).map(|i| i * i).collect();
        for jobs in [1, 2, 4, 16] {
            let out = Sweep::new(jobs).run(shuffled_cells(16));
            assert_eq!(out.results, expected, "jobs={jobs}");
            let keys: Vec<&str> = out.timings.iter().map(|t| t.key.as_str()).collect();
            assert_eq!(keys[0], "cell0");
            assert_eq!(keys[15], "cell15");
        }
    }

    #[test]
    fn empty_sweep_is_fine() {
        let out = Sweep::new(4).run(Vec::<Cell<'_, u8>>::new());
        assert!(out.results.is_empty());
        assert!(out.timings.is_empty());
    }

    #[test]
    fn oversized_cell_is_clamped_not_deadlocked() {
        let out =
            Sweep::new(2).run(vec![Cell::new("huge", 64, || 1u32), Cell::new("small", 1, || 2u32)]);
        assert_eq!(out.results, vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "scoped thread panicked")]
    fn cell_panic_propagates() {
        let cells: Vec<Cell<'_, ()>> = vec![
            Cell::new("ok", 1, || ()),
            Cell::new("bad", 1, || panic!("cell exploded")),
            Cell::new("ok2", 1, || ()),
        ];
        Sweep::new(3).run(cells);
    }

    #[test]
    fn panicking_wide_cell_does_not_hang_the_sweep() {
        // Six 16-thread cells on two workers; the first panics. Its peers
        // must still run, and the sweep must report the panic.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let cells: Vec<Cell<'_, u64>> = (0..6)
                .map(|i| {
                    Cell::new(format!("wide{i}"), 16, move || {
                        assert!(i != 0, "cell {i} exploded");
                        elision_sim::SimBuilder::new(16).window(0).run(|ctx| {
                            for _ in 0..50 {
                                ctx.handle.advance(1);
                            }
                        });
                        i
                    })
                })
                .collect();
            let run =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| Sweep::new(2).run(cells)));
            let _ = tx.send(run.is_err());
        });
        match rx.recv_timeout(Duration::from_secs(60)) {
            Ok(panicked) => assert!(panicked, "the sweep must report the cell's panic"),
            Err(_) => panic!("the sweep hung after a cell panicked"),
        }
    }

    #[test]
    fn timing_log_accumulates_and_renders() {
        let out = Sweep::new(2).run(shuffled_cells(4));
        let mut log = TimingLog::new("unit_test", 2);
        log.absorb(&out);
        let doc = log.to_json();
        assert_eq!(doc.get("kind").and_then(Json::as_str), Some("timing"));
        assert_eq!(doc.get("jobs").and_then(Json::as_u64), Some(2));
        assert_eq!(doc.get("cells").and_then(Json::as_arr).map(<[Json]>::len), Some(4));
        // A timing document is valid JSON under our own parser.
        let parsed = crate::metrics::parse(&doc.render()).expect("timing JSON parses");
        assert_eq!(parsed.get("binary").and_then(Json::as_str), Some("unit_test"));
    }

    proptest! {
        /// The orchestrator property the determinism gate relies on: for
        /// ANY cell grid and ANY completion shuffle, a parallel sweep
        /// produces byte-identical report/CSV/JSON to `--jobs 1`.
        #[test]
        fn parallel_sweep_is_byte_identical_to_sequential(
            n in 1usize..24,
            jobs in 2usize..6,
            delays in proptest::collection::vec(0u64..4, 24..25),
            weights in proptest::collection::vec(1usize..9, 24..25),
        ) {
            let make_cells = || -> Vec<Cell<'_, (u64, f64)>> {
                (0..n)
                    .map(|i| {
                        let delay = delays[i];
                        Cell::new(format!("row{i}"), weights[i], move || {
                            std::thread::sleep(Duration::from_millis(delay));
                            // A deterministic pseudo-measurement.
                            let x = (i as u64).wrapping_mul(0x9E37_79B9).rotate_left(13);
                            (x, x as f64 / 7.0)
                        })
                    })
                    .collect()
            };
            let render = |out: &SweepOutcome<(u64, f64)>| {
                let args = CliArgs::default();
                let mut rep = MetricsReport::new("prop", &args);
                let mut table = crate::report::Table::new(&["row", "u", "f"]);
                for (i, (u, f)) in out.results.iter().enumerate() {
                    table.row(vec![i.to_string(), u.to_string(), crate::report::f3(*f)]);
                    rep.push_row(Json::obj(vec![
                        ("row", Json::Uint(i as u64)),
                        ("u", Json::Uint(*u)),
                        ("f", Json::Float(*f)),
                    ]));
                }
                (table.render(), rep.to_json().render())
            };
            let seq = Sweep::new(1).run(make_cells());
            let par = Sweep::new(jobs).run(make_cells());
            prop_assert_eq!(&seq.results, &par.results);
            let (seq_csv, seq_json) = render(&seq);
            let (par_csv, par_json) = render(&par);
            prop_assert_eq!(seq_csv, par_csv);
            prop_assert_eq!(seq_json, par_json);
        }
    }
}
