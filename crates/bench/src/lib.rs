//! Shared measurement pipeline for the `repro` experiment driver.
//!
//! Each `fig*` experiment in [`experiment`] regenerates one figure of the
//! paper: it sweeps the figure's parameter grid, runs the simulated
//! benchmark, and prints the same rows/series the paper plots (plus
//! optional CSV). This library holds the common pieces: the experiment
//! registry and its artifact pipeline, the benchmark driver (one driver,
//! two structures: the red-black tree and the hash table; fill phase +
//! measured phase), seed averaging, the parallel sweep, table printing
//! and a tiny CLI parser.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod cli;
pub mod experiment;
pub mod metrics;
pub mod report;
pub mod servicebench;
pub mod summary;
pub mod sweep;
pub mod treebench;

pub use chaos::ChaosProfile;
pub use cli::CliArgs;
pub use treebench::{run_tree_bench, run_tree_bench_avg, TreeBenchResult, TreeBenchSpec};

/// The paper's thread-count maximum (4 cores x 2 hyperthreads).
pub const PAPER_THREADS: usize = 8;

/// Tree-size sweep used by the spectrum figures (the paper sweeps
/// 2..512K; the simulator covers the same dynamic range with a cap chosen
/// for host runtime — the curves' shape settles well before the cap).
pub fn size_sweep(quick: bool, full: bool) -> Vec<usize> {
    if quick {
        vec![8, 128, 2048]
    } else if full {
        vec![2, 8, 32, 128, 512, 2048, 8192, 32768]
    } else {
        vec![2, 8, 32, 128, 512, 2048, 8192]
    }
}
