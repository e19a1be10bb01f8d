//! The kernel registry and the shared run pipeline used by Figure 11.

use crate::{genome, intruder, kmeans, labyrinth, ssca2, vacation, yada};
use elision_core::{make_scheme, LockKind, Scheme, SchemeConfig, SchemeKind};
use elision_htm::{harness, HtmConfig, Memory, MemoryBuilder, Strand};
use elision_sim::OpCounters;
use std::fmt;
use std::sync::Arc;

/// The nine STAMP workloads of Figure 11 (eight applications; kmeans and
/// vacation each come in a high- and low-contention configuration).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Gene sequencing: segment deduplication + overlap chaining.
    Genome,
    /// Network intrusion detection: packet reassembly pipeline.
    Intruder,
    /// K-means clustering, few clusters (high contention).
    KmeansHigh,
    /// K-means clustering, many clusters (low contention).
    KmeansLow,
    /// Maze routing with privatized grid copies (very long transactions).
    Labyrinth,
    /// Delaunay-style mesh refinement.
    Yada,
    /// Graph kernel: tiny adjacency-insertion transactions.
    Ssca2,
    /// Travel reservations, many queries per transaction.
    VacationHigh,
    /// Travel reservations, few queries per transaction.
    VacationLow,
}

impl KernelKind {
    /// All workloads, in the paper's Figure 11 order.
    pub const ALL: [KernelKind; 9] = [
        KernelKind::Genome,
        KernelKind::Intruder,
        KernelKind::KmeansHigh,
        KernelKind::KmeansLow,
        KernelKind::Labyrinth,
        KernelKind::Yada,
        KernelKind::Ssca2,
        KernelKind::VacationHigh,
        KernelKind::VacationLow,
    ];

    /// The label used in Figure 11.
    pub fn label(&self) -> &'static str {
        match self {
            KernelKind::Genome => "genome",
            KernelKind::Intruder => "intruder",
            KernelKind::KmeansHigh => "kmeans_high",
            KernelKind::KmeansLow => "kmeans_low",
            KernelKind::Labyrinth => "labyrinth",
            KernelKind::Yada => "yada",
            KernelKind::Ssca2 => "ssca2",
            KernelKind::VacationHigh => "vacation_high",
            KernelKind::VacationLow => "vacation_low",
        }
    }
}

impl fmt::Display for KernelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Workload scaling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StampParams {
    /// Use the small, fast configurations (tests / `--quick`).
    pub quick: bool,
    /// Seed for input generation.
    pub seed: u64,
}

impl StampParams {
    /// Quick (test-sized) inputs.
    pub fn quick() -> Self {
        StampParams { quick: true, seed: 12345 }
    }

    /// Benchmark-sized inputs.
    pub fn full() -> Self {
        StampParams { quick: false, seed: 12345 }
    }
}

/// A built kernel instance: shared state handles plus the thread body.
pub trait Kernel: Send + Sync {
    /// Post-freeze data initialization (direct writes; runs once,
    /// single-threaded, before the simulation).
    fn init(&self, mem: &Memory);

    /// One simulated thread's share of the work. Every critical section
    /// must go through `scheme.execute`.
    fn run_thread(&self, s: &mut Strand, scheme: &Scheme, threads: usize);

    /// Check conservation properties of the final state.
    ///
    /// # Errors
    ///
    /// A description of the violated property.
    fn verify(&self, mem: &Memory) -> Result<(), String>;
}

/// Build (but do not run) a kernel, for custom pipelines.
pub fn build_kernel(
    kind: KernelKind,
    b: &mut MemoryBuilder,
    threads: usize,
    params: &StampParams,
) -> Arc<dyn Kernel> {
    match kind {
        KernelKind::Genome => Arc::new(genome::Genome::new(b, threads, params)),
        KernelKind::Intruder => Arc::new(intruder::Intruder::new(b, threads, params)),
        KernelKind::KmeansHigh => Arc::new(kmeans::Kmeans::new(b, threads, params, true)),
        KernelKind::KmeansLow => Arc::new(kmeans::Kmeans::new(b, threads, params, false)),
        KernelKind::Labyrinth => Arc::new(labyrinth::Labyrinth::new(b, threads, params)),
        KernelKind::Yada => Arc::new(yada::Yada::new(b, threads, params)),
        KernelKind::Ssca2 => Arc::new(ssca2::Ssca2::new(b, threads, params)),
        KernelKind::VacationHigh => Arc::new(vacation::Vacation::new(b, threads, params, true)),
        KernelKind::VacationLow => Arc::new(vacation::Vacation::new(b, threads, params, false)),
    }
}

/// The outcome of one kernel × scheme × lock run.
#[derive(Debug, Clone)]
pub struct StampRun {
    /// Which kernel ran.
    pub kernel: KernelKind,
    /// The elision scheme used.
    pub scheme: SchemeKind,
    /// The main-lock family.
    pub lock: LockKind,
    /// Simulated threads.
    pub threads: usize,
    /// Simulated runtime in cycles (Figure 11's y-axis, before
    /// normalization to the Standard scheme).
    pub makespan: u64,
    /// Summed S/A/N counters, with the abort-cause breakdown.
    pub counters: OpCounters,
}

/// Build and run one kernel under one scheme/lock combination, verifying
/// the final state.
///
/// # Panics
///
/// Panics if the kernel's verification fails — a run that produces wrong
/// results must never contribute a timing.
pub fn run_kernel(
    kind: KernelKind,
    scheme_kind: SchemeKind,
    lock: LockKind,
    threads: usize,
    params: &StampParams,
    window: u64,
    htm: HtmConfig,
) -> StampRun {
    let mut b = MemoryBuilder::new();
    let kernel = build_kernel(kind, &mut b, threads, params);
    let scheme = make_scheme(scheme_kind, lock, SchemeConfig::paper(), &mut b, threads);
    let mem = b.freeze(threads);
    kernel.init(&mem);
    let kernel2 = Arc::clone(&kernel);
    let (results, mem, makespan) = harness::run(threads, window, htm, params.seed, mem, {
        move |s| {
            kernel2.run_thread(s, &scheme, threads);
            s.counters
        }
    });
    kernel
        .verify(&mem)
        .unwrap_or_else(|e| panic!("{kind} under {scheme_kind}/{lock}: verification failed: {e}"));
    let counters = OpCounters::sum(&results);
    StampRun { kernel: kind, scheme: scheme_kind, lock, threads, makespan, counters }
}
