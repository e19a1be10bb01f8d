//! The elision schemes the paper evaluates (Section 7's "Methodology"):
//!
//! 1. **Standard** — the plain non-speculative lock.
//! 2. **HLE** — hardware lock elision as-is (Figure 1 semantics): one
//!    speculative attempt; on abort, the acquisition re-executes
//!    non-transactionally.
//! 3. **HLE-retries** — Intel's recommendation: wait for the lock to look
//!    free and retry elision up to `max_retries` times before acquiring
//!    for real. (For fair locks this effectively turns them into TTAS
//!    locks, sacrificing fairness — paper §2.)
//! 4. **HLE-SCM** — HLE plus software-assisted conflict management
//!    (Figure 7): aborted threads serialize on an auxiliary lock and
//!    *rejoin the speculative run*; only the auxiliary-lock holder may
//!    eventually take the main lock. Keeps opacity via an eager
//!    lock-subscription at transaction begin (the paper's RTM workaround
//!    for Haswell's missing HLE-in-RTM nesting).
//! 5. **opt SLR** — optimistic software-assisted lock removal (Figure 5):
//!    run the transaction without touching the lock, subscribe *lazily*
//!    at commit time, retry up to `max_retries` before acquiring for
//!    real. Sacrifices opacity (sandboxed).
//! 6. **SLR-SCM** — SLR with the SCM serializing path layered on top.
//!
//! Additionally **NoLock** (single-thread baseline used for the paper's
//! speedup normalization) and a **true-nesting** SCM variant (elide the
//! main lock inside the RTM transaction — the design Figure 7 describes
//! but Haswell could not run) are provided.
//!
//! The speculative schemes differ only in how an attempt subscribes to
//! the main lock, and each style is written once: *elided* (HLE,
//! HLE-retries, true-nesting SCM), *checked* at begin (SCM's Haswell
//! workaround) or *lazy* at commit (opt SLR, SLR-SCM, in a [`LazyMode`]).
//! The three retry loops — Figures 1, 5 and 7 — share that one attempt
//! builder, one locked fallback and one wait for the main lock.

use elision_htm::{codes, AbortStatus, Strand, TxResult};
use elision_locks::{FallbackOutcome, RawLock};
use elision_sim::{AttemptKind, DetRng};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Typed configuration errors raised when assembling a [`Scheme`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeError {
    /// An SCM scheme (see [`SchemeKind::uses_aux`]) was constructed
    /// without an auxiliary serializing lock.
    MissingAuxLock(SchemeKind),
    /// A [`SchemeConfig`] knob is out of its domain (see
    /// [`SchemeConfig::validate`]).
    InvalidConfig {
        /// Which knob (e.g. `"breaker.trip_permille"`).
        knob: &'static str,
        /// The offending value.
        value: u64,
    },
}

impl fmt::Display for SchemeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemeError::MissingAuxLock(kind) => {
                write!(f, "{kind} requires an auxiliary lock")
            }
            SchemeError::InvalidConfig { knob, value } => {
                write!(f, "scheme config: {knob} = {value} is out of range")
            }
        }
    }
}

impl std::error::Error for SchemeError {}

/// Which elision scheme to run (paper §7 "Methodology").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// No lock at all — valid only for single-threaded baseline runs.
    NoLock,
    /// Plain non-speculative locking.
    Standard,
    /// Hardware lock elision as-is.
    Hle,
    /// HLE with speculative retries (Intel's recommendation).
    HleRetries,
    /// HLE with software-assisted conflict management.
    HleScm,
    /// Optimistic software-assisted lock removal.
    OptSlr,
    /// SLR with conflict management.
    SlrScm,
    /// Extension of the paper's §6 remark / §8 future work: SCM with the
    /// conflicting threads partitioned into *groups* by the cache line
    /// the abort occurred on, each group serialized by its own auxiliary
    /// lock — so threads conflicting on unrelated data do not serialize
    /// with each other.
    GroupedScm,
}

impl SchemeKind {
    /// All schemes the paper's figures compare.
    pub const ALL: [SchemeKind; 6] = [
        SchemeKind::Standard,
        SchemeKind::Hle,
        SchemeKind::HleRetries,
        SchemeKind::HleScm,
        SchemeKind::OptSlr,
        SchemeKind::SlrScm,
    ];

    /// The paper's label for this scheme.
    pub fn label(&self) -> &'static str {
        match self {
            SchemeKind::NoLock => "NoLock",
            SchemeKind::Standard => "Standard",
            SchemeKind::Hle => "HLE",
            SchemeKind::HleRetries => "HLE-retries",
            SchemeKind::HleScm => "HLE-SCM",
            SchemeKind::OptSlr => "opt SLR",
            SchemeKind::SlrScm => "SLR-SCM",
            SchemeKind::GroupedScm => "grouped-SCM",
        }
    }

    /// Whether this scheme uses the SCM auxiliary lock(s).
    pub fn uses_aux(&self) -> bool {
        matches!(self, SchemeKind::HleScm | SchemeKind::SlrScm | SchemeKind::GroupedScm)
    }

    /// Whether this scheme subscribes to the main lock *lazily* (SLR
    /// style, Figure 5 line 24): the critical section body runs before
    /// the lock is read, so a doomed "zombie" can execute arbitrary
    /// section code on inconsistent state. Sections containing
    /// data-dependent write targets are dangerous under such schemes
    /// (arXiv 1407.6968).
    pub fn is_lazy_subscription(&self) -> bool {
        matches!(self, SchemeKind::OptSlr | SchemeKind::SlrScm)
    }
}

impl fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Bounded exponential backoff between speculative retries.
///
/// After the `k`-th consecutive abort of one operation the thread burns
/// `min(max_cycles, base_cycles << (k-1))` cycles of simulated spin-wait,
/// plus a seeded random jitter of up to `jitter_permille`/1000 of that
/// delay. Jitter draws come from the strand's dedicated retry RNG stream,
/// so enabling backoff never perturbs workload or abort-injection draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// Delay after the first abort, in cycles.
    pub base_cycles: u64,
    /// Cap on the exponential delay, in cycles.
    pub max_cycles: u64,
    /// Jitter span, in permille of the capped delay.
    pub jitter_permille: u32,
}

impl BackoffPolicy {
    /// A moderate default: 64..8192 cycles with 50% jitter.
    pub fn default_policy() -> Self {
        BackoffPolicy { base_cycles: 64, max_cycles: 8192, jitter_permille: 500 }
    }

    /// The delay before retry number `attempt` (1-based: the delay after
    /// the first abort uses `attempt == 1`).
    pub fn delay(&self, attempt: u32, rng: &mut DetRng) -> u64 {
        let shift = attempt.saturating_sub(1).min(48);
        let raw =
            self.base_cycles.checked_shl(shift).unwrap_or(self.max_cycles).min(self.max_cycles);
        let span = (raw as u128 * self.jitter_permille as u128 / 1000) as u64;
        raw + if span > 0 { rng.below(span + 1) } else { 0 }
    }
}

/// Per-scheme speculation circuit breaker.
///
/// The breaker watches the recent abort rate across *all* threads sharing
/// the scheme. Once `window_attempts` speculative attempts accumulate, the
/// window's abort fraction is compared against `trip_permille`; at or
/// above it the breaker opens and the next `cooldown_ops` operations are
/// routed straight to the non-speculative path (no doomed speculation, no
/// abort-storm amplification). After the cooldown the breaker closes and
/// speculation is re-probed with a fresh window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Speculative attempts per evaluation window.
    pub window_attempts: u32,
    /// Abort fraction (permille) at which the breaker trips.
    pub trip_permille: u32,
    /// Operations served non-speculatively while open.
    pub cooldown_ops: u32,
}

impl BreakerConfig {
    /// A moderate default: evaluate every 64 attempts, trip at 75%
    /// aborted, cool down for 32 operations.
    pub fn default_policy() -> Self {
        BreakerConfig { window_attempts: 64, trip_permille: 750, cooldown_ops: 32 }
    }
}

/// How an SLR-style scheme performs its lazy commit-time subscription
/// (Figure 5 line 24) — the knob at the heart of arXiv 1407.6968.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LazyMode {
    /// Software subscription whose read joins the transaction's read set.
    /// This is the simulator's long-standing default and the *idealized*
    /// reading of Figure 5: because the simulated commit validates the
    /// read set atomically with publication, the check-to-commit window
    /// is closed for free. A zombie can still defeat it from the inside —
    /// its own wild store to the lock word is served back from the write
    /// buffer, so the check passes on fabricated state.
    ReadSet,
    /// Software subscription the way real unfixed hardware executes it: a
    /// racy sample of committed state that joins no read set. The lock
    /// can be acquired between the sample and the commit (the paper's
    /// commit-time subscription race), on top of the zombie hazards.
    Unfenced,
    /// The paper's hardware fix: register the lock-free condition as a
    /// [`elision_htm::HwSubscription`] descriptor; the simulated commit
    /// evaluates it atomically with publication and aborts with
    /// [`elision_htm::codes::SUBSCRIPTION`] when the lock is held. No
    /// software read of the lock happens at all.
    HardwareCommit,
}

impl LazyMode {
    /// Stable snake_case label for artifacts and CSV/JSON emitters.
    pub fn label(&self) -> &'static str {
        match self {
            LazyMode::ReadSet => "read_set",
            LazyMode::Unfenced => "unfenced",
            LazyMode::HardwareCommit => "hardware_commit",
        }
    }
}

/// Scheme tuning knobs.
///
/// Two behaviours have no knob. SLR always applies
/// the §7 status tuning: an abort whose status says retrying is hopeless
/// (capacity, explicit no-retry) ends speculation at once. And every
/// speculative attempt logs its subscription to the main lock
/// ([`elision_htm::SanAccess::Subscribe`]) whenever the memory carries a
/// sanitizer log; without one, the log call is a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchemeConfig {
    /// Speculative attempts before giving up and taking the real lock
    /// (the paper uses 10 for HLE-retries, opt SLR and the SCM aux-holder
    /// budget).
    pub max_retries: u32,
    /// SCM extension: elide the main lock inside the RTM transaction
    /// (true HLE-in-RTM nesting) instead of the read-and-check
    /// workaround the paper had to use on Haswell.
    pub scm_true_nesting: bool,
    /// Abort-adaptive retry backoff, if enabled (see [`BackoffPolicy`]).
    /// The paper's configuration retries immediately.
    pub backoff: Option<BackoffPolicy>,
    /// Extend the §7 status tuning to the HLE and SCM retry loops: an
    /// abort whose status says retrying is hopeless (capacity, explicit
    /// no-retry) skips the remaining speculative budget instead of
    /// burning it on attempts fated to fail the same way.
    pub capacity_skips_retries: bool,
    /// Speculation circuit breaker, if enabled (see [`BreakerConfig`]).
    pub breaker: Option<BreakerConfig>,
    /// How SLR-style schemes subscribe to the main lock at commit time
    /// (see [`LazyMode`]). Eager schemes ignore this knob.
    pub lazy_mode: LazyMode,
}

impl SchemeConfig {
    /// The paper's configuration: 10 retries, Haswell-faithful SCM
    /// workaround, no backoff, no breaker — byte-for-byte the behaviour
    /// every figure of the paper measures.
    pub fn paper() -> Self {
        SchemeConfig {
            max_retries: 10,
            scm_true_nesting: false,
            backoff: None,
            capacity_skips_retries: false,
            breaker: None,
            lazy_mode: LazyMode::ReadSet,
        }
    }

    /// Override the lazy subscription mode (see [`LazyMode`]).
    pub fn with_lazy_mode(mut self, mode: LazyMode) -> Self {
        self.lazy_mode = mode;
        self
    }

    /// The model-checking configuration, equal to [`SchemeConfig::paper`].
    /// Deliberately keeps `breaker: None` — the
    /// circuit breaker's state lives in host atomics invisible to the
    /// explorer's per-step footprints, so enabling it would make the
    /// partial-order reduction unsound (steps could interact through
    /// state the dependence relation cannot see). The explorer also only
    /// drives [`super::SchemeKind::ALL`], which excludes `GroupedScm` for
    /// the same reason (its aux-lock round-robin cursor is a host atomic).
    pub fn explore() -> Self {
        Self::paper()
    }

    /// Check every knob against its domain: the breaker's trip threshold
    /// is a permille (≤ 1000) and its window must hold at least one
    /// attempt. A `trip_permille` above 1000 previously slipped through
    /// and made the breaker untrippable (the abort fraction can never
    /// cross it), silently disabling the hardening it was meant to tune.
    ///
    /// # Errors
    ///
    /// [`SchemeError::InvalidConfig`] naming the offending knob.
    pub fn validate(&self) -> Result<(), SchemeError> {
        if let Some(b) = &self.breaker {
            if b.trip_permille > 1000 {
                return Err(SchemeError::InvalidConfig {
                    knob: "breaker.trip_permille",
                    value: u64::from(b.trip_permille),
                });
            }
            if b.window_attempts == 0 {
                return Err(SchemeError::InvalidConfig {
                    knob: "breaker.window_attempts",
                    value: 0,
                });
            }
        }
        Ok(())
    }

    /// The hardened configuration: the paper's settings plus bounded
    /// exponential backoff with jitter, capacity-abort fast-pathing, and
    /// the speculation circuit breaker. This is what the chaos harness
    /// runs under injected fault storms.
    pub fn hardened() -> Self {
        SchemeConfig {
            backoff: Some(BackoffPolicy::default_policy()),
            capacity_skips_retries: true,
            breaker: Some(BreakerConfig::default_policy()),
            ..Self::paper()
        }
    }
}

impl Default for SchemeConfig {
    fn default() -> Self {
        SchemeConfig::paper()
    }
}

/// How one critical-section execution completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOutcome<R> {
    /// The critical section's return value.
    pub value: R,
    /// Whether the operation completed under the real lock.
    pub nonspeculative: bool,
    /// Total attempts (aborted speculative attempts + the completing one).
    pub attempts: u32,
}

/// A lock wrapped in one of the paper's elision schemes.
///
/// One `Scheme` instance is shared by all simulated threads; per-execution
/// state (retry counts, auxiliary-lock ownership) is transient and local.
pub struct Scheme {
    kind: SchemeKind,
    cfg: SchemeConfig,
    main: Arc<dyn RawLock>,
    /// Auxiliary serializing locks: empty for non-SCM schemes, one for
    /// classic SCM, several for grouped SCM.
    aux: Vec<Arc<dyn RawLock>>,
    /// Round-robin cursor spreading grouped-SCM aborts that carry no
    /// conflict line (capacity, explicit) across the auxiliary locks.
    aux_rr: AtomicU64,
    /// Per-auxiliary-lock acquisition counts (telemetry; lets tests and
    /// diagnostics verify grouped SCM actually spreads serialization).
    aux_traffic: Vec<AtomicU64>,
    /// Shared circuit-breaker state (used only when `cfg.breaker` is set).
    breaker: BreakerState,
}

/// Cross-thread speculation circuit-breaker state.
///
/// All counters are plain atomics shared by every strand executing under
/// the scheme. Under a zero-lag window the simulation serializes all
/// updates, so breaker decisions are deterministic there; under relaxed
/// windows the window boundaries are approximate, which is fine — the
/// breaker is a load-shedding heuristic, not a correctness mechanism.
#[derive(Debug, Default)]
struct BreakerState {
    /// Speculative attempts observed in the current window.
    attempts: AtomicU64,
    /// Aborted attempts observed in the current window.
    aborts: AtomicU64,
    /// Operations left to serve non-speculatively; `> 0` means open.
    open_remaining: AtomicU64,
    /// Total number of times the breaker has tripped.
    trips: AtomicU64,
}

impl BreakerState {
    /// If the breaker is open, consume one cooldown op and report `true`
    /// (the caller must run non-speculatively). Closing re-arms a fresh
    /// evaluation window.
    fn consume_if_open(&self) -> bool {
        let mut cur = self.open_remaining.load(Ordering::SeqCst);
        while cur > 0 {
            match self.open_remaining.compare_exchange(
                cur,
                cur - 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => {
                    if cur == 1 {
                        // Last cooldown op: re-probe speculation with a
                        // clean window.
                        self.attempts.store(0, Ordering::SeqCst);
                        self.aborts.store(0, Ordering::SeqCst);
                    }
                    return true;
                }
                Err(seen) => cur = seen,
            }
        }
        false
    }

    /// Record one completed operation's speculative attempt counts and
    /// trip the breaker if the window's abort rate crosses the threshold.
    fn record(&self, cfg: &BreakerConfig, attempts: u64, aborts: u64) {
        let total = self.attempts.fetch_add(attempts, Ordering::SeqCst) + attempts;
        let failed = self.aborts.fetch_add(aborts, Ordering::SeqCst) + aborts;
        if total >= u64::from(cfg.window_attempts) {
            if failed.saturating_mul(1000) >= u64::from(cfg.trip_permille) * total {
                self.trips.fetch_add(1, Ordering::SeqCst);
                self.open_remaining.store(u64::from(cfg.cooldown_ops), Ordering::SeqCst);
            }
            self.attempts.store(0, Ordering::SeqCst);
            self.aborts.store(0, Ordering::SeqCst);
        }
    }
}

impl fmt::Debug for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scheme")
            .field("kind", &self.kind)
            .field("main", &self.main.name())
            .field("aux", &self.aux.iter().map(|a| a.name()).collect::<Vec<_>>())
            .finish()
    }
}

impl Scheme {
    /// Wrap `main` in the given scheme. SCM schemes need at least one
    /// auxiliary lock in `aux` (the paper recommends a fair lock; see
    /// [`SchemeKind::uses_aux`]): classic SCM serializes on `aux[0]`, and
    /// grouped SCM (the §8 future-work extension) on
    /// `aux[hash(conflict line) % aux.len()]`, so conflicts on unrelated
    /// data do not serialize with each other. Other schemes do not use
    /// `aux`.
    ///
    /// # Errors
    ///
    /// [`SchemeError::MissingAuxLock`] if an SCM scheme gets an empty
    /// `aux`, and [`SchemeError::InvalidConfig`] if `cfg` fails
    /// [`SchemeConfig::validate`].
    pub fn new(
        kind: SchemeKind,
        cfg: SchemeConfig,
        main: Arc<dyn RawLock>,
        aux: Vec<Arc<dyn RawLock>>,
    ) -> Result<Self, SchemeError> {
        cfg.validate()?;
        if kind.uses_aux() && aux.is_empty() {
            return Err(SchemeError::MissingAuxLock(kind));
        }
        let aux_traffic = aux.iter().map(|_| AtomicU64::new(0)).collect();
        Ok(Scheme {
            kind,
            cfg,
            main,
            aux,
            aux_rr: AtomicU64::new(0),
            aux_traffic,
            breaker: BreakerState::default(),
        })
    }

    /// Per-auxiliary-lock acquisition counts since construction (empty
    /// for schemes without auxiliary locks).
    pub fn aux_acquisitions(&self) -> Vec<u64> {
        self.aux_traffic.iter().map(|c| c.load(Ordering::SeqCst)).collect()
    }

    /// How many times the speculation circuit breaker has tripped since
    /// construction (always zero without [`SchemeConfig::breaker`]).
    pub fn breaker_trips(&self) -> u64 {
        self.breaker.trips.load(Ordering::SeqCst)
    }

    /// The scheme kind.
    pub fn kind(&self) -> SchemeKind {
        self.kind
    }

    /// The main lock.
    pub fn main_lock(&self) -> &Arc<dyn RawLock> {
        &self.main
    }

    /// The auxiliary serializing locks (empty for non-SCM schemes).
    pub fn aux_locks(&self) -> &[Arc<dyn RawLock>] {
        &self.aux
    }

    /// Execute `body` as a critical section under this scheme.
    ///
    /// `body` may run several times (speculative retries) and must be
    /// idempotent in its side effects *outside* simulated memory;
    /// transactional memory effects roll back automatically. It must
    /// propagate `Err(Abort)` outward (never swallow it).
    ///
    /// S/A/N counters are recorded into `s.counters`.
    pub fn execute<R>(
        &self,
        s: &mut Strand,
        mut body: impl FnMut(&mut Strand) -> TxResult<R>,
    ) -> ExecOutcome<R> {
        match self.kind {
            SchemeKind::NoLock => {
                let value = body(s).expect("non-speculative body cannot abort");
                ExecOutcome { value, nonspeculative: false, attempts: 1 }
            }
            SchemeKind::Standard => self.run_locked(s, &mut body, 1),
            _ => match &self.cfg.breaker {
                None => self.execute_speculative(s, &mut body),
                Some(bc) => {
                    if self.breaker.consume_if_open() {
                        // Breaker open: shed speculation entirely. Taking
                        // the main lock is always safe (it dooms whatever
                        // speculation is still in flight, which is exactly
                        // the storm the breaker is shedding).
                        return self.run_locked(s, &mut body, 1);
                    }
                    let outcome = self.execute_speculative(s, &mut body);
                    let aborted = u64::from(outcome.attempts.saturating_sub(1));
                    let speculative =
                        if outcome.nonspeculative { aborted } else { u64::from(outcome.attempts) };
                    if speculative > 0 {
                        self.breaker.record(bc, speculative, aborted);
                    }
                    outcome
                }
            },
        }
    }

    /// Dispatch to the speculative scheme implementations.
    fn execute_speculative<R>(
        &self,
        s: &mut Strand,
        body: &mut impl FnMut(&mut Strand) -> TxResult<R>,
    ) -> ExecOutcome<R> {
        let eager = if self.cfg.scm_true_nesting { Attempt::Elided } else { Attempt::Checked };
        match self.kind {
            SchemeKind::Hle => self.execute_hle(s, body, 1),
            SchemeKind::HleRetries => self.execute_hle(s, body, self.cfg.max_retries),
            SchemeKind::HleScm | SchemeKind::GroupedScm => self.execute_scm(s, body, eager),
            SchemeKind::OptSlr => self.execute_slr(s, body),
            SchemeKind::SlrScm => self.execute_scm(s, body, Attempt::Lazy),
            SchemeKind::NoLock | SchemeKind::Standard => {
                unreachable!("non-speculative kinds handled by execute")
            }
        }
    }

    /// Burn the configured backoff delay before retry number `attempt`.
    fn backoff_wait(&self, s: &mut Strand, attempt: u32) {
        if let Some(bp) = &self.cfg.backoff {
            let delay = bp.delay(attempt, &mut s.retry_rng);
            if delay > 0 {
                s.work(delay).expect("backoff wait outside a transaction cannot abort");
            }
        }
    }

    /// Figure 1's test-and-test: outside any transaction, wait until the
    /// main lock looks free. `first_arrival` counts an operation that
    /// found the lock held when it arrived.
    fn wait_for_main(&self, s: &mut Strand, first_arrival: bool) {
        if self.main.is_locked(s).expect("plain read cannot abort") {
            if first_arrival {
                s.counters.arrived_lock_held += 1;
            }
            self.main.wait_until_free(s).expect("plain spin cannot abort");
        }
    }

    /// Acquire the main lock and complete the operation under it (see
    /// [`Scheme::locked_tail`]).
    fn run_locked<R>(
        &self,
        s: &mut Strand,
        body: &mut impl FnMut(&mut Strand) -> TxResult<R>,
        attempts: u32,
    ) -> ExecOutcome<R> {
        self.main.acquire(s).expect("non-speculative acquire cannot abort");
        self.locked_tail(s, body, attempts)
    }

    /// With the main lock held, run the body non-speculatively, release
    /// the lock, and return the non-speculative outcome of an operation
    /// that took `attempts` attempts in all.
    fn locked_tail<R>(
        &self,
        s: &mut Strand,
        body: &mut impl FnMut(&mut Strand) -> TxResult<R>,
        attempts: u32,
    ) -> ExecOutcome<R> {
        let value = body(s).expect("non-speculative body cannot abort");
        self.main.release(s).expect("non-speculative release cannot abort");
        s.counters.record(AttemptKind::NonSpeculative);
        ExecOutcome { value, nonspeculative: true, attempts }
    }

    /// One speculative attempt, the operation's `attempts`-th, subscribed
    /// to the main lock in `how`'s style. A commit is the operation's
    /// speculative outcome; an abort returns its status.
    fn attempt<R>(
        &self,
        s: &mut Strand,
        body: &mut impl FnMut(&mut Strand) -> TxResult<R>,
        how: Attempt,
        attempts: u32,
    ) -> Result<ExecOutcome<R>, AbortStatus> {
        let r = s.attempt(|s| match how {
            Attempt::Elided => {
                self.subscribe(s, how)?;
                let v = body(s)?;
                self.main.elided_release(s)?;
                Ok(v)
            }
            Attempt::Checked => {
                self.subscribe(s, how)?;
                body(s)
            }
            Attempt::Lazy => {
                // Declare lazy subscription up front so the hardware
                // dangerous-instruction screen (when configured) covers
                // every store the body issues.
                s.mark_lazy_subscription();
                let v = body(s)?;
                self.subscribe(s, how)?;
                Ok(v)
            }
        });
        match r {
            Ok(value) => {
                s.counters.record(AttemptKind::Speculative);
                Ok(ExecOutcome { value, nonspeculative: false, attempts })
            }
            Err(status) => {
                s.counters.record(AttemptKind::Aborted);
                Err(status)
            }
        }
    }

    /// The running attempt's subscription to the main lock, in `how`'s
    /// style (lazy attempts in the [`SchemeConfig::lazy_mode`] mode). A
    /// lock seen held aborts the attempt with [`codes::LOCK_BUSY`]; a
    /// subscription that holds is logged for the lock-discipline lints.
    fn subscribe(&self, s: &mut Strand, how: Attempt) -> TxResult<()> {
        let main = &self.main;
        let free = match (how, self.cfg.lazy_mode) {
            // XACQUIRE: the elided acquisition puts the lock in the read
            // set, and aborts by itself when the lock is busy.
            (Attempt::Elided, _) => {
                main.elided_acquire(s)?;
                true
            }
            // Put the lock in the read set and check that it is free:
            // SCM's Haswell workaround at begin, and Figure 5 line 24 at
            // commit. A held lock means a non-speculative peer is inside
            // the critical section; an acquisition after the check dooms
            // the commit.
            (Attempt::Checked, _) | (Attempt::Lazy, LazyMode::ReadSet) => !main.is_locked(s)?,
            // The same check as real unfixed hardware runs it: a racy
            // sample that joins no read set. A lock acquired after the
            // sample but before the commit goes unnoticed.
            (Attempt::Lazy, LazyMode::Unfenced) => s.probe_subscription(&main.hw_subscription())?,
            // The hardware fix: hand the lock-free condition to the commit
            // itself; no software read of the lock at all.
            (Attempt::Lazy, LazyMode::HardwareCommit) => {
                s.hw_subscribe(main.hw_subscription());
                true
            }
        };
        if !free {
            return Err(s.xabort(codes::LOCK_BUSY, true));
        }
        s.note_subscribe(main.lock_word());
        Ok(())
    }

    /// Plain HLE (`budget == 1`) and HLE-retries (`budget == max_retries`),
    /// Figure 1.
    fn execute_hle<R>(
        &self,
        s: &mut Strand,
        body: &mut impl FnMut(&mut Strand) -> TxResult<R>,
        budget: u32,
    ) -> ExecOutcome<R> {
        let mut attempts = 0u32;
        let mut hopeless = false;
        loop {
            // Figure 1's outer test-and-test loop: unfair locks (and any
            // lock under Intel's retry guideline) wait until the lock
            // looks free before issuing the XACQUIRE.
            if !self.main.is_fair() || budget > 1 {
                self.wait_for_main(s, attempts == 0);
            }
            attempts += 1;
            let status = match self.attempt(s, body, Attempt::Elided, attempts) {
                Ok(outcome) => return outcome,
                Err(status) => status,
            };
            // Abort-cause adaptation: a capacity (or other no-retry) abort
            // will fail identically on every retry — skip straight to the
            // fallback.
            if self.cfg.capacity_skips_retries && !status.retry_recommended {
                hopeless = true;
            }
            if attempts < budget && !hopeless {
                self.backoff_wait(s, attempts);
                continue;
            }
            // HLE's hardware fallback: re-execute the acquisition
            // non-transactionally. For TTAS this is a single TAS that may
            // fail (then we loop: spin and re-elide — Figure 1); queue
            // locks enqueue and block, serializing behind every other
            // aborted thread (the lemming effect).
            match self.main.fallback_acquire(s).expect("fallback cannot abort") {
                FallbackOutcome::Acquired => return self.locked_tail(s, body, attempts + 1),
                // Lock held by another aborted thread: loop back, wait for
                // it to leave, then re-enter speculation.
                FallbackOutcome::Busy => {}
            }
        }
    }

    /// Optimistic SLR (Figure 5): no lock access until commit time.
    fn execute_slr<R>(
        &self,
        s: &mut Strand,
        body: &mut impl FnMut(&mut Strand) -> TxResult<R>,
    ) -> ExecOutcome<R> {
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            let status = match self.attempt(s, body, Attempt::Lazy, attempts) {
                Ok(outcome) => return outcome,
                Err(status) => status,
            };
            // §7 status tuning: an abort whose status says the
            // transaction is unlikely to succeed (e.g. capacity) skips the
            // remaining retries.
            if attempts >= self.cfg.max_retries || !status.retry_recommended {
                return self.run_locked(s, body, attempts + 1);
            }
            self.backoff_wait(s, attempts);
        }
    }

    /// SCM (Figure 7), parameterized by how the transaction subscribes to
    /// the main lock: at begin (HLE-SCM, opacity-preserving, by
    /// [`Attempt::Checked`] or, with true nesting, [`Attempt::Elided`]) or
    /// at commit (SLR-SCM, [`Attempt::Lazy`]).
    fn execute_scm<R>(
        &self,
        s: &mut Strand,
        body: &mut impl FnMut(&mut Strand) -> TxResult<R>,
        how: Attempt,
    ) -> ExecOutcome<R> {
        // The auxiliary lock this operation holds. The group is chosen by
        // the *first* abort's conflict location and then kept for the
        // whole operation (at most one auxiliary lock is ever held, so
        // groups cannot deadlock against each other).
        let mut held: Option<usize> = None;
        let mut retries = 0u32;
        let mut attempts = 0u32;
        let outcome = loop {
            // With a subscription at begin, speculation while the main
            // lock is held aborts instantly; wait it out first (the
            // paper's HLE-SCM tuning).
            if how != Attempt::Lazy {
                self.wait_for_main(s, attempts == 0);
            }
            attempts += 1;
            let status = match self.attempt(s, body, how, attempts) {
                Ok(outcome) => break outcome,
                Err(status) => status,
            };

            // Serializing path: group conflicting threads behind the
            // auxiliary lock; the holder rejoins the speculative run.
            if held.is_none() {
                let group = self.aux_group(&status);
                self.aux_traffic[group].fetch_add(1, Ordering::Relaxed);
                self.aux[group].acquire(s).expect("aux acquire cannot abort");
                held = Some(group);
            } else {
                retries += 1;
            }
            // Abort-cause adaptation: capacity/no-retry aborts will fail
            // identically on every retry. We hold the aux lock here, so
            // giving up early preserves the SCM invariant (only the aux
            // holder takes the main lock).
            let hopeless = self.cfg.capacity_skips_retries && !status.retry_recommended;
            if retries >= self.cfg.max_retries || hopeless {
                // The auxiliary-lock holder gives up: it is the only
                // thread that may acquire the main lock, so this cannot
                // deadlock and guarantees progress (paper §6).
                break self.run_locked(s, body, attempts + 1);
            }
            self.backoff_wait(s, attempts);
        };
        if let Some(group) = held {
            self.aux[group].release(s).expect("aux release cannot abort");
        }
        outcome
    }

    /// The auxiliary lock an SCM operation serializes on after its first
    /// abort: `aux[0]`, except under grouped SCM with several locks, where
    /// the abort's conflict line picks the group.
    fn aux_group(&self, status: &AbortStatus) -> usize {
        let groups = self.aux.len();
        if self.kind != SchemeKind::GroupedScm || groups == 1 {
            return 0;
        }
        match status.conflict_line {
            Some(l) => (l as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) as usize % groups,
            // Capacity and explicit aborts carry no conflict line; spread
            // them round-robin so they do not all dog-pile on aux[0].
            None => self.aux_rr.fetch_add(1, Ordering::Relaxed) as usize % groups,
        }
    }
}

/// How a speculative attempt subscribes to the main lock — the one thing
/// the paper's algorithms vary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Attempt {
    /// Elide the main lock's acquisition (`XACQUIRE` .. `XRELEASE`):
    /// HLE and HLE-retries (Figure 1), and SCM with true nesting.
    Elided,
    /// Read the main lock at begin and abort if it is held: SCM's
    /// Haswell workaround (Figure 7).
    Checked,
    /// Subscribe at commit, in the [`SchemeConfig::lazy_mode`] mode: opt
    /// SLR (Figure 5) and SLR-SCM.
    Lazy,
}
