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

use elision_htm::{codes, Strand, TxResult};
use elision_locks::{FallbackOutcome, RawLock};
use elision_sim::{AttemptKind, DetRng};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Typed configuration errors raised when assembling a [`Scheme`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeError {
    /// An SCM scheme (see [`SchemeKind::uses_aux`]) was constructed
    /// without the auxiliary serializing lock it requires.
    MissingAuxLock(SchemeKind),
    /// Grouped SCM was constructed with an empty auxiliary-lock vector.
    NoAuxLocks,
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
            SchemeError::NoAuxLocks => f.write_str("grouped SCM needs at least one auxiliary lock"),
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchemeConfig {
    /// Speculative attempts before giving up and taking the real lock
    /// (the paper uses 10 for HLE-retries, opt SLR and the SCM aux-holder
    /// budget).
    pub max_retries: u32,
    /// SLR tuning from §7: when the abort status says the transaction is
    /// unlikely to succeed (e.g. capacity), skip the remaining retries.
    pub slr_status_tuning: bool,
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
    /// Record `subscribe` protocol markers for the sanitizer's lint pass
    /// whenever a speculative attempt subscribes to the main lock (elided
    /// acquisition or SLR/SCM subscription read). Off in the paper
    /// configuration: markers cost nothing in simulated time but bloat
    /// the sanitizer log.
    pub sanitize: bool,
    /// How SLR-style schemes subscribe to the main lock at commit time
    /// (see [`LazyMode`]). Eager schemes ignore this knob.
    pub lazy_mode: LazyMode,
}

impl SchemeConfig {
    /// The paper's configuration: 10 retries, SLR status tuning on,
    /// Haswell-faithful SCM workaround, no backoff, no breaker —
    /// byte-for-byte the behaviour every figure of the paper measures.
    pub fn paper() -> Self {
        SchemeConfig {
            max_retries: 10,
            slr_status_tuning: true,
            scm_true_nesting: false,
            backoff: None,
            capacity_skips_retries: false,
            breaker: None,
            sanitize: false,
            lazy_mode: LazyMode::ReadSet,
        }
    }

    /// Override the lazy subscription mode (see [`LazyMode`]).
    pub fn with_lazy_mode(mut self, mode: LazyMode) -> Self {
        self.lazy_mode = mode;
        self
    }

    /// The model-checking configuration: the paper's settings with the
    /// sanitizer log enabled. Deliberately keeps `breaker: None` — the
    /// circuit breaker's state lives in host atomics invisible to the
    /// explorer's per-step footprints, so enabling it would make the
    /// partial-order reduction unsound (steps could interact through
    /// state the dependence relation cannot see). The explorer also only
    /// drives [`super::SchemeKind::ALL`], which excludes `GroupedScm` for
    /// the same reason (its aux-lock round-robin cursor is a host atomic).
    pub fn explore() -> Self {
        SchemeConfig { sanitize: true, ..Self::paper() }
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
    /// Wrap `main` in the given scheme. SCM schemes require `aux` (the
    /// paper recommends a fair lock; see [`SchemeKind::uses_aux`]).
    ///
    /// # Errors
    ///
    /// [`SchemeError::MissingAuxLock`] if an SCM scheme is requested
    /// without an auxiliary lock.
    pub fn new(
        kind: SchemeKind,
        cfg: SchemeConfig,
        main: Arc<dyn RawLock>,
        aux: Option<Arc<dyn RawLock>>,
    ) -> Result<Self, SchemeError> {
        cfg.validate()?;
        if kind.uses_aux() && aux.is_none() {
            return Err(SchemeError::MissingAuxLock(kind));
        }
        let aux: Vec<_> = aux.into_iter().collect();
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

    /// Build a grouped SCM scheme with one auxiliary lock per conflict
    /// group (the §8 future-work extension). Aborted threads serialize on
    /// `aux[hash(conflict line) % groups]`, so conflicts on unrelated
    /// data do not serialize with each other.
    ///
    /// # Errors
    ///
    /// [`SchemeError::NoAuxLocks`] if `aux` is empty.
    pub fn new_grouped(
        cfg: SchemeConfig,
        main: Arc<dyn RawLock>,
        aux: Vec<Arc<dyn RawLock>>,
    ) -> Result<Self, SchemeError> {
        cfg.validate()?;
        if aux.is_empty() {
            return Err(SchemeError::NoAuxLocks);
        }
        let aux_traffic = aux.iter().map(|_| AtomicU64::new(0)).collect();
        Ok(Scheme {
            kind: SchemeKind::GroupedScm,
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
            SchemeKind::Standard => {
                let value = self.run_locked(s, &mut body);
                s.counters.record(AttemptKind::NonSpeculative);
                ExecOutcome { value, nonspeculative: true, attempts: 1 }
            }
            _ => match &self.cfg.breaker {
                None => self.execute_speculative(s, &mut body),
                Some(bc) => {
                    if self.breaker.consume_if_open() {
                        // Breaker open: shed speculation entirely. Taking
                        // the main lock is always safe (it dooms whatever
                        // speculation is still in flight, which is exactly
                        // the storm the breaker is shedding).
                        let value = self.run_locked(s, &mut body);
                        s.counters.record(AttemptKind::NonSpeculative);
                        return ExecOutcome { value, nonspeculative: true, attempts: 1 };
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
        match self.kind {
            SchemeKind::Hle => self.execute_hle(s, body, 1),
            SchemeKind::HleRetries => self.execute_hle(s, body, self.cfg.max_retries),
            SchemeKind::HleScm => self.execute_scm(s, body, Subscription::Eager),
            SchemeKind::OptSlr => self.execute_slr(s, body),
            SchemeKind::SlrScm => self.execute_scm(s, body, Subscription::Lazy),
            SchemeKind::GroupedScm => self.execute_scm(s, body, Subscription::Eager),
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

    /// Acquire the main lock, run the body non-speculatively, release.
    fn run_locked<R>(
        &self,
        s: &mut Strand,
        body: &mut impl FnMut(&mut Strand) -> TxResult<R>,
    ) -> R {
        self.main.acquire(s).expect("non-speculative acquire cannot abort");
        let value = body(s).expect("non-speculative body cannot abort");
        self.main.release(s).expect("non-speculative release cannot abort");
        value
    }

    /// One elided (XACQUIRE .. XRELEASE) speculative attempt.
    fn attempt_elided<R>(
        &self,
        s: &mut Strand,
        body: &mut impl FnMut(&mut Strand) -> TxResult<R>,
    ) -> Result<R, elision_htm::AbortStatus> {
        let main = &self.main;
        let sanitize = self.cfg.sanitize;
        s.attempt(|s| {
            main.elided_acquire(s)?;
            if sanitize {
                s.note("subscribe", u64::from(main.lock_word().index()));
            }
            let v = body(s)?;
            main.elided_release(s)?;
            Ok(v)
        })
    }

    /// Plain HLE (`budget == 1`) and HLE-retries (`budget == max_retries`).
    fn execute_hle<R>(
        &self,
        s: &mut Strand,
        body: &mut impl FnMut(&mut Strand) -> TxResult<R>,
        budget: u32,
    ) -> ExecOutcome<R> {
        let retries_mode = budget > 1;
        let mut attempts = 0u32;
        let mut first_arrival = true;
        let mut hopeless = false;
        loop {
            // Figure 1's outer test-and-test loop: unfair locks (and any
            // lock under Intel's retry guideline) wait until the lock
            // looks free before issuing the XACQUIRE.
            if !self.main.is_fair() || retries_mode {
                let held = self.main.is_locked(s).expect("plain read cannot abort");
                if held {
                    if first_arrival {
                        s.counters.arrived_lock_held += 1;
                    }
                    self.main.wait_until_free(s).expect("plain spin cannot abort");
                }
            }
            first_arrival = false;

            attempts += 1;
            match self.attempt_elided(s, body) {
                Ok(value) => {
                    s.counters.record(AttemptKind::Speculative);
                    return ExecOutcome { value, nonspeculative: false, attempts };
                }
                Err(status) => {
                    s.counters.record(AttemptKind::Aborted);
                    // Abort-cause adaptation: a capacity (or other
                    // no-retry) abort will fail identically on every
                    // retry — skip straight to the fallback.
                    if self.cfg.capacity_skips_retries && !status.retry_recommended {
                        hopeless = true;
                    }
                }
            }

            if attempts < budget && !hopeless {
                self.backoff_wait(s, attempts);
            }

            if attempts >= budget || hopeless {
                // HLE's hardware fallback: re-execute the acquisition
                // non-transactionally. For TTAS this is a single TAS that
                // may fail (then we loop: spin and re-elide — Figure 1);
                // queue locks enqueue and block, serializing behind every
                // other aborted thread (the lemming effect).
                match self.main.fallback_acquire(s).expect("fallback cannot abort") {
                    FallbackOutcome::Acquired => {
                        let value = body(s).expect("non-speculative body cannot abort");
                        self.main.release(s).expect("release cannot abort");
                        s.counters.record(AttemptKind::NonSpeculative);
                        attempts += 1;
                        return ExecOutcome { value, nonspeculative: true, attempts };
                    }
                    FallbackOutcome::Busy => {
                        // Lock held by another aborted thread: loop back,
                        // wait for it to leave, then re-enter speculation.
                    }
                }
            }
        }
    }

    /// The commit-time subscription step of a lazy attempt, in the mode
    /// [`SchemeConfig::lazy_mode`] selects. Must run as the last thing
    /// before the attempt closure returns `Ok`.
    fn lazy_subscribe(&self, s: &mut Strand) -> TxResult<()> {
        let main = &self.main;
        match self.cfg.lazy_mode {
            // Read the lock only when ready to commit; if it is held a
            // non-speculative peer is inside the critical section and we
            // may have seen inconsistent state — self-abort (Figure 5
            // line 24). The read joins the read set, so a post-check
            // acquisition dooms the commit.
            LazyMode::ReadSet => {
                if main.is_locked(s)? {
                    return Err(s.xabort(codes::LOCK_BUSY, true));
                }
            }
            // The same software check as real unfixed hardware runs it:
            // a racy sample that joins no read set. A lock acquired after
            // the sample but before the commit goes unnoticed.
            LazyMode::Unfenced => match main.hw_subscription() {
                Some(sub) => {
                    if !s.probe_subscription(&sub)? {
                        return Err(s.xabort(codes::LOCK_BUSY, true));
                    }
                }
                None => {
                    if main.is_locked(s)? {
                        return Err(s.xabort(codes::LOCK_BUSY, true));
                    }
                }
            },
            // The hardware fix: hand the lock-free condition to the
            // commit itself; no software read of the lock at all.
            LazyMode::HardwareCommit => match main.hw_subscription() {
                Some(sub) => s.hw_subscribe(sub),
                None => {
                    if main.is_locked(s)? {
                        return Err(s.xabort(codes::LOCK_BUSY, true));
                    }
                }
            },
        }
        if self.cfg.sanitize {
            s.note("subscribe", u64::from(main.lock_word().index()));
        }
        Ok(())
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
            let r = s.attempt(|s| {
                // Declare lazy subscription up front so the hardware
                // dangerous-instruction screen (when configured) covers
                // every store the body issues.
                s.mark_lazy_subscription();
                let v = body(s)?;
                self.lazy_subscribe(s)?;
                Ok(v)
            });
            match r {
                Ok(value) => {
                    s.counters.record(AttemptKind::Speculative);
                    return ExecOutcome { value, nonspeculative: false, attempts };
                }
                Err(status) => {
                    s.counters.record(AttemptKind::Aborted);
                    let hopeless = self.cfg.slr_status_tuning && !status.retry_recommended;
                    if attempts >= self.cfg.max_retries || hopeless {
                        let value = self.run_locked(s, body);
                        s.counters.record(AttemptKind::NonSpeculative);
                        return ExecOutcome { value, nonspeculative: true, attempts: attempts + 1 };
                    }
                    self.backoff_wait(s, attempts);
                }
            }
        }
    }

    /// SCM (Figure 7), parameterized by when the transaction subscribes
    /// to the main lock: eagerly at begin (HLE-SCM, opacity-preserving)
    /// or lazily at commit (SLR-SCM).
    fn execute_scm<R>(
        &self,
        s: &mut Strand,
        body: &mut impl FnMut(&mut Strand) -> TxResult<R>,
        subscription: Subscription,
    ) -> ExecOutcome<R> {
        // The group is chosen by the *first* abort's conflict location and
        // then kept for the whole operation (at most one auxiliary lock is
        // ever held, so groups cannot deadlock against each other).
        //
        // Construction ([`Scheme::new`] / [`Scheme::new_grouped`]) rejects
        // SCM schemes without auxiliary locks, so this is unreachable in
        // practice; degrade to plain locking rather than panic if an
        // impossible state is ever reached.
        let Some(mut aux) = self.aux.first() else {
            let value = self.run_locked(s, body);
            s.counters.record(AttemptKind::NonSpeculative);
            return ExecOutcome { value, nonspeculative: true, attempts: 1 };
        };
        let mut aux_idx = 0usize;
        let mut aux_owner = false;
        let mut retries = 0u32;
        let mut attempts = 0u32;
        let outcome = loop {
            // With the eager (HLE-like) subscription, speculation while
            // the main lock is held aborts instantly; wait it out first
            // (the paper's HLE-SCM tuning).
            if subscription == Subscription::Eager {
                let held = self.main.is_locked(s).expect("plain read cannot abort");
                if held {
                    if attempts == 0 {
                        s.counters.arrived_lock_held += 1;
                    }
                    self.main.wait_until_free(s).expect("plain spin cannot abort");
                }
            }

            attempts += 1;
            let main = &self.main;
            let true_nesting = self.cfg.scm_true_nesting;
            let sanitize = self.cfg.sanitize;
            let r = s.attempt(|s| match subscription {
                Subscription::Eager => {
                    if true_nesting {
                        // The design Figure 7 describes: nest the HLE
                        // acquisition inside the RTM transaction.
                        main.elided_acquire(s)?;
                        if sanitize {
                            s.note("subscribe", u64::from(main.lock_word().index()));
                        }
                        let v = body(s)?;
                        main.elided_release(s)?;
                        Ok(v)
                    } else {
                        // Haswell workaround: put the main lock in the
                        // read set and verify it is free.
                        if main.is_locked(s)? {
                            return Err(s.xabort(codes::LOCK_BUSY, true));
                        }
                        if sanitize {
                            s.note("subscribe", u64::from(main.lock_word().index()));
                        }
                        body(s)
                    }
                }
                Subscription::Lazy => {
                    s.mark_lazy_subscription();
                    let v = body(s)?;
                    self.lazy_subscribe(s)?;
                    Ok(v)
                }
            });
            let status = match r {
                Ok(value) => {
                    s.counters.record(AttemptKind::Speculative);
                    break ExecOutcome { value, nonspeculative: false, attempts };
                }
                Err(status) => {
                    s.counters.record(AttemptKind::Aborted);
                    status
                }
            };

            // Serializing path: group conflicting threads behind the
            // auxiliary lock; the holder rejoins the speculative run.
            if !aux_owner {
                if self.kind == SchemeKind::GroupedScm && self.aux.len() > 1 {
                    let group = match status.conflict_line {
                        Some(l) => {
                            (l as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) as usize % self.aux.len()
                        }
                        // Capacity and explicit aborts carry no conflict
                        // line; spread them round-robin so they do not all
                        // dog-pile on aux[0].
                        None => {
                            self.aux_rr.fetch_add(1, Ordering::Relaxed) as usize % self.aux.len()
                        }
                    };
                    aux = &self.aux[group];
                    aux_idx = group;
                }
                self.aux_traffic[aux_idx].fetch_add(1, Ordering::Relaxed);
                aux.acquire(s).expect("aux acquire cannot abort");
                aux_owner = true;
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
                let value = self.run_locked(s, body);
                s.counters.record(AttemptKind::NonSpeculative);
                break ExecOutcome { value, nonspeculative: true, attempts: attempts + 1 };
            }
            self.backoff_wait(s, attempts);
        };
        if aux_owner {
            aux.release(s).expect("aux release cannot abort");
        }
        outcome
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Subscription {
    Eager,
    Lazy,
}
