//! The analysis pipeline and end-to-end sanitize mode.
//!
//! [`analyze`] is the one path every finished run takes, whether it is a
//! sanitized cell, an explorer execution or a known-bad fixture: it reads
//! the run's sanitizer log, the one event stream, once and runs the
//! race, opacity and lock-discipline passes over it, then the residual
//! conflict-bit check. A [`Checks`] value says what the run
//! promises: [`Checks::for_scheme`] derives it from a scheme instance,
//! [`Checks::for_lock`] from a bare lock.
//!
//! [`sanitize_run`] runs one scheme × lock cell of the paper's matrix
//! with the sanitizer log enabled and analyzes it.
//!
//! The workload is a shared counter plus a small array of contended
//! words, all mutated through [`elision_core::Scheme::execute`] — small
//! enough that the full word-level log fits comfortably, contended
//! enough that every path (speculation, retries, fallback, SCM
//! auxiliary serialization) is exercised. The run uses scheduler window
//! 0, the strict deterministic interleaving the artifact gates pin. At
//! any window the sanitizer log's append order is the execution order
//! (see [`elision_htm::SanLog`]), which all three passes rely on.
//!
//! Note the cell runs under [`SchemeConfig::paper`] plus the sanitize
//! flag — deliberately *without* the speculation circuit breaker: the
//! breaker's lockdown path takes the main lock directly (bypassing the
//! SCM auxiliary handshake), which is a deliberate liveness/discipline
//! trade-off the lint pass would rightly flag.

use crate::lint::{lint_trace, LintConfig};
use crate::opacity::{check_opacity, OpacityConfig, OpacityPolicy};
use crate::race::{detect_races, RaceConfig};
use crate::{AccessSite, Finding, LintId};
use elision_core::{make_scheme, LockKind, Scheme, SchemeConfig, SchemeKind};
use elision_htm::{harness, HtmConfig, Memory, MemoryBuilder, SanAccess, VarId};
use elision_sim::FaultPlan;
use std::sync::Arc;

/// Number of contended data words in the workload array.
const TARGETS: usize = 8;

/// One sanitize-mode cell: which scheme/lock to run and how hard.
#[derive(Debug, Clone)]
pub struct SanitizeSpec {
    /// The elision scheme under test.
    pub scheme: SchemeKind,
    /// The main lock family.
    pub lock: LockKind,
    /// Simulated threads.
    pub threads: usize,
    /// Critical sections per thread.
    pub ops_per_thread: usize,
    /// RNG seed (also perturbs the per-thread operation mix).
    pub seed: u64,
    /// HTM behaviour (capacity, spurious aborts, injected HTM faults).
    pub htm: HtmConfig,
    /// Scheduler-level fault plan (preemption, jitter).
    pub faults: FaultPlan,
}

impl SanitizeSpec {
    /// A default cell: 4 threads × 24 ops, deterministic HTM, no faults.
    pub fn new(scheme: SchemeKind, lock: LockKind) -> Self {
        SanitizeSpec {
            scheme,
            lock,
            threads: 4,
            ops_per_thread: 24,
            seed: 0xE11D,
            htm: HtmConfig::deterministic(),
            faults: FaultPlan::none(),
        }
    }
}

/// The outcome of one sanitized cell.
#[derive(Debug)]
pub struct SanReport {
    /// Everything the three passes (plus the residual-bit check) found.
    pub findings: Vec<Finding>,
    /// Sanitizer log entries analysed.
    pub san_events: usize,
    /// Protocol-level events analysed: the log's entries other than
    /// word reads and writes.
    pub trace_events: usize,
    /// Final value of the shared counter.
    pub hot_total: u64,
    /// Sum of the contended array words.
    pub target_sum: u64,
    /// What both totals must equal (`threads * ops_per_thread`).
    pub expected_total: u64,
    /// Simulated makespan in cycles.
    pub makespan: u64,
}

impl SanReport {
    /// True when the workload's arithmetic survived: both totals match.
    pub fn counters_ok(&self) -> bool {
        self.hot_total == self.expected_total && self.target_sum == self.expected_total
    }

    /// True when no pass found anything and the counters add up.
    pub fn clean(&self) -> bool {
        self.findings.is_empty() && self.counters_ok()
    }
}

/// What [`analyze`] checks beyond the race pass and the residual-bit
/// check, which every run gets.
#[derive(Debug)]
pub struct Checks {
    /// The opacity pass's policy and main lock.
    pub opacity: OpacityConfig,
    /// The lock-discipline lints; its `threads` also sizes the race pass.
    pub lint: LintConfig,
}

impl Checks {
    /// The checks a scheme instance run by `threads` threads must pass.
    /// Lazy subscription (SLR) tolerates zombie reads but not zombie
    /// commits; every other scheme promises opacity (see
    /// [`OpacityPolicy`]).
    pub fn for_scheme(scheme: &Scheme, threads: usize) -> Self {
        let kind = scheme.kind();
        let main_lock = Some(scheme.main_lock().lock_word().index());
        let policy = match kind {
            SchemeKind::OptSlr | SchemeKind::SlrScm => OpacityPolicy::Sandboxed,
            _ => OpacityPolicy::Strict,
        };
        Checks {
            opacity: OpacityConfig { policy, main_lock },
            lint: LintConfig {
                require_subscription: kind != SchemeKind::Standard,
                aux_discipline: kind.uses_aux(),
                main_lock,
                aux_locks: scheme.aux_locks().iter().map(|l| l.lock_word().index()).collect(),
                threads,
            },
        }
    }

    /// The checks for a bare lock whose word is `word`, with no auxiliary
    /// locks, run by `threads` threads.
    pub fn for_lock(
        word: VarId,
        policy: OpacityPolicy,
        require_subscription: bool,
        threads: usize,
    ) -> Self {
        let main_lock = Some(word.index());
        Checks {
            opacity: OpacityConfig { policy, main_lock },
            lint: LintConfig {
                require_subscription,
                aux_discipline: false,
                main_lock,
                aux_locks: Vec::new(),
                threads,
            },
        }
    }
}

/// Run every pass over one finished run: check `mem`'s sanitizer log
/// for races, opacity and lock discipline, and `mem`'s conflict bitmap
/// for bits that survived quiescence (reported at time `makespan`).
///
/// # Panics
///
/// Panics if `mem` was built without the sanitizer.
pub fn analyze(checks: &Checks, mem: &Memory, makespan: u64) -> Vec<Finding> {
    let san = mem.san_log().expect("analyze needs a run with the sanitizer enabled");
    let (mut findings, logged) = san.with_events(|events| {
        let mut findings = detect_races(&RaceConfig::of(mem, checks.lint.threads), events);
        findings.extend(check_opacity(&checks.opacity, san.initial_values(), events));
        findings.extend(lint_trace(&checks.lint, events));
        (findings, events.len())
    });

    // Post-run leak check: after quiescence every conflict-bitmap bit
    // must be cleared.
    for line in mem.residual_lines() {
        findings.push(Finding {
            lint: LintId::ResidualConflictBits,
            message: format!("line {} kept reader/writer bits after quiescence", line.raw()),
            sites: vec![AccessSite {
                tid: 0,
                var: None,
                line: Some(line.raw()),
                time: makespan,
                seq: logged,
            }],
        });
    }
    findings
}

/// Run one cell under the sanitizer and [`analyze`] it.
pub fn sanitize_run(spec: &SanitizeSpec) -> SanReport {
    let mut b = MemoryBuilder::new();
    b.enable_sanitizer();
    let mut cfg = SchemeConfig::paper();
    cfg.sanitize = true;
    let scheme = make_scheme(spec.scheme, spec.lock, cfg, &mut b, spec.threads);
    let hot = b.alloc_isolated(0);
    let targets: Vec<VarId> = (0..TARGETS).map(|_| b.alloc_isolated(0)).collect();
    let mem = Arc::new(b.freeze(spec.threads));

    let (_, makespan, _faults) = {
        let scheme = Arc::clone(&scheme);
        let targets = targets.clone();
        let ops = spec.ops_per_thread;
        harness::run_arc_faulted(
            spec.threads,
            0, // strict window, as the artifact gates pin
            spec.htm,
            spec.seed,
            spec.faults,
            Arc::clone(&mem),
            move |s| {
                for _ in 0..ops {
                    let t = s.rng.below(TARGETS as u64) as usize;
                    let target = targets[t];
                    scheme.execute(s, |s| {
                        let h = s.load(hot)?;
                        let v = s.load(target)?;
                        s.store(target, v + 1)?;
                        s.store(hot, h + 1)?;
                        Ok(())
                    });
                }
            },
        )
    };

    let findings = analyze(&Checks::for_scheme(&scheme, spec.threads), &mem, makespan);
    let (san_events, trace_events) =
        mem.san_log().expect("sanitizer enabled above").with_events(|events| {
            let protocol = events
                .iter()
                .filter(|e| !matches!(e.access, SanAccess::Read { .. } | SanAccess::Write { .. }))
                .count();
            (events.len(), protocol)
        });
    let expected = (spec.threads * spec.ops_per_thread) as u64;
    SanReport {
        findings,
        san_events,
        trace_events,
        hot_total: mem.read_direct(hot),
        target_sum: targets.iter().map(|&t| mem.read_direct(t)).sum(),
        expected_total: expected,
        makespan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_clean(scheme: SchemeKind, lock: LockKind) {
        let report = sanitize_run(&SanitizeSpec::new(scheme, lock));
        assert!(report.findings.is_empty(), "{scheme:?}/{lock:?}: {:#?}", report.findings);
        assert!(
            report.counters_ok(),
            "{scheme:?}/{lock:?}: hot {} targets {} expected {}",
            report.hot_total,
            report.target_sum,
            report.expected_total
        );
        assert!(report.san_events > 0, "sanitizer log was empty");
        assert!(report.trace_events > 0, "no protocol events were logged");
    }

    #[test]
    fn hle_over_mcs_is_clean() {
        assert_clean(SchemeKind::Hle, LockKind::Mcs);
    }

    #[test]
    fn opt_slr_over_ttas_is_clean() {
        assert_clean(SchemeKind::OptSlr, LockKind::Ttas);
    }

    #[test]
    fn slr_scm_over_ticket_is_clean() {
        assert_clean(SchemeKind::SlrScm, LockKind::Ticket);
    }

    #[test]
    fn standard_over_clh_is_clean() {
        assert_clean(SchemeKind::Standard, LockKind::Clh);
    }
}
