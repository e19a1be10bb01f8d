//! Vector-clock happens-before data-race detection over the sanitizer
//! log.
//!
//! The happens-before model mirrors how ordering is actually established
//! in the simulated stack:
//!
//! * **Commit edges.** Every transaction commit publishes its vector
//!   clock into a global commit clock `C_E` (a commit publishes in one
//!   atomic step of the serialized execution). Every later access —
//!   plain or the commit of a later transaction — joins `C_E`, so
//!   anything a committed transaction did happens-before everything
//!   that follows a commit. (Plain accesses join `C_E` but do *not*
//!   publish into it; a plain write is ordered only by lock edges.)
//! * **Lock edges.** Each lock-line word `v` carries a clock `C_v`.
//!   A plain *write* (or RMW) of `v` is a release: it joins and then
//!   publishes into `C_v` and ticks the thread's clock. A plain *read*
//!   of `v` is an acquire: it joins `C_v` only. A transactional read of
//!   `v` (the SLR/SCM/HLE subscription read) joins `C_v` at commit
//!   time; a transactional publish of `v` publishes into `C_v`.
//! * **Sandboxing.** Accesses of aborted transactions are discarded —
//!   they were never visible.
//!
//! Data (non-lock-line) accesses are race-checked: plain accesses
//! immediately after their `C_E` join; transactional reads/publishes at
//! commit time, after all joins. Lock-line words are synchronization,
//! never reported as races.
//!
//! Known conservatism: because plain accesses join `C_E`, a race where
//! the plain access *follows* an unrelated commit that raced with it is
//! masked. Plain-vs-plain races and plain-write-then-commit races are
//! caught; this asymmetry is the price of modelling the total order of
//! commit publications (which the serialized execution really imposes)
//! without logging it.

use crate::{AccessSite, Finding, LintId};
use elision_htm::{Memory, SanAccess, SanEvent};
use std::collections::HashSet;

/// Static facts the race detector needs about the run.
#[derive(Debug, Clone)]
pub struct RaceConfig {
    /// Number of simulated threads.
    pub threads: usize,
    /// Words per cache line (maps a word index to its line).
    pub words_per_line: u32,
    /// `lock_lines[line]` is true when the line holds lock words
    /// (synchronization state, exempt from race checking).
    pub lock_lines: Vec<bool>,
}

impl RaceConfig {
    /// The configuration describing `mem`'s layout, for a run of
    /// `threads` simulated threads.
    pub fn of(mem: &Memory, threads: usize) -> Self {
        RaceConfig {
            threads,
            words_per_line: mem.words_per_line() as u32,
            lock_lines: (0..mem.line_count()).map(|l| mem.is_lock_line(l as u32)).collect(),
        }
    }

    fn is_lock_word(&self, var: u32) -> bool {
        let line = (var / self.words_per_line) as usize;
        self.lock_lines.get(line).copied().unwrap_or(false)
    }

    fn line_of(&self, var: u32) -> u32 {
        var / self.words_per_line
    }
}

type Vc = Vec<u64>;

fn join(into: &mut Vc, other: &Vc) {
    for (a, b) in into.iter_mut().zip(other) {
        *a = (*a).max(*b);
    }
}

/// Per-word state, kept in first-touch order and found through a
/// word → slot table that grows to the largest word seen.
struct WordTable<T> {
    /// `slot_of[var]` indexes `states`; [`WordTable::NONE`] when `var`
    /// has no state yet.
    slot_of: Vec<u32>,
    states: Vec<T>,
}

impl<T> WordTable<T> {
    const NONE: u32 = u32::MAX;

    fn new() -> Self {
        WordTable { slot_of: Vec::new(), states: Vec::new() }
    }

    fn get(&self, var: u32) -> Option<&T> {
        let slot = *self.slot_of.get(var as usize)?;
        self.states.get(slot as usize)
    }

    fn get_or_insert_with(&mut self, var: u32, make: impl FnOnce() -> T) -> &mut T {
        let at = var as usize;
        if at >= self.slot_of.len() {
            self.slot_of.resize(at + 1, Self::NONE);
        }
        if self.slot_of[at] == Self::NONE {
            self.slot_of[at] = u32::try_from(self.states.len()).expect("word slots fit u32");
            self.states.push(make());
        }
        &mut self.states[self.slot_of[at] as usize]
    }
}

/// Last-access state of one data word.
#[derive(Debug, Default)]
struct VarState {
    /// Last write: `(tid, writer clock, site)`.
    last_write: Option<(usize, u64, AccessSite)>,
    /// Reads since the last write, at most one per thread (its latest),
    /// in thread-id order: `(tid, reader clock, site)`.
    reads: Vec<(usize, u64, AccessSite)>,
}

/// One transaction's buffered accesses, held until commit (then ordered)
/// or abort (then discarded — the sandbox made them invisible).
#[derive(Debug, Default)]
struct TxnBuf {
    /// Data-word reads, in program order.
    reads: Vec<(u32, AccessSite)>,
    /// Lock-line words read (subscriptions): joined at commit.
    sub_reads: Vec<u32>,
}

struct Detector<'a> {
    cfg: &'a RaceConfig,
    /// Per-thread vector clock.
    vc: Vec<Vc>,
    /// Global commit clock.
    commit_clock: Vc,
    /// Per lock-line word clock.
    lock_clocks: WordTable<Vc>,
    vars: WordTable<VarState>,
    txn: Vec<Option<TxnBuf>>,
    findings: Vec<Finding>,
    /// Dedup: one report per (var, tid, tid) pair.
    seen: HashSet<(u32, usize, usize)>,
}

impl<'a> Detector<'a> {
    fn new(cfg: &'a RaceConfig) -> Self {
        let mut vc = vec![vec![0; cfg.threads]; cfg.threads];
        for (t, clock) in vc.iter_mut().enumerate() {
            clock[t] = 1;
        }
        Detector {
            cfg,
            vc,
            commit_clock: vec![0; cfg.threads],
            lock_clocks: WordTable::new(),
            vars: WordTable::new(),
            txn: (0..cfg.threads).map(|_| None).collect(),
            findings: Vec::new(),
            seen: HashSet::new(),
        }
    }

    fn report(&mut self, var: u32, kind: &str, a: AccessSite, b: AccessSite) {
        let key = (var, a.tid.min(b.tid), a.tid.max(b.tid));
        if self.seen.insert(key) {
            self.findings.push(Finding {
                lint: LintId::DataRace,
                message: format!(
                    "unordered {kind} on var {var} (line {}): t{} then t{}",
                    self.cfg.line_of(var),
                    a.tid,
                    b.tid
                ),
                sites: vec![a, b],
            });
        }
    }

    fn check_read(&mut self, tid: usize, var: u32, site: AccessSite) {
        let clock = &self.vc[tid];
        let state = self.vars.get_or_insert_with(var, VarState::default);
        let racy = state
            .last_write
            .as_ref()
            .filter(|&&(w, wclk, _)| w != tid && clock[w] < wclk)
            .map(|&(_, _, wsite)| wsite);
        let read = (tid, clock[tid], site);
        match state.reads.binary_search_by_key(&tid, |r| r.0) {
            Ok(at) => state.reads[at] = read,
            Err(at) => state.reads.insert(at, read),
        }
        if let Some(wsite) = racy {
            self.report(var, "write/read", wsite, site);
        }
    }

    fn check_write(&mut self, tid: usize, var: u32, site: AccessSite) {
        let clock = &self.vc[tid];
        let state = self.vars.get_or_insert_with(var, VarState::default);
        let mut racy: Vec<(AccessSite, &'static str)> = Vec::new();
        if let Some(&(w, wclk, wsite)) = state.last_write.as_ref() {
            if w != tid && clock[w] < wclk {
                racy.push((wsite, "write/write"));
            }
        }
        for &(r, rclk, rsite) in &state.reads {
            if r != tid && clock[r] < rclk {
                racy.push((rsite, "read/write"));
            }
        }
        state.last_write = Some((tid, clock[tid], site));
        state.reads.clear();
        for (prev, kind) in racy {
            self.report(var, kind, prev, site);
        }
    }

    /// Plain access to a lock-line word: acquire on read, release on
    /// write (callers pass `write = true` for stores and RMW halves).
    fn lock_word_sync(&mut self, tid: usize, var: u32, write: bool) {
        let threads = self.cfg.threads;
        let clock = self.lock_clocks.get_or_insert_with(var, || vec![0; threads]);
        join(&mut self.vc[tid], clock);
        if write {
            join(clock, &self.vc[tid]);
            self.vc[tid][tid] += 1;
        }
    }

    fn commit(&mut self, tid: usize, publishes: &[(u32, u64, AccessSite)]) {
        let Some(buf) = self.txn[tid].take() else { return };
        join(&mut self.vc[tid], &self.commit_clock);
        for &var in &buf.sub_reads {
            if let Some(clock) = self.lock_clocks.get(var) {
                join(&mut self.vc[tid], clock);
            }
        }
        for &(var, site) in &buf.reads {
            self.check_read(tid, var, site);
        }
        for &(var, _, site) in publishes {
            if self.cfg.is_lock_word(var) {
                let threads = self.cfg.threads;
                let clock = self.lock_clocks.get_or_insert_with(var, || vec![0; threads]);
                join(clock, &self.vc[tid]);
            } else {
                self.check_write(tid, var, site);
            }
        }
        join(&mut self.commit_clock, &self.vc[tid]);
        self.vc[tid][tid] += 1;
    }
}

fn site_of(ev: &SanEvent, seq: usize, cfg: &RaceConfig, var: Option<u32>) -> AccessSite {
    AccessSite { tid: ev.tid, var, line: var.map(|v| cfg.line_of(v)), time: ev.time, seq }
}

/// Run happens-before race detection over a sanitizer log.
///
/// The detector trusts the log's order to be the execution order, which
/// the simulator guarantees at every scheduler window.
pub fn detect_races(cfg: &RaceConfig, events: &[SanEvent]) -> Vec<Finding> {
    let mut d = Detector::new(cfg);
    // A committing transaction's publishes directly precede its
    // TxnCommit event; gather them so commit() can order the whole
    // batch atomically (as the serialized execution really does).
    let mut pending_pub: Vec<Vec<(u32, u64, AccessSite)>> =
        (0..cfg.threads).map(|_| Vec::new()).collect();
    for (seq, ev) in events.iter().enumerate() {
        let tid = ev.tid;
        match ev.access {
            SanAccess::TxnBegin => {
                d.txn[tid] = Some(TxnBuf::default());
                pending_pub[tid].clear();
            }
            SanAccess::TxnAbort { .. } => {
                // Sandboxed: nothing the transaction did was visible.
                d.txn[tid] = None;
                pending_pub[tid].clear();
            }
            SanAccess::TxnCommit => {
                let publishes = std::mem::take(&mut pending_pub[tid]);
                d.commit(tid, &publishes);
            }
            SanAccess::Read { var, txn, .. } => {
                let idx = var.index();
                let site = site_of(ev, seq, cfg, Some(idx));
                if txn {
                    if let Some(buf) = d.txn[tid].as_mut() {
                        if cfg.is_lock_word(idx) {
                            buf.sub_reads.push(idx);
                        } else {
                            buf.reads.push((idx, site));
                        }
                    }
                } else if cfg.is_lock_word(idx) {
                    d.lock_word_sync(tid, idx, false);
                } else {
                    join(&mut d.vc[tid], &d.commit_clock);
                    d.check_read(tid, idx, site);
                }
            }
            SanAccess::Write { var, txn, value } => {
                let idx = var.index();
                let site = site_of(ev, seq, cfg, Some(idx));
                if txn {
                    pending_pub[tid].push((idx, value, site));
                } else if cfg.is_lock_word(idx) {
                    d.lock_word_sync(tid, idx, true);
                } else {
                    join(&mut d.vc[tid], &d.commit_clock);
                    d.check_write(tid, idx, site);
                }
            }
            SanAccess::LockAcquire { .. }
            | SanAccess::LockRelease { .. }
            | SanAccess::Subscribe { .. } => {}
        }
    }
    d.findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use elision_htm::VarId;
    use elision_sim::AbortCause;

    const LOCK: u32 = 0; // line 0 is the lock line
    const X: u32 = 8; // line 1 is data

    fn cfg() -> RaceConfig {
        RaceConfig { threads: 2, words_per_line: 8, lock_lines: vec![true, false] }
    }

    fn ev(tid: usize, time: u64, access: SanAccess) -> SanEvent {
        SanEvent { tid, time, access }
    }

    fn read(tid: usize, time: u64, var: u32, txn: bool) -> SanEvent {
        ev(tid, time, SanAccess::Read { var: VarId::from_index(var), value: 0, txn })
    }

    fn write(tid: usize, time: u64, var: u32, txn: bool) -> SanEvent {
        ev(tid, time, SanAccess::Write { var: VarId::from_index(var), value: 1, txn })
    }

    #[test]
    fn plain_unordered_write_read_races() {
        let events = vec![write(0, 10, X, false), read(1, 20, X, false)];
        let f = detect_races(&cfg(), &events);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, LintId::DataRace);
        assert_eq!(f[0].sites.len(), 2);
        assert_eq!((f[0].sites[0].tid, f[0].sites[1].tid), (0, 1));
        assert_eq!(f[0].sites[1].seq, 1);
    }

    #[test]
    fn lock_handoff_orders_plain_accesses() {
        // t0: acquire (RMW on lock word), write X, release (store).
        // t1: acquire, read X -- ordered through the lock clock.
        let events = vec![
            read(0, 1, LOCK, false),
            write(0, 1, LOCK, false), // t0 acquire = RMW
            write(0, 2, X, false),
            write(0, 3, LOCK, false), // t0 release
            read(1, 4, LOCK, false),
            write(1, 4, LOCK, false), // t1 acquire
            read(1, 5, X, false),
        ];
        assert!(detect_races(&cfg(), &events).is_empty());
    }

    #[test]
    fn txn_read_of_plain_write_races_without_subscription() {
        // The broken-SLR shape: t0 writes X under the lock, t1's
        // transaction reads X and commits without a subscription read.
        let events = vec![
            read(0, 1, LOCK, false),
            write(0, 1, LOCK, false),
            write(0, 2, X, false),
            ev(1, 3, SanAccess::TxnBegin),
            read(1, 4, X, true),
            ev(1, 5, SanAccess::TxnCommit),
        ];
        let f = detect_races(&cfg(), &events);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].lint, LintId::DataRace);
    }

    #[test]
    fn subscription_read_orders_txn_after_lock_release() {
        // Same shape but the transaction subscribes (reads the lock
        // word) after t0's release: the lock clock orders everything.
        let events = vec![
            read(0, 1, LOCK, false),
            write(0, 1, LOCK, false),
            write(0, 2, X, false),
            write(0, 3, LOCK, false), // release
            ev(1, 4, SanAccess::TxnBegin),
            read(1, 5, X, true),
            read(1, 6, LOCK, true), // lazy subscription
            ev(1, 7, SanAccess::TxnCommit),
        ];
        assert!(detect_races(&cfg(), &events).is_empty());
    }

    #[test]
    fn committed_txn_orders_later_plain_access() {
        let events = vec![
            ev(0, 1, SanAccess::TxnBegin),
            read(0, 2, X, true),
            write(0, 3, X, true), // publish
            ev(0, 3, SanAccess::TxnCommit),
            read(1, 9, X, false), // joins the commit clock: ordered
        ];
        assert!(detect_races(&cfg(), &events).is_empty());
    }

    #[test]
    fn plain_write_then_commit_races() {
        let events = vec![
            write(0, 1, X, false), // plain, no lock held
            ev(1, 2, SanAccess::TxnBegin),
            write(1, 3, X, true),
            ev(1, 3, SanAccess::TxnCommit),
        ];
        let f = detect_races(&cfg(), &events);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, LintId::DataRace);
    }

    #[test]
    fn aborted_txn_accesses_are_discarded() {
        let events = vec![
            ev(1, 1, SanAccess::TxnBegin),
            read(1, 2, X, true),
            ev(1, 3, SanAccess::TxnAbort { cause: AbortCause::DataConflict, line: None }),
            write(0, 9, X, false),
        ];
        assert!(detect_races(&cfg(), &events).is_empty());
    }

    #[test]
    fn read_write_races_are_reported_in_reader_order() {
        // t0 and t1 read X, then t2 writes it: two races, reported in
        // reader-tid order on every call.
        let cfg = RaceConfig { threads: 3, words_per_line: 8, lock_lines: vec![true, false] };
        let events = vec![read(0, 1, X, false), read(1, 2, X, false), write(2, 3, X, false)];
        let first = detect_races(&cfg, &events);
        let pairs: Vec<(usize, usize)> =
            first.iter().map(|f| (f.sites[0].tid, f.sites[1].tid)).collect();
        assert_eq!(pairs, vec![(0, 2), (1, 2)]);
        for _ in 0..64 {
            assert_eq!(detect_races(&cfg, &events), first);
        }
    }

    #[test]
    fn duplicate_pairs_reported_once() {
        let events = vec![
            write(0, 1, X, false),
            read(1, 2, X, false),
            read(1, 3, X, false),
            read(1, 4, X, false),
        ];
        assert_eq!(detect_races(&cfg(), &events).len(), 1);
    }
}
