//! [`Strand`]: a simulated thread's view of shared memory, with the
//! transaction machinery (begin / commit / abort, read & write sets,
//! write buffering, HLE elision) layered on top.
//!
//! The same critical-section code runs speculatively or non-speculatively
//! depending on whether a transaction is active — mirroring how identical
//! machine code runs under real HLE. Every access returns
//! [`TxResult`]; outside a transaction operations never fail, inside one
//! they return `Err(Abort)` once the transaction has been doomed, after
//! unwinding it (clearing conflict bitmaps and charging the abort
//! penalty).

use crate::abort::{codes, Abort, AbortStatus, TxResult};
use crate::config::HtmConfig;
use crate::lineset::{LineSet, WriteBuf};
use crate::memory::{HwSubscription, LineId, Memory, VarId};
use crate::sanitize::SanAccess;
use elision_sim::{DetRng, OpCounters, SimHandle, SlotSeries};
use std::sync::Arc;

/// State of one in-flight transaction.
///
/// The containers are capacity-bounded sorted vectors (see
/// [`crate::lineset`]) sized by the configured set budgets; the whole
/// descriptor is stashed as scratch on commit/abort and reused by the
/// next `begin()`, so attempts allocate nothing in steady state.
#[derive(Debug)]
struct Txn {
    epoch: u64,
    read_lines: LineSet,
    write_lines: LineSet,
    /// Speculative write buffer: values invisible to peers until commit.
    wbuf: WriteBuf,
    /// Elided (XACQUIRE'd) variables: their buffered value is a local
    /// illusion, never published, and must be restored by commit time.
    elided: Vec<(VarId, u64)>,
    /// Remaining accesses until an injected spurious abort fires.
    spurious_fuse: Option<u32>,
    /// The transaction declared lazy subscription (arXiv 1407.6968's
    /// proposed mode bit): hardware dangerous-instruction screening
    /// applies when [`HtmConfig::dangerous_abort`] is also set.
    lazy_subscribed: bool,
    /// Registered hardware commit-time subscription: commit evaluates
    /// the descriptor against committed state, atomically with
    /// publication, and refuses to commit while the lock is held.
    hw_sub: Option<HwSubscription>,
    /// Lines an unfenced subscription probe sampled. Pure model-checker
    /// instrumentation: the commit's *findings* (who holds the lock when
    /// it publishes) depend on these lines even though its outcome does
    /// not, so they join the commit step's footprint — without them the
    /// explorer's dependence relation would never reorder a peer's lock
    /// acquisition into the probe-to-commit window, hiding exactly the
    /// race this probe exists to exhibit.
    probed_lines: Vec<u32>,
}

impl Txn {
    fn is_elided(&self, var: VarId) -> bool {
        self.elided.iter().any(|&(v, _)| v == var)
    }
}

/// A simulated thread's handle onto shared memory and the HTM.
///
/// One `Strand` per simulated thread; it owns the thread's transaction
/// descriptor, its deterministic RNG streams and its counters. All
/// simulated work — including pure compute and busy-wait iterations — must
/// go through a `Strand` (or directly through [`SimHandle::advance`]) so
/// logical time advances.
///
/// Every abort leaves one record. The strand classifies it into an
/// [`elision_sim::AbortCause`] where it builds the [`AbortStatus`], and
/// on unwind tallies that cause once into `counters.causes` and the slot
/// series and appends it, with the conflict line, to the sanitizer log.
/// Begins and commits are read from that log.
#[derive(Debug)]
pub struct Strand {
    mem: Arc<Memory>,
    sim: SimHandle,
    tid: usize,
    cfg: HtmConfig,
    txn: Option<Txn>,
    /// Scratch arena: the previous attempt's (cleared) transaction
    /// descriptor, reused by the next `begin()` so the per-attempt cost is
    /// four `clear()`s instead of four allocations.
    spare: Option<Txn>,
    last_abort: AbortStatus,
    htm_rng: DetRng,
    /// Deterministic RNG stream for workload decisions (key choices,
    /// operation mixes). Separate from the internal spurious-abort stream
    /// so workloads draw identical sequences across schemes.
    pub rng: DetRng,
    /// Deterministic RNG stream reserved for retry/backoff jitter in the
    /// elision schemes. Separate from both the workload and HTM streams so
    /// enabling backoff never perturbs workload draws or abort injection.
    pub retry_rng: DetRng,
    /// The paper's S/A/N operation counters, recorded by elision schemes.
    pub counters: OpCounters,
    /// Optional per-time-slot series: every abort lands here by cause
    /// (complementing the aggregate histogram in `counters.causes`), and
    /// the workload records its completions into the same slots.
    pub slots: Option<SlotSeries>,
}

impl Strand {
    /// Create the strand for the simulated thread behind `sim`.
    ///
    /// `seed` drives both the workload RNG stream and the (independent)
    /// spurious-abort stream.
    ///
    /// # Panics
    ///
    /// Panics if the handle's thread id is out of range for `mem`.
    pub fn new(mem: Arc<Memory>, sim: SimHandle, cfg: HtmConfig, seed: u64) -> Self {
        let tid = sim.id();
        assert!(tid < mem.threads(), "thread id {tid} out of range for memory");
        Strand {
            mem,
            sim,
            tid,
            cfg,
            txn: None,
            spare: None,
            last_abort: AbortStatus::conflict(),
            htm_rng: DetRng::new(seed, 1_000_000 + tid as u64),
            rng: DetRng::new(seed, tid as u64),
            retry_rng: DetRng::new(seed, 2_000_000 + tid as u64),
            counters: OpCounters::new(),
            slots: None,
        }
    }

    /// Append to the memory's sanitizer log, if one is attached. Never
    /// advances the clock or draws RNG state, so sanitized runs replay
    /// the exact schedule of unsanitized ones.
    fn san(&self, access: SanAccess) {
        if let Some(log) = self.mem.san_log() {
            log.push(self.tid, self.sim.now(), access);
        }
    }

    /// Record a non-speculative lock acquisition (called by lock
    /// implementations once the lock is held). `word` is the lock's
    /// primary word — its identity for the sanitizer log.
    pub fn note_lock_acquire(&mut self, word: VarId) {
        self.san(SanAccess::LockAcquire { word });
    }

    /// Record a non-speculative lock release (called by lock
    /// implementations after the lock is released).
    pub fn note_lock_release(&mut self, word: VarId) {
        self.san(SanAccess::LockRelease { word });
    }

    /// Record that the running attempt subscribed to the lock whose
    /// primary word is `word` (called by the elision schemes once the
    /// subscription holds).
    pub fn note_subscribe(&mut self, word: VarId) {
        self.san(SanAccess::Subscribe { word });
    }

    /// The simulated thread id.
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Number of simulated threads in the run.
    pub fn threads(&self) -> usize {
        self.mem.threads()
    }

    /// The thread's logical clock.
    pub fn now(&self) -> u64 {
        self.sim.now()
    }

    /// The scheduler handle backing this strand. The model checker uses it
    /// to read controlled-run step counts for history timestamps.
    pub fn sim(&self) -> &SimHandle {
        &self.sim
    }

    /// The shared memory.
    pub fn memory(&self) -> &Arc<Memory> {
        &self.mem
    }

    /// The HTM configuration.
    pub fn config(&self) -> &HtmConfig {
        &self.cfg
    }

    /// Whether a transaction is currently active (the `XTEST` of the
    /// paper's pseudo-code).
    pub fn in_txn(&self) -> bool {
        self.txn.is_some()
    }

    /// The status of the most recent abort.
    pub fn last_abort(&self) -> AbortStatus {
        self.last_abort
    }

    // ------------------------------------------------------------------
    // transaction lifecycle
    // ------------------------------------------------------------------

    /// Begin a transaction (`XBEGIN`).
    ///
    /// # Panics
    ///
    /// Panics if a transaction is already active (the schemes never nest
    /// `XBEGIN`; HLE-in-RTM nesting is expressed via [`Strand::elide_rmw`]
    /// inside one transaction, matching TSX's flat nesting).
    pub fn begin(&mut self) {
        assert!(self.txn.is_none(), "flat nesting: begin inside a transaction");
        self.sim.advance(self.cfg.cost.txn_begin);
        let epoch = self.mem.begin_epoch(self.tid);
        let spurious_fuse = if self.htm_rng.chance(self.cfg.spurious_begin) {
            Some(1 + self.htm_rng.below(24) as u32)
        } else {
            None
        };
        self.san(SanAccess::TxnBegin);
        // Reuse the scratch descriptor (its containers were cleared when
        // stashed); the first attempt of a strand's life allocates it.
        let mut txn = self.spare.take().unwrap_or_else(|| Txn {
            epoch: 0,
            read_lines: LineSet::with_capacity(self.cfg.read_set_lines),
            write_lines: LineSet::with_capacity(self.cfg.write_set_lines),
            wbuf: WriteBuf::default(),
            elided: Vec::new(),
            spurious_fuse: None,
            lazy_subscribed: false,
            hw_sub: None,
            probed_lines: Vec::new(),
        });
        txn.epoch = epoch;
        txn.spurious_fuse = spurious_fuse;
        self.txn = Some(txn);
    }

    /// Return a finished transaction descriptor to the scratch arena,
    /// clearing its containers but keeping their allocations.
    fn stash(&mut self, mut txn: Txn) {
        txn.read_lines.clear();
        txn.write_lines.clear();
        txn.wbuf.clear();
        txn.elided.clear();
        txn.lazy_subscribed = false;
        txn.hw_sub = None;
        txn.probed_lines.clear();
        self.spare = Some(txn);
    }

    /// Commit the active transaction (`XEND`), publishing buffered writes.
    ///
    /// # Errors
    ///
    /// Returns the abort status if the transaction was doomed by a
    /// conflict, hit an injected spurious abort, or failed the HLE
    /// restore check. The transaction is fully unwound in that case.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is active.
    pub fn commit(&mut self) -> Result<(), AbortStatus> {
        assert!(self.txn.is_some(), "commit outside a transaction");
        self.sim.advance(self.cfg.cost.txn_commit);
        if self.sim.controlled() {
            // Model-checker footprint: the commit outcome depends on the
            // doom flag, which a peer write to *any* read- or write-set
            // line flips, and publication writes every write-set line —
            // so the whole sets are part of this step's footprint. Line
            // sets iterate in ascending order, matching the sort the old
            // hash containers needed here.
            let txn = self.txn.as_ref().expect("checked above");
            for &l in txn.read_lines.as_slice() {
                self.sim.note_access(l, false);
            }
            for &l in txn.write_lines.as_slice() {
                self.sim.note_access(l, true);
            }
            // A registered hardware subscription makes the commit verdict
            // depend on the monitored lock words too: without this note
            // the explorer would never reorder a commit against a peer's
            // lock acquisition.
            if let Some(sub) = txn.hw_sub.as_ref() {
                for line in self.mem.subscription_lines(sub) {
                    self.sim.note_access(line.0, false);
                }
            }
            // Unfenced probes likewise: whether the commit publishes
            // while the lock is held is a property of these lines, so
            // reorderings against them must be explored (see
            // `Txn::probed_lines`).
            for &l in &txn.probed_lines {
                self.sim.note_access(l, false);
            }
        }
        if let Err(Abort) = self.health_check() {
            return Err(self.last_abort);
        }
        // HLE restore check: every elided variable must have been restored
        // to its pre-acquire value, else the hardware cannot elide.
        let restore_ok = {
            let txn = self.txn.as_ref().expect("checked above");
            txn.elided.iter().all(|&(var, original)| txn.wbuf.get(var) == Some(original))
        };
        if !restore_ok {
            self.unwind(AbortStatus::hle_restore());
            return Err(self.last_abort);
        }
        // Elided values are an illusion: drop them instead of publishing.
        {
            let txn = self.txn.as_mut().expect("checked above");
            for i in 0..txn.elided.len() {
                let var = txn.elided[i].0;
                txn.wbuf.remove(var);
            }
        }
        // Re-check the doom flag, then make all buffered writes visible,
        // aborting every peer that read or speculatively wrote the
        // published lines. Nothing here advances the clock, so no peer
        // runs in between: the whole commit is one atomic step against
        // non-transactional writes and other commits.
        let mut subscription_held = false;
        let doomed_at_last_moment = {
            let txn = self.txn.as_ref().expect("checked above");
            if self.mem.is_doomed(self.tid, txn.epoch) {
                true
            } else if txn.hw_sub.as_ref().is_some_and(|sub| !self.mem.subscription_free(sub)) {
                // The hardware commit-time subscription (arXiv 1407.6968)
                // found the lock held. Evaluated on committed state in the
                // same atomic step, the verdict is atomic with publication:
                // there is no check-to-commit window, and a zombie's
                // buffered wild store cannot fool it.
                subscription_held = true;
                false
            } else {
                if let Some(sub) = txn.hw_sub.as_ref() {
                    // The free verdict was computed from these words
                    // atomically with publication: log the reads so the
                    // ordering they establish (the holder's release
                    // happens-before this commit) is visible to the
                    // analysis passes, exactly as the software
                    // subscription's read-set load would be.
                    match sub {
                        HwSubscription::ValueIs { word, .. }
                        | HwSubscription::IndirectValueIs { ptr: word, .. } => {
                            let v = self.mem.raw_load(*word);
                            self.san(SanAccess::Read { var: *word, value: v, txn: true });
                        }
                        HwSubscription::WordsEqual { a, b } => {
                            let va = self.mem.raw_load(*a);
                            self.san(SanAccess::Read { var: *a, value: va, txn: true });
                            let vb = self.mem.raw_load(*b);
                            self.san(SanAccess::Read { var: *b, value: vb, txn: true });
                        }
                    }
                }
                // Publication happens in VarId order — the write buffer is
                // sorted by variable index — keeping the peer-dooming
                // order (hence the best-effort conflict-line attribution)
                // and the sanitizer log order deterministic.
                for (var, val) in txn.wbuf.iter() {
                    self.mem.raw_store(var, val);
                    let line = self.mem.line_of(var);
                    let peers = self.mem.readers_of(line) | self.mem.writers_of(line);
                    self.mem.doom_bitmap(peers, self.tid, line);
                    self.san(SanAccess::Write { var, value: val, txn: true });
                }
                self.san(SanAccess::TxnCommit);
                false
            }
        };
        if doomed_at_last_moment {
            self.unwind(AbortStatus::conflict());
            return Err(self.last_abort);
        }
        if subscription_held {
            self.unwind(AbortStatus::explicit(codes::SUBSCRIPTION, true));
            return Err(self.last_abort);
        }
        // Success: retire the epoch first so stale dooms become no-ops,
        // then clear the conflict bitmaps.
        self.mem.end_epoch(self.tid);
        let txn = self.txn.take().expect("checked above");
        for &l in txn.read_lines.as_slice() {
            self.mem.clear_reader(LineId(l), self.tid);
        }
        for &l in txn.write_lines.as_slice() {
            self.mem.clear_writer(LineId(l), self.tid);
        }
        self.stash(txn);
        Ok(())
    }

    /// Explicitly abort the active transaction (`XABORT code`), unwinding
    /// it. `retry` is the hint placed in the abort status.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is active.
    pub fn xabort(&mut self, code: u8, retry: bool) -> Abort {
        assert!(self.txn.is_some(), "xabort outside a transaction");
        self.unwind(AbortStatus::explicit(code, retry));
        Abort
    }

    /// Declare the active transaction lazily subscribed — the mode bit of
    /// arXiv 1407.6968. With [`HtmConfig::dangerous_abort`] set, any
    /// subsequent non-elided transactional store to a lock-marked line
    /// aborts at the offending access (the "dangerous instruction"
    /// screen). A pure register write: no clock, RNG or log effects.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is active.
    pub fn mark_lazy_subscription(&mut self) {
        self.txn.as_mut().expect("mark_lazy_subscription outside a transaction").lazy_subscribed =
            true;
    }

    /// Register a hardware commit-time subscription: commit will evaluate
    /// `sub` against *committed* state — immune to the transaction's own
    /// write buffer — atomically with publication, and abort with
    /// [`codes::SUBSCRIPTION`] if the lock is held. Implies
    /// [`Strand::mark_lazy_subscription`]. A pure register write.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is active.
    pub fn hw_subscribe(&mut self, sub: HwSubscription) {
        let txn = self.txn.as_mut().expect("hw_subscribe outside a transaction");
        txn.lazy_subscribed = true;
        txn.hw_sub = Some(sub);
    }

    /// Sample a subscription descriptor against committed state *without*
    /// joining the read set — the unfenced commit-time check real lazy
    /// subscription performs on stock hardware. Because the sampled lines
    /// are never tracked, a lock acquisition between this probe and
    /// `commit` goes unnoticed: this is the racy window of
    /// arXiv 1407.6968 §3, modelled faithfully so the explorer can
    /// exhibit it. Returns `true` iff the lock was observed free.
    ///
    /// # Errors
    ///
    /// `Err(Abort)` if the enclosing transaction was doomed meanwhile.
    pub fn probe_subscription(&mut self, sub: &HwSubscription) -> TxResult<bool> {
        self.sim.advance(self.cfg.cost.load);
        if self.txn.is_some() {
            self.health_check()?;
        }
        // The sample reads real lines: give the model checker the honest
        // footprint, and the sanitizer the observed values (a stale
        // sample is exactly what the opacity pass must catch).
        for line in self.mem.subscription_lines(sub) {
            self.sim.note_access(line.0, false);
            if let Some(txn) = self.txn.as_mut() {
                if !txn.probed_lines.contains(&line.0) {
                    txn.probed_lines.push(line.0);
                }
            }
        }
        let in_txn = self.in_txn();
        match sub {
            HwSubscription::ValueIs { word, .. }
            | HwSubscription::IndirectValueIs { ptr: word, .. } => {
                let v = self.mem.raw_load(*word);
                self.san(SanAccess::Read { var: *word, value: v, txn: in_txn });
            }
            HwSubscription::WordsEqual { a, b } => {
                let va = self.mem.raw_load(*a);
                self.san(SanAccess::Read { var: *a, value: va, txn: in_txn });
                let vb = self.mem.raw_load(*b);
                self.san(SanAccess::Read { var: *b, value: vb, txn: in_txn });
            }
        }
        Ok(self.mem.subscription_free(sub))
    }

    /// Run one speculative attempt: begin, execute `body`, commit.
    ///
    /// If `body` returns `Err(Abort)` the transaction has already been
    /// unwound and the abort status is returned. A committed body's value
    /// is returned as `Ok`.
    ///
    /// # Errors
    ///
    /// The abort status of whatever ended the attempt.
    ///
    /// # Panics
    ///
    /// Panics if `body` swallows an abort (returns `Ok` while the
    /// transaction is gone) — critical sections must propagate `Abort`.
    pub fn attempt<R>(
        &mut self,
        body: impl FnOnce(&mut Strand) -> TxResult<R>,
    ) -> Result<R, AbortStatus> {
        self.begin();
        match body(self) {
            Ok(v) => {
                assert!(
                    self.txn.is_some(),
                    "critical section swallowed an abort instead of propagating it"
                );
                self.commit().map(|()| v)
            }
            Err(Abort) => {
                debug_assert!(self.txn.is_none(), "Err(Abort) without unwinding");
                Err(self.last_abort)
            }
        }
    }

    fn unwind(&mut self, status: AbortStatus) {
        let txn = self.txn.take().expect("unwind without a transaction");
        self.mem.end_epoch(self.tid);
        for &l in txn.read_lines.as_slice() {
            self.mem.clear_reader(LineId(l), self.tid);
        }
        for &l in txn.write_lines.as_slice() {
            self.mem.clear_writer(LineId(l), self.tid);
        }
        self.stash(txn);
        let cause = status.cause;
        self.counters.causes.record(cause);
        if let Some(rec) = self.slots.as_mut() {
            rec.record_abort(self.sim.now(), cause);
        }
        self.san(SanAccess::TxnAbort { cause, line: status.conflict_line });
        self.last_abort = status;
        self.sim.advance(self.cfg.cost.txn_abort);
    }

    /// Status for a conflict at `line`, classified by whether the line
    /// holds a lock word. The marks are fixed at freeze, so the cause is
    /// the same wherever the status is built.
    fn conflict_at(&self, line: u32) -> AbortStatus {
        AbortStatus::conflict_at(line, self.mem.is_lock_line(line))
    }

    /// Check doom flag and spurious-abort injection; unwinds on failure.
    fn health_check(&mut self) -> TxResult<()> {
        let Some(txn) = self.txn.as_mut() else { return Ok(()) };
        if self.mem.is_doomed(self.tid, txn.epoch) {
            let status = match self.mem.doom_line(self.tid) {
                Some(line) => self.conflict_at(line),
                None => AbortStatus::conflict(),
            };
            self.unwind(status);
            return Err(Abort);
        }
        if let Some(fuse) = txn.spurious_fuse.as_mut() {
            *fuse -= 1;
            if *fuse == 0 {
                self.unwind(AbortStatus::spurious());
                return Err(Abort);
            }
        }
        // Injected abort storm: inside its window, transactional accesses
        // abort spuriously at the configured rate. The draw only happens
        // while the window is open, so fault-free runs (and quiet phases
        // of faulted runs) consume no extra RNG state.
        if let Some(storm) = self.cfg.faults.storm {
            if storm.active(self.sim.now()) && self.htm_rng.below(1000) < u64::from(storm.permille)
            {
                self.unwind(AbortStatus::spurious());
                return Err(Abort);
            }
        }
        if self.cfg.spurious_access > 0.0 && self.htm_rng.chance(self.cfg.spurious_access) {
            self.unwind(AbortStatus::spurious());
            return Err(Abort);
        }
        Ok(())
    }

    /// The read-set line budget currently in force (the configured budget,
    /// shrunk while an injected capacity squeeze's window is open).
    fn read_budget(&self) -> usize {
        match self.cfg.faults.squeeze {
            Some(sq) if sq.active(self.sim.now()) => self.cfg.read_set_lines.min(sq.read_lines),
            _ => self.cfg.read_set_lines,
        }
    }

    /// The write-set line budget currently in force.
    fn write_budget(&self) -> usize {
        match self.cfg.faults.squeeze {
            Some(sq) if sq.active(self.sim.now()) => self.cfg.write_set_lines.min(sq.write_lines),
            _ => self.cfg.write_set_lines,
        }
    }

    /// Injected hot line: registering it conflicts with the configured
    /// probability, modelling a line that keeps bouncing between cores.
    /// Returns `true` when the access must abort.
    fn hot_line_conflict(&mut self, line: LineId) -> bool {
        match self.cfg.faults.hot {
            Some(hot) if hot.line == line.0 && hot.permille > 0 => {
                self.htm_rng.below(1000) < u64::from(hot.permille)
            }
            _ => false,
        }
    }

    // ------------------------------------------------------------------
    // memory accesses
    // ------------------------------------------------------------------

    /// Register `line` in the read set (requestor wins: dooms speculative
    /// writers). Unwinds with a capacity abort when the read set is full.
    ///
    /// One [`LineSet::probe`] serves both the membership test and the
    /// insert position (previously `contains` + `insert` hashed the line
    /// twice); the budget — a config constant per attempt, unless a
    /// capacity-squeeze fault is configured, whose window must be sampled
    /// at access time — is only resolved on first touch.
    fn track_read(&mut self, line: LineId) -> TxResult<()> {
        let txn = self.txn.as_ref().expect("track_read outside txn");
        let Err(pos) = txn.read_lines.probe(line.0) else { return Ok(()) };
        if txn.read_lines.len() >= self.read_budget() {
            self.unwind(AbortStatus::capacity());
            return Err(Abort);
        }
        if self.hot_line_conflict(line) {
            self.unwind(self.conflict_at(line.0));
            return Err(Abort);
        }
        self.txn.as_mut().expect("in txn").read_lines.insert_at(pos, line.0);
        self.mem.set_reader(line, self.tid);
        let writers = self.mem.writers_of(line);
        self.mem.doom_bitmap(writers, self.tid, line);
        Ok(())
    }

    /// Register `line` in the write set (dooming peer readers *and*
    /// writers). Unwinds with a capacity abort when the write set is full.
    /// Structured like [`Strand::track_read`].
    fn track_write(&mut self, line: LineId) -> TxResult<()> {
        let txn = self.txn.as_ref().expect("track_write outside txn");
        // Dangerous-instruction detection (arXiv 1407.6968): a lazily
        // subscribed transaction writing a lock-marked line is a zombie
        // wild store — no legitimate lazy critical section ever stores to
        // lock metadata non-elided. Screened before the set probe so a
        // re-write of an already tracked line is caught too.
        if self.cfg.dangerous_abort && txn.lazy_subscribed && self.mem.is_lock_line(line.0) {
            self.unwind(AbortStatus::dangerous(line.0));
            return Err(Abort);
        }
        let Err(pos) = txn.write_lines.probe(line.0) else { return Ok(()) };
        if txn.write_lines.len() >= self.write_budget() {
            self.unwind(AbortStatus::capacity());
            return Err(Abort);
        }
        if self.hot_line_conflict(line) {
            self.unwind(self.conflict_at(line.0));
            return Err(Abort);
        }
        self.txn.as_mut().expect("in txn").write_lines.insert_at(pos, line.0);
        self.mem.set_writer(line, self.tid);
        let peers = self.mem.readers_of(line) | self.mem.writers_of(line);
        self.mem.doom_bitmap(peers, self.tid, line);
        Ok(())
    }

    /// Load a word.
    ///
    /// # Errors
    ///
    /// `Err(Abort)` if the enclosing transaction aborted (it has been
    /// unwound). Never fails outside a transaction.
    pub fn load(&mut self, var: VarId) -> TxResult<u64> {
        self.sim.advance(self.cfg.cost.load);
        if self.txn.is_some() {
            self.health_check()?;
            if let Some(v) = self.txn.as_ref().expect("in txn").wbuf.get(var) {
                return Ok(v);
            }
            let line = self.mem.line_of(var);
            self.track_read(line)?;
            // Every transactional raw load is footprint-relevant, not just
            // the first touch: a re-read of a tracked line is still
            // order-sensitive against peer writes (zombie reads).
            self.sim.note_access(line.0, false);
            let v = self.mem.raw_load(var);
            // Re-check after reading so a value published concurrently
            // with our registration is never returned to a live
            // transaction (keeps undoomed transactions opaque).
            self.health_check()?;
            self.san(SanAccess::Read { var, value: v, txn: true });
            Ok(v)
        } else {
            let v = self.mem.raw_load(var);
            // A non-transactional read of a line in a peer's speculative
            // write set aborts that peer (requestor wins).
            let line = self.mem.line_of(var);
            let writers = self.mem.writers_of(line);
            if writers != 0 {
                self.mem.doom_bitmap(writers, self.tid, line);
            }
            self.sim.note_access(line.0, false);
            self.san(SanAccess::Read { var, value: v, txn: false });
            Ok(v)
        }
    }

    /// Store a word.
    ///
    /// # Errors
    ///
    /// `Err(Abort)` if the enclosing transaction aborted. Never fails
    /// outside a transaction.
    pub fn store(&mut self, var: VarId, value: u64) -> TxResult<()> {
        self.sim.advance(self.cfg.cost.store);
        if self.txn.is_some() {
            self.health_check()?;
            let elided = self.txn.as_ref().expect("in txn").is_elided(var);
            if !elided {
                let line = self.mem.line_of(var);
                self.track_write(line)?;
                // Elided stores, by contrast, are purely local illusions:
                // noting them would manufacture false dependences between
                // concurrent eliders of the same lock.
                self.sim.note_access(line.0, true);
            }
            self.txn.as_mut().expect("in txn").wbuf.insert(var, value);
            Ok(())
        } else {
            self.mem.raw_store(var, value);
            let line = self.mem.line_of(var);
            let peers = self.mem.readers_of(line) | self.mem.writers_of(line);
            self.mem.doom_bitmap(peers, self.tid, line);
            self.sim.note_access(line.0, true);
            self.san(SanAccess::Write { var, value, txn: false });
            Ok(())
        }
    }

    /// Generic atomic read-modify-write; returns the prior value.
    fn rmw(&mut self, var: VarId, f: impl FnOnce(u64) -> u64) -> TxResult<u64> {
        self.sim.advance(self.cfg.cost.rmw);
        if self.txn.is_some() {
            self.health_check()?;
            let (elided, buffered) = {
                let txn = self.txn.as_ref().expect("in txn");
                (txn.is_elided(var), txn.wbuf.get(var))
            };
            let old = match buffered {
                Some(v) => v,
                None => {
                    let line = self.mem.line_of(var);
                    self.track_read(line)?;
                    self.sim.note_access(line.0, false);
                    let v = self.mem.raw_load(var);
                    self.health_check()?;
                    self.san(SanAccess::Read { var, value: v, txn: true });
                    v
                }
            };
            if !elided {
                let line = self.mem.line_of(var);
                self.track_write(line)?;
                self.sim.note_access(line.0, true);
            }
            self.txn.as_mut().expect("in txn").wbuf.insert(var, f(old));
            Ok(old)
        } else {
            let old = self.mem.raw_load(var);
            let new = f(old);
            self.mem.raw_store(var, new);
            let line = self.mem.line_of(var);
            let peers = self.mem.readers_of(line) | self.mem.writers_of(line);
            self.mem.doom_bitmap(peers, self.tid, line);
            self.sim.note_access(line.0, true);
            self.san(SanAccess::Read { var, value: old, txn: false });
            self.san(SanAccess::Write { var, value: new, txn: false });
            Ok(old)
        }
    }

    /// Compare-and-swap; returns the observed prior value (success iff it
    /// equals `expected`).
    ///
    /// # Errors
    ///
    /// `Err(Abort)` if the enclosing transaction aborted.
    pub fn cas(&mut self, var: VarId, expected: u64, new: u64) -> TxResult<u64> {
        self.rmw(var, |old| if old == expected { new } else { old })
    }

    /// Atomic swap; returns the prior value.
    ///
    /// # Errors
    ///
    /// `Err(Abort)` if the enclosing transaction aborted.
    pub fn swap(&mut self, var: VarId, new: u64) -> TxResult<u64> {
        self.rmw(var, |_| new)
    }

    /// Atomic fetch-add (wrapping); returns the prior value.
    ///
    /// # Errors
    ///
    /// `Err(Abort)` if the enclosing transaction aborted.
    pub fn fetch_add(&mut self, var: VarId, delta: u64) -> TxResult<u64> {
        self.rmw(var, |old| old.wrapping_add(delta))
    }

    /// An elided (XACQUIRE) read-modify-write: the line enters the *read*
    /// set only, the new value is a thread-local illusion, and commit will
    /// verify the variable was restored to the value observed here.
    /// Returns the observed (pre-illusion) value.
    ///
    /// This is how a lock is "taken without taking it": concurrent elided
    /// acquisitions of the same lock do not conflict, while any real write
    /// to the lock dooms every eliding transaction — the root cause of the
    /// lemming effect.
    ///
    /// # Errors
    ///
    /// `Err(Abort)` if the enclosing transaction aborted.
    ///
    /// # Panics
    ///
    /// Panics outside a transaction: the scheme must `begin()` first (our
    /// simulated `XACQUIRE` does not itself start the transaction).
    pub fn elide_rmw(&mut self, var: VarId, f: impl FnOnce(u64) -> u64) -> TxResult<u64> {
        assert!(self.txn.is_some(), "elide_rmw outside a transaction");
        self.sim.advance(self.cfg.cost.rmw);
        self.health_check()?;
        let buffered = self.txn.as_ref().expect("in txn").wbuf.get(var);
        let old = match buffered {
            Some(v) => v,
            None => {
                let line = self.mem.line_of(var);
                self.track_read(line)?;
                // Read-set only: the elided "write" is a local illusion,
                // so the model-checker footprint is a plain read.
                self.sim.note_access(line.0, false);
                let v = self.mem.raw_load(var);
                self.health_check()?;
                self.san(SanAccess::Read { var, value: v, txn: true });
                v
            }
        };
        let txn = self.txn.as_mut().expect("in txn");
        if !txn.is_elided(var) {
            txn.elided.push((var, old));
        }
        txn.wbuf.insert(var, f(old));
        Ok(old)
    }

    /// Charge `units` of pure compute.
    ///
    /// # Errors
    ///
    /// `Err(Abort)` if the enclosing transaction was doomed meanwhile.
    pub fn work(&mut self, units: u64) -> TxResult<()> {
        self.sim.advance(units.saturating_mul(self.cfg.cost.work_unit));
        self.health_check()
    }

    /// Charge one busy-wait (PAUSE) iteration.
    ///
    /// # Errors
    ///
    /// `Err(Abort)` if the enclosing transaction was doomed meanwhile.
    pub fn spin(&mut self) -> TxResult<()> {
        self.sim.advance(self.cfg.cost.spin);
        self.health_check()
    }

    /// Busy-wait until `cond` holds over the given variable's value.
    ///
    /// Outside a transaction this loops indefinitely. Inside a transaction
    /// the wait is bounded: after `max_txn_spins` iterations the
    /// transaction aborts itself with [`codes::SPIN_EXPIRED`], modelling
    /// the timer/interrupt aborts that terminate transactions stuck
    /// waiting on real hardware.
    ///
    /// # Errors
    ///
    /// `Err(Abort)` if the enclosing transaction aborts (conflict or spin
    /// expiry).
    pub fn spin_until(
        &mut self,
        var: VarId,
        max_txn_spins: u32,
        cond: impl Fn(u64) -> bool,
    ) -> TxResult<()> {
        let mut iters = 0u32;
        loop {
            let v = self.load(var)?;
            if cond(v) {
                return Ok(());
            }
            self.spin()?;
            if self.txn.is_some() {
                iters += 1;
                if iters >= max_txn_spins {
                    return Err(self.xabort(codes::SPIN_EXPIRED, true));
                }
            }
        }
    }
}
