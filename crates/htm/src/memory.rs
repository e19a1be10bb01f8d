//! Simulated shared memory: words grouped into cache lines, with per-line
//! reader/writer bitmaps driving the requestor-wins conflict engine.
//!
//! All shared state that simulated threads may race on lives here as
//! 64-bit words addressed by [`VarId`]. Words are grouped into cache
//! lines ([`Memory::words_per_line`] words each); conflict detection is
//! line-granular, exactly like the coherency-protocol-based detection of
//! real HTMs — including false sharing between unrelated words on one
//! line.
//!
//! Memory is built single-threaded through a [`MemoryBuilder`] and then
//! frozen; the word *set* is immutable during a run while the word
//! *values* are updated through `Strand` accesses. Dynamic structures
//! (tree nodes, queue links) manage free-lists over pre-allocated regions.
//!
//! # The baton orders all simulated state
//!
//! Only the simulated thread holding the scheduler's baton runs, so the
//! baton orders all simulated state: a handoff stores the baton and its
//! receiver loads it, both `SeqCst`, a release/acquire edge from one
//! holder to the next. Fibers share one host thread, and reads after a
//! run are ordered by `join`. Everything else, the scheduler's clocks and
//! the memory's words, line bitmaps, dooms, doom lines and epochs, is
//! `Relaxed`, and a read-modify-write is a plain load and store. Only the
//! baton, the poison flag and the handoff's two fences keep `SeqCst`.

use crate::sanitize::SanLog;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Identifies one 64-bit word of simulated shared memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) u32);

impl VarId {
    /// Sentinel used by pointer-like fields ("null").
    pub const NULL: VarId = VarId(u32::MAX);

    /// Encode this id as a word value (for storing links in memory).
    /// `NULL` maps to `u64::MAX`.
    pub fn to_word(self) -> u64 {
        if self == VarId::NULL {
            u64::MAX
        } else {
            self.0 as u64
        }
    }

    /// Decode a word value previously produced by [`VarId::to_word`].
    pub fn from_word(w: u64) -> VarId {
        if w == u64::MAX {
            VarId::NULL
        } else {
            VarId(u32::try_from(w).expect("word does not encode a VarId"))
        }
    }

    /// The raw index (for arena arithmetic). `NULL` has index `u32::MAX`.
    pub fn index(self) -> u32 {
        self.0
    }

    /// Construct from a raw index produced by [`VarId::index`].
    pub fn from_index(i: u32) -> VarId {
        VarId(i)
    }
}

/// Identifies a cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LineId(pub(crate) u32);

impl LineId {
    /// The raw line index (matches [`crate::AbortStatus::conflict_line`]).
    pub fn raw(self) -> u32 {
        self.0
    }
}

/// What the hardware commit-time subscription extension (arXiv 1407.6968)
/// monitors: a descriptor, registered by the lock implementation via
/// [`crate::Strand::hw_subscribe`], that the commit stage evaluates
/// against *globally committed* state — never the transaction's own write
/// buffer — atomically with publication.
/// The three shapes cover every lock family in `elision-locks`: a
/// free-value word (TTAS state, MCS tail), a two-word equality (ticket
/// `next == owner`), and one level of indirection (CLH: the `locked` flag
/// of the node the tail points at).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HwSubscription {
    /// Free iff `mem[word] == free`.
    ValueIs {
        /// The monitored lock word.
        word: VarId,
        /// The value meaning "unlocked".
        free: u64,
    },
    /// Free iff `mem[a] == mem[b]`.
    WordsEqual {
        /// First monitored word (e.g. the ticket dispenser).
        a: VarId,
        /// Second monitored word (e.g. the now-serving counter).
        b: VarId,
    },
    /// Free iff `mem[table[mem[ptr]]] == free`; an out-of-range pointer
    /// value counts as "not free" (garbage can never pass the check).
    IndirectValueIs {
        /// The pointer word (e.g. the CLH tail, holding a node index).
        ptr: VarId,
        /// Node-index-to-word translation table, shared with the lock so
        /// that handing out the descriptor allocates nothing.
        table: Arc<[VarId]>,
        /// The value of the resolved word meaning "unlocked".
        free: u64,
    },
}

#[derive(Debug)]
struct LineMeta {
    /// Bit `t` set: simulated thread `t` has this line in its read set.
    readers: AtomicU64,
    /// Bit `t` set: simulated thread `t` has this line in its write set.
    writers: AtomicU64,
}

impl LineMeta {
    fn new() -> Self {
        LineMeta { readers: AtomicU64::new(0), writers: AtomicU64::new(0) }
    }
}

/// Builder for [`Memory`]; allocation is only possible before freezing.
#[derive(Debug, Default)]
pub struct MemoryBuilder {
    values: Vec<u64>,
    words_per_line: usize,
    /// Words registered as lock words (lock constructors mark their
    /// allocations); frozen into the per-line lock map that lets the HTM
    /// classify conflict aborts as lock-word vs data conflicts.
    lock_words: Vec<VarId>,
    /// Whether the frozen memory carries a sanitizer event log.
    sanitize: bool,
    /// When set, [`MemoryBuilder::alloc_isolated`],
    /// [`MemoryBuilder::alloc_lock_word`] and
    /// [`MemoryBuilder::pad_to_line`] stop padding: "isolated" words land
    /// wherever the cursor is, co-resident with neighbouring data. The
    /// placement layer uses this to seed the classic HLE self-abort
    /// layout (lock word sharing a line with data) on purpose.
    pack_isolated: bool,
}

impl MemoryBuilder {
    /// Create a builder with the default line width of 8 words (64 bytes).
    pub fn new() -> Self {
        MemoryBuilder {
            values: Vec::new(),
            words_per_line: 8,
            lock_words: Vec::new(),
            sanitize: false,
            pack_isolated: false,
        }
    }

    /// Attach a sanitizer event log ([`SanLog`]) to the frozen memory:
    /// every strand access will be recorded for the analysis passes. One
    /// simulated thread runs at a time at every scheduler window, so the
    /// log order equals the execution order.
    pub fn enable_sanitizer(&mut self) {
        self.sanitize = true;
    }

    /// Override the number of words per cache line.
    ///
    /// # Panics
    ///
    /// Panics if `wpl` is zero or if words were already allocated.
    pub fn words_per_line(mut self, wpl: usize) -> Self {
        assert!(wpl > 0, "a line must hold at least one word");
        assert!(self.values.is_empty(), "set words_per_line before allocating");
        self.words_per_line = wpl;
        self
    }

    /// Allocate one word initialized to `init`.
    pub fn alloc(&mut self, init: u64) -> VarId {
        let id = VarId(u32::try_from(self.values.len()).expect("memory too large"));
        self.values.push(init);
        id
    }

    /// Allocate `n` contiguous words, all initialized to `init`; returns
    /// the id of the first. Subsequent words are `first.index() + k`.
    pub fn alloc_array(&mut self, n: usize, init: u64) -> VarId {
        assert!(n > 0, "empty arrays have no id");
        let first = self.alloc(init);
        for _ in 1..n {
            self.alloc(init);
        }
        first
    }

    /// Disable (or re-enable) the padding that isolation-requesting
    /// allocations normally get. With packing on, lock words and
    /// "isolated" metadata land co-resident with adjacent data — the
    /// seeded-bad layout the static advisor must flag.
    pub fn set_pack_isolated(&mut self, pack: bool) {
        self.pack_isolated = pack;
    }

    /// Allocate one word on its *own* cache line (padding around it), so
    /// that no unrelated word ever false-shares with it. Used for locks.
    /// Under [`MemoryBuilder::set_pack_isolated`] the padding is skipped.
    pub fn alloc_isolated(&mut self, init: u64) -> VarId {
        self.pad_to_line();
        let id = self.alloc(init);
        self.pad_to_line();
        id
    }

    /// Register `var` as a lock word. Conflict aborts whose dooming
    /// access hit a line containing a lock word are classified as
    /// lock-word conflicts (the lemming-effect signature) by the
    /// abort-cause telemetry; every lock constructor marks the words it
    /// allocates.
    ///
    /// # Panics
    ///
    /// Panics if `var` was not allocated by this builder.
    pub fn mark_lock_word(&mut self, var: VarId) {
        assert!((var.0 as usize) < self.values.len(), "marking an unallocated word as a lock word");
        self.lock_words.push(var);
    }

    /// Allocate one isolated word (own cache line) already marked as a
    /// lock word — the common shape of a lock-state allocation.
    pub fn alloc_lock_word(&mut self, init: u64) -> VarId {
        let id = self.alloc_isolated(init);
        self.mark_lock_word(id);
        id
    }

    /// Pad the allocation cursor to the next line boundary, so the next
    /// allocation starts a fresh line. A no-op under
    /// [`MemoryBuilder::set_pack_isolated`].
    pub fn pad_to_line(&mut self) {
        if self.pack_isolated {
            return;
        }
        while !self.values.len().is_multiple_of(self.words_per_line) {
            self.values.push(0);
        }
    }

    /// Number of words allocated so far.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// The configured line width in words (the builder-side counterpart
    /// of [`Memory::words_per_line`]).
    pub fn line_width(&self) -> usize {
        self.words_per_line
    }

    /// The words registered as lock words so far (allocation order).
    pub fn registered_lock_words(&self) -> &[VarId] {
        &self.lock_words
    }

    /// Whether nothing has been allocated.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Freeze into an immutable-shape [`Memory`] usable by `threads`
    /// simulated threads.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero or exceeds 64 (the conflict-bitmap
    /// width).
    pub fn freeze(self, threads: usize) -> Memory {
        assert!((1..=64).contains(&threads), "1..=64 simulated threads supported");
        let wpl = self.words_per_line;
        let n_lines = self.values.len().div_ceil(wpl).max(1);
        let mut lock_lines = vec![false; n_lines];
        for var in &self.lock_words {
            lock_lines[var.0 as usize / wpl] = true;
        }
        let san = if self.sanitize { Some(SanLog::new(self.values.clone())) } else { None };
        Memory {
            words: self.values.into_iter().map(AtomicU64::new).collect(),
            lines: (0..n_lines).map(|_| LineMeta::new()).collect(),
            lock_lines,
            dooms: (0..threads).map(|_| AtomicU64::new(0)).collect(),
            doom_lines: (0..threads).map(|_| AtomicU64::new(u64::MAX)).collect(),
            epochs: (0..threads).map(|_| AtomicU64::new(0)).collect(),
            words_per_line: wpl,
            line_shift: if wpl.is_power_of_two() { Some(wpl.trailing_zeros()) } else { None },
            san,
        }
    }
}

/// The frozen simulated memory plus the conflict engine's shared state.
#[derive(Debug)]
pub struct Memory {
    words: Vec<AtomicU64>,
    lines: Vec<LineMeta>,
    /// `lock_lines[l]`: line `l` contains at least one lock word.
    lock_lines: Vec<bool>,
    /// Per-thread doom word: `(epoch << 8) | reason_code`, meaningful only
    /// while it matches the victim's current (odd) epoch.
    dooms: Vec<AtomicU64>,
    /// Per-thread best-effort record of the line the dooming conflict
    /// touched (written just before the doom word; `u64::MAX` = unknown).
    doom_lines: Vec<AtomicU64>,
    /// Per-thread transaction epoch: odd while inside a transaction.
    epochs: Vec<AtomicU64>,
    words_per_line: usize,
    /// `log2(words_per_line)` when the width is a power of two (it is for
    /// every preset), turning the per-access `line_of` division into a
    /// shift on the hot path.
    line_shift: Option<u32>,
    /// The sanitizer event log, if enabled at build time.
    san: Option<SanLog>,
}

pub(crate) const REASON_CONFLICT: u64 = 1;

/// Read-modify-write `word` as a plain load and store: only the baton
/// holder touches simulated state, so no peer can interleave.
fn update(word: &AtomicU64, f: impl FnOnce(u64) -> u64) {
    word.store(f(word.load(Ordering::Relaxed)), Ordering::Relaxed);
}

impl Memory {
    /// Number of words.
    pub fn words(&self) -> usize {
        self.words.len()
    }

    /// Number of cache lines.
    pub fn line_count(&self) -> usize {
        self.lines.len()
    }

    /// Words per cache line.
    pub fn words_per_line(&self) -> usize {
        self.words_per_line
    }

    /// Number of simulated threads this memory supports.
    pub fn threads(&self) -> usize {
        self.dooms.len()
    }

    /// The cache line containing `var`.
    pub fn line_of(&self, var: VarId) -> LineId {
        debug_assert!(var != VarId::NULL, "dereferencing NULL");
        match self.line_shift {
            Some(s) => LineId(var.0 >> s),
            None => LineId(var.0 / self.words_per_line as u32),
        }
    }

    /// Whether the raw line index holds a lock word (see
    /// [`MemoryBuilder::mark_lock_word`]). Out-of-range indices report
    /// `false`.
    pub fn is_lock_line(&self, line: u32) -> bool {
        self.lock_lines.get(line as usize).copied().unwrap_or(false)
    }

    /// Read a word without any simulation bookkeeping. For setup,
    /// validation and post-run assertions only — never call this from a
    /// simulated thread during a run.
    pub fn read_direct(&self, var: VarId) -> u64 {
        self.words[var.0 as usize].load(Ordering::Relaxed)
    }

    /// Write a word without any simulation bookkeeping (see
    /// [`Memory::read_direct`] for the usage restriction).
    pub fn write_direct(&self, var: VarId, value: u64) {
        self.words[var.0 as usize].store(value, Ordering::Relaxed);
    }

    // ---- conflict-engine internals (crate-visible for Strand) ----

    pub(crate) fn raw_load(&self, var: VarId) -> u64 {
        self.words[var.0 as usize].load(Ordering::Relaxed)
    }

    pub(crate) fn raw_store(&self, var: VarId, value: u64) {
        self.words[var.0 as usize].store(value, Ordering::Relaxed);
    }

    pub(crate) fn set_reader(&self, line: LineId, tid: usize) {
        update(&self.lines[line.0 as usize].readers, |r| r | 1 << tid);
    }

    pub(crate) fn set_writer(&self, line: LineId, tid: usize) {
        update(&self.lines[line.0 as usize].writers, |w| w | 1 << tid);
    }

    pub(crate) fn clear_reader(&self, line: LineId, tid: usize) {
        update(&self.lines[line.0 as usize].readers, |r| r & !(1 << tid));
    }

    pub(crate) fn clear_writer(&self, line: LineId, tid: usize) {
        update(&self.lines[line.0 as usize].writers, |w| w & !(1 << tid));
    }

    pub(crate) fn readers_of(&self, line: LineId) -> u64 {
        self.lines[line.0 as usize].readers.load(Ordering::Relaxed)
    }

    pub(crate) fn writers_of(&self, line: LineId) -> u64 {
        self.lines[line.0 as usize].writers.load(Ordering::Relaxed)
    }

    /// Doom every thread in `bitmap` except `except` (requestor wins),
    /// recording `line` as the conflict location.
    pub(crate) fn doom_bitmap(&self, bitmap: u64, except: usize, line: LineId) {
        let mut bits = bitmap & !(1u64 << except);
        while bits != 0 {
            let victim = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            self.doom_thread(victim, line);
        }
    }

    /// Mark `victim`'s current transaction (if any) as conflict-aborted at
    /// `line`. A store of `(epoch << 8) | reason` suffices: the victim
    /// only honours the doom while its epoch matches, so late dooms aimed
    /// at an already finished transaction are ignored. The conflict line
    /// is best-effort (a concurrent doom may overwrite it) — like the
    /// abort-address hints real hardware could provide.
    pub(crate) fn doom_thread(&self, victim: usize, line: LineId) {
        let e = self.epochs[victim].load(Ordering::Relaxed);
        if e & 1 == 1 {
            self.doom_lines[victim].store(line.0 as u64, Ordering::Relaxed);
            self.dooms[victim].store((e << 8) | REASON_CONFLICT, Ordering::Relaxed);
        }
    }

    /// The best-effort conflict location recorded with `tid`'s doom.
    pub(crate) fn doom_line(&self, tid: usize) -> Option<u32> {
        let v = self.doom_lines[tid].load(Ordering::Relaxed);
        u32::try_from(v).ok()
    }

    pub(crate) fn begin_epoch(&self, tid: usize) -> u64 {
        // 0 -> 1, 2 -> 3, ...: the new odd value marks "in transaction".
        let e = self.epochs[tid].load(Ordering::Relaxed) + 1;
        debug_assert!(e & 1 == 1, "begin inside a transaction");
        self.epochs[tid].store(e, Ordering::Relaxed);
        e
    }

    pub(crate) fn end_epoch(&self, tid: usize) {
        let e = self.epochs[tid].load(Ordering::Relaxed) + 1;
        debug_assert!(e & 1 == 0, "end outside a transaction");
        self.epochs[tid].store(e, Ordering::Relaxed);
    }

    /// Whether `tid`'s transaction at `epoch` has been doomed by a peer.
    pub(crate) fn is_doomed(&self, tid: usize, epoch: u64) -> bool {
        self.dooms[tid].load(Ordering::Relaxed) >> 8 == epoch
    }

    /// Evaluate a hardware subscription descriptor against committed
    /// state: `true` iff the monitored lock is free. The commit stage
    /// calls this in the same atomic step that publishes, making the
    /// verdict atomic with publication; it deliberately bypasses any write
    /// buffer, so a zombie's wild store can never fool it.
    pub fn subscription_free(&self, sub: &HwSubscription) -> bool {
        match sub {
            HwSubscription::ValueIs { word, free } => self.raw_load(*word) == *free,
            HwSubscription::WordsEqual { a, b } => self.raw_load(*a) == self.raw_load(*b),
            HwSubscription::IndirectValueIs { ptr, table, free } => {
                let idx = self.raw_load(*ptr);
                match usize::try_from(idx).ok().and_then(|i| table.get(i)) {
                    Some(word) => self.raw_load(*word) == *free,
                    None => false,
                }
            }
        }
    }

    /// The cache lines a subscription descriptor's evaluation reads —
    /// the commit step's extra footprint for the model checker (the
    /// hardware check makes commit order-dependent on lock-word writes).
    /// At most two lines, yielded without allocating.
    pub fn subscription_lines(&self, sub: &HwSubscription) -> impl Iterator<Item = LineId> {
        let (first, second) = match sub {
            HwSubscription::ValueIs { word, .. } => (*word, None),
            HwSubscription::WordsEqual { a, b } => (*a, Some(*b)),
            HwSubscription::IndirectValueIs { ptr, table, .. } => {
                let idx = self.raw_load(*ptr);
                (*ptr, usize::try_from(idx).ok().and_then(|i| table.get(i)).copied())
            }
        };
        [Some(self.line_of(first)), second.map(|w| self.line_of(w))].into_iter().flatten()
    }

    /// The sanitizer event log, if [`MemoryBuilder::enable_sanitizer`]
    /// was called before freezing.
    pub fn san_log(&self) -> Option<&SanLog> {
        self.san.as_ref()
    }

    /// The cache lines whose reader/writer bitmaps are still set. After a
    /// quiescent point (no live transactions) this must be empty: every
    /// commit and abort clears its transaction's bits, so a leftover bit
    /// is a conflict-engine state leak. The sanitizer's post-run check
    /// reports each offending line.
    pub fn residual_lines(&self) -> Vec<LineId> {
        self.lines
            .iter()
            .enumerate()
            .filter(|(_, l)| {
                l.readers.load(Ordering::Relaxed) != 0 || l.writers.load(Ordering::Relaxed) != 0
            })
            .map(|(i, _)| LineId(i as u32))
            .collect()
    }

    /// Test-visible: true if any reader/writer bits remain set anywhere
    /// (see [`Memory::residual_lines`] for the diagnostic list).
    pub fn any_residual_bits(&self) -> bool {
        !self.residual_lines().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varid_word_roundtrip() {
        assert_eq!(VarId::from_word(VarId(5).to_word()), VarId(5));
        assert_eq!(VarId::from_word(VarId::NULL.to_word()), VarId::NULL);
        assert_eq!(VarId::NULL.to_word(), u64::MAX);
    }

    #[test]
    fn lines_group_words() {
        let mut b = MemoryBuilder::new().words_per_line(4);
        let a = b.alloc(0);
        let _ = b.alloc_array(3, 0);
        let c = b.alloc(0); // word 4 -> line 1
        let m = b.freeze(2);
        assert_eq!(m.line_of(a), LineId(0));
        assert_eq!(m.line_of(c), LineId(1));
        assert_eq!(m.line_count(), 2);
    }

    #[test]
    fn non_power_of_two_line_width_falls_back_to_division() {
        let mut b = MemoryBuilder::new().words_per_line(3);
        let a = b.alloc(0);
        let _ = b.alloc_array(3, 0);
        let m = b.freeze(1);
        assert_eq!(m.line_of(a), LineId(0));
        assert_eq!(m.line_of(VarId(2)), LineId(0));
        assert_eq!(m.line_of(VarId(3)), LineId(1));
    }

    #[test]
    fn isolated_allocation_owns_its_line() {
        let mut b = MemoryBuilder::new().words_per_line(4);
        let _x = b.alloc(0);
        let lock = b.alloc_isolated(7);
        let y = b.alloc(0);
        let m = b.freeze(1);
        assert_ne!(m.line_of(lock), m.line_of(y));
        assert_eq!(m.read_direct(lock), 7);
        // The isolated word starts a fresh line and nothing follows it on
        // that line.
        assert_eq!(lock.index() % 4, 0);
        assert_eq!(y.index() % 4, 0);
    }

    #[test]
    fn dooms_respect_epochs() {
        let mut b = MemoryBuilder::new();
        let _ = b.alloc(0);
        let m = b.freeze(2);
        // Not in a transaction: dooming is a no-op.
        m.doom_thread(0, LineId(0));
        assert!(!m.is_doomed(0, 1));
        // In a transaction: doom lands.
        let e = m.begin_epoch(0);
        m.doom_thread(0, LineId(3));
        assert!(m.is_doomed(0, e));
        assert_eq!(m.doom_line(0), Some(3));
        m.end_epoch(0);
        // A new transaction is unaffected by the stale doom.
        let e2 = m.begin_epoch(0);
        assert!(!m.is_doomed(0, e2));
        m.end_epoch(0);
    }

    #[test]
    fn doom_bitmap_skips_self() {
        let mut b = MemoryBuilder::new();
        let _ = b.alloc(0);
        let m = b.freeze(3);
        let e0 = m.begin_epoch(0);
        let e2 = m.begin_epoch(2);
        m.doom_bitmap(0b101, 0, LineId(1));
        assert!(!m.is_doomed(0, e0), "requestor must not doom itself");
        assert!(m.is_doomed(2, e2));
    }

    #[test]
    fn bitmap_set_clear() {
        let mut b = MemoryBuilder::new();
        let v = b.alloc(0);
        let m = b.freeze(4);
        let line = m.line_of(v);
        m.set_reader(line, 1);
        m.set_writer(line, 3);
        assert_eq!(m.readers_of(line), 0b10);
        assert_eq!(m.writers_of(line), 0b1000);
        assert!(m.any_residual_bits());
        assert_eq!(m.residual_lines(), vec![line]);
        m.clear_reader(line, 1);
        m.clear_writer(line, 3);
        assert!(!m.any_residual_bits());
        assert!(m.residual_lines().is_empty());
    }

    #[test]
    fn sanitizer_log_is_opt_in() {
        let mut b = MemoryBuilder::new();
        let _ = b.alloc(0);
        assert!(b.freeze(1).san_log().is_none());

        let mut b = MemoryBuilder::new();
        let v = b.alloc(42);
        b.enable_sanitizer();
        let m = b.freeze(1);
        let log = m.san_log().expect("sanitizer enabled");
        assert!(log.is_empty());
        assert_eq!(log.initial_values()[v.index() as usize], 42);
    }

    #[test]
    #[should_panic(expected = "1..=64")]
    fn too_many_threads_rejected() {
        MemoryBuilder::new().freeze(65);
    }

    #[test]
    fn lock_lines_survive_freeze() {
        let mut b = MemoryBuilder::new().words_per_line(4);
        let data = b.alloc(0);
        let lock = b.alloc_lock_word(0);
        let marked = b.alloc(0);
        b.mark_lock_word(marked);
        let m = b.freeze(1);
        assert!(!m.is_lock_line(m.line_of(data).raw()));
        assert!(m.is_lock_line(m.line_of(lock).raw()));
        assert!(m.is_lock_line(m.line_of(marked).raw()));
        assert!(!m.is_lock_line(u32::MAX), "out of range is not a lock line");
    }

    #[test]
    fn packed_isolation_makes_lock_words_co_resident() {
        let mut b = MemoryBuilder::new().words_per_line(4);
        b.set_pack_isolated(true);
        let data = b.alloc(3);
        let lock = b.alloc_lock_word(0);
        let m = b.freeze(1);
        assert_eq!(m.line_of(data), m.line_of(lock), "packing skips isolation padding");
        assert!(m.is_lock_line(m.line_of(data).raw()), "data line inherits the lock mark");
    }

    #[test]
    #[should_panic(expected = "unallocated")]
    fn marking_unallocated_word_rejected() {
        let mut b = MemoryBuilder::new();
        b.mark_lock_word(VarId(3));
    }

    #[test]
    fn subscription_forms_evaluate_committed_state() {
        let mut b = MemoryBuilder::new();
        let word = b.alloc(0);
        let a = b.alloc(3);
        let bb = b.alloc(3);
        let ptr = b.alloc(1);
        let n0 = b.alloc(1);
        let n1 = b.alloc(0);
        let m = b.freeze(1);

        let value = HwSubscription::ValueIs { word, free: 0 };
        assert!(m.subscription_free(&value));
        m.write_direct(word, 1);
        assert!(!m.subscription_free(&value));

        let eq = HwSubscription::WordsEqual { a, b: bb };
        assert!(m.subscription_free(&eq));
        m.write_direct(a, 4);
        assert!(!m.subscription_free(&eq));

        let ind = HwSubscription::IndirectValueIs { ptr, table: Arc::from([n0, n1]), free: 0 };
        assert!(m.subscription_free(&ind), "node 1 is unlocked");
        m.write_direct(ptr, 0);
        assert!(!m.subscription_free(&ind), "node 0 is locked");
        m.write_direct(ptr, 99);
        assert!(!m.subscription_free(&ind), "garbage pointer is never free");
        assert_eq!(m.subscription_lines(&ind).count(), 1, "garbage resolves no second line");
    }
}
