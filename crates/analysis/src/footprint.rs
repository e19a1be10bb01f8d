//! Per-operation access-footprint extraction via instrumented dry-runs.
//!
//! The static advisor's ground truth: each structure operation is run
//! once, alone, on a single strand with the sanitizer log attached and a
//! deterministic HTM configuration whose capacity is far above any real
//! footprint. No interleavings are explored — the [`elision_htm::SanLog`]
//! of the solo run *is* the operation's read/write set, because with one
//! thread the log order equals program order and every transactional
//! access of the k-th attempt lands between the k-th
//! `TxnBegin`/`TxnCommit` pair.
//!
//! Combined with a [`LayoutMap`] the word-level footprints project onto
//! cache lines, which is what every layout-aware lint reasons about.

use std::collections::BTreeSet;
use std::sync::Arc;

use elision_htm::{harness, HtmConfig, LayoutMap, Memory, SanAccess, Strand, TxResult};

/// A critical-section body to dry-run as one operation instance.
pub type OpFn = Box<dyn Fn(&mut Strand) -> TxResult<()> + Send + Sync>;

/// One operation instance to profile: an operation class (e.g.
/// `"insert"`), a concrete label (e.g. `"insert(17)"`), and its body.
pub struct OpSpec {
    /// Operation class, shared by all instances of the same operation.
    pub class: String,
    /// Concrete instance label (class plus arguments).
    pub label: String,
    /// The critical-section body.
    pub run: OpFn,
}

impl OpSpec {
    /// Convenience constructor.
    pub fn new(
        class: impl Into<String>,
        label: impl Into<String>,
        run: impl Fn(&mut Strand) -> TxResult<()> + Send + Sync + 'static,
    ) -> Self {
        OpSpec { class: class.into(), label: label.into(), run: Box::new(run) }
    }
}

/// The word-level access footprint of one operation instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpFootprint {
    /// Operation class (shared across instances, e.g. `"insert"`).
    pub class: String,
    /// Concrete instance label (e.g. `"insert(17)"`).
    pub label: String,
    /// Raw [`elision_htm::VarId`] indices read inside the transaction.
    /// Reads served from the transaction's own write buffer are not
    /// logged; such words appear in `writes` only.
    pub reads: BTreeSet<u32>,
    /// Raw indices written (commit-time publications).
    pub writes: BTreeSet<u32>,
}

impl OpFootprint {
    /// Every word the operation touched (reads ∪ writes).
    pub fn touched(&self) -> BTreeSet<u32> {
        self.reads.union(&self.writes).copied().collect()
    }

    /// Cache lines holding read words. Written words count too: the HTM
    /// tracks a written line for conflicts exactly like a read one, so
    /// the *read-set* capacity budget sees the union.
    pub fn read_lines(&self, layout: &LayoutMap) -> BTreeSet<u32> {
        self.touched().iter().map(|&v| layout.line_of_word(v)).collect()
    }

    /// Cache lines holding written words.
    pub fn write_lines(&self, layout: &LayoutMap) -> BTreeSet<u32> {
        self.writes.iter().map(|&v| layout.line_of_word(v)).collect()
    }

    /// Every line the operation touched.
    pub fn lines(&self, layout: &LayoutMap) -> BTreeSet<u32> {
        self.touched().iter().map(|&v| layout.line_of_word(v)).collect()
    }
}

/// Seed of the dry-run strand's RNG, which a solo deterministic run
/// never draws from.
const DRY_RUN_SEED: u64 = 0x5EED_AD01;

/// The deterministic HTM configuration every dry-run uses: zero spurious
/// aborts and a line budget far above any structure operation, so the
/// only way an attempt can abort is a bug in the battery itself.
fn dry_run_config() -> HtmConfig {
    HtmConfig::deterministic().with_capacity(4096, 4096)
}

/// Dry-run `ops` one after another on a single strand over `mem` and
/// return their footprints, in order.
///
/// `mem` must have been frozen for exactly one thread with the sanitizer
/// enabled ([`elision_htm::MemoryBuilder::enable_sanitizer`]); quiescent
/// prefill (structure `init`, pre-inserted keys) should already have
/// happened, either via direct writes or by `prefill` — which runs on
/// the strand *outside* any transaction, so its accesses are logged
/// unflagged and excluded from every footprint.
///
/// # Panics
///
/// Panics if the sanitizer is not attached, if any attempt aborts (the
/// dry-run configuration makes that impossible for a correct battery),
/// or if the log's transaction spans do not line up with `ops`.
pub fn dry_run(mem: Memory, prefill: OpFn, ops: Vec<OpSpec>) -> Vec<OpFootprint> {
    let names: Vec<(String, String)> =
        ops.iter().map(|o| (o.class.clone(), o.label.clone())).collect();
    let ops = Arc::new(ops);
    let prefill = Arc::new(prefill);
    let (_, mem, _) = harness::run(1, 0, dry_run_config(), DRY_RUN_SEED, mem, move |s| {
        prefill(s).expect("non-transactional prefill cannot abort");
        for op in ops.iter() {
            if let Err(status) = s.attempt(|st| (op.run)(st)) {
                panic!("dry-run of {} aborted: {status:?}", op.label);
            }
        }
    });
    let log = mem.san_log().expect("dry_run requires an attached sanitizer log");
    let mut spans: Vec<(BTreeSet<u32>, BTreeSet<u32>)> = Vec::new();
    let mut open: Option<(BTreeSet<u32>, BTreeSet<u32>)> = None;
    for ev in log.snapshot() {
        match ev.access {
            SanAccess::TxnBegin => {
                assert!(open.is_none(), "nested TxnBegin in a single-thread dry-run");
                open = Some((BTreeSet::new(), BTreeSet::new()));
            }
            SanAccess::TxnCommit => {
                spans.push(open.take().expect("TxnCommit without TxnBegin"));
            }
            SanAccess::TxnAbort { cause, .. } => {
                panic!("dry-run aborted ({cause:?}) — battery must be conflict- and capacity-free")
            }
            SanAccess::Read { var, txn: true, .. } => {
                let (reads, _) = open.as_mut().expect("transactional read outside a span");
                reads.insert(var.index());
            }
            SanAccess::Write { var, txn: true, .. } => {
                let (_, writes) = open.as_mut().expect("transactional write outside a span");
                writes.insert(var.index());
            }
            _ => {}
        }
    }
    assert!(open.is_none(), "unterminated transaction span in dry-run log");
    assert_eq!(spans.len(), names.len(), "one transaction span per battery op");
    names
        .into_iter()
        .zip(spans)
        .map(|((class, label), (reads, writes))| OpFootprint { class, label, reads, writes })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use elision_htm::MemoryBuilder;

    #[test]
    fn dry_run_separates_spans_and_flags() {
        let mut b = MemoryBuilder::new();
        b.enable_sanitizer();
        let x = b.alloc_isolated(1);
        let y = b.alloc_isolated(2);
        let mem = b.freeze(1);
        let ops = vec![
            OpSpec::new("bump", "bump(x)", move |s| {
                let v = s.load(x)?;
                s.store(x, v + 1)
            }),
            OpSpec::new("read", "read(y)", move |s| s.load(y).map(|_| ())),
        ];
        // The prefill touches both words outside any transaction; none of
        // that may leak into a footprint.
        let fps = dry_run(
            mem,
            Box::new(move |s| {
                s.load(x)?;
                s.store(y, 9)
            }),
            ops,
        );
        assert_eq!(fps.len(), 2);
        assert_eq!(fps[0].class, "bump");
        assert_eq!(fps[0].reads, BTreeSet::from([x.index()]));
        assert_eq!(fps[0].writes, BTreeSet::from([x.index()]));
        assert_eq!(fps[1].reads, BTreeSet::from([y.index()]));
        assert!(fps[1].writes.is_empty());
    }
}
