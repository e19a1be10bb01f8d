//! Time-slot statistics for the paper's Figure 3.
//!
//! Figure 3 divides an execution into 1 ms slots and plots, per slot, the
//! throughput normalized to the whole-run average and the fraction of
//! operations completing non-speculatively. Here "time" is simulated
//! cycles, so a slot is a fixed number of cycles.
//!
//! One [`SlotSeries`] per thread records both completions and abort
//! causes, so the serialization dynamics can be read against what
//! triggered them (e.g. a burst of lock-word conflicts right before a
//! non-speculative plateau — the lemming effect in time). The per-thread
//! series merge into one after the run.

use crate::stats::{AbortCause, CauseHistogram};
use std::collections::BTreeMap;

/// Number of slots stored densely (as vector entries). A completion at a
/// huge timestamp — a long chaos run with a small `slot_cycles`, or an
/// adversarial `now` near `u64::MAX` — previously forced a
/// `resize(slot + 1)` of O(now / slot_cycles) zeroed entries (after an
/// `as usize` cast that truncates on 32-bit targets); slots at or beyond
/// this cap now go to a sparse map instead, so one late event costs one
/// map entry.
const DENSE_SLOT_CAP: u64 = 1 << 16;

/// Split a recording timestamp into a dense index or a sparse slot key.
fn slot_index(now: u64, slot_cycles: u64) -> Result<usize, u64> {
    let slot = now / slot_cycles;
    if slot < DENSE_SLOT_CAP {
        Ok(slot as usize)
    } else {
        Err(slot)
    }
}

/// Completions, non-speculative completions and abort causes bucketed by
/// logical-time slot (Figure 3's two panels, plus the causes behind them).
///
/// The three dense vectors always have the same length: recording into a
/// slot grows all of them together. Derived rates are computed from the
/// raw counts when read, so a merged series never holds stale ratios.
#[derive(Debug, Clone)]
pub struct SlotSeries {
    slot_cycles: u64,
    completed: Vec<u64>,
    nonspec: Vec<u64>,
    causes: Vec<CauseHistogram>,
    /// Sparse `(completed, nonspec, causes)` for slots at or beyond
    /// [`DENSE_SLOT_CAP`] — late stragglers of very long runs. Included
    /// in cause totals and merges; the per-slot views stay dense-only
    /// (the figures plot the dense prefix).
    tail: BTreeMap<u64, (u64, u64, CauseHistogram)>,
}

impl SlotSeries {
    /// An empty series with the given slot width in cycles.
    ///
    /// # Panics
    ///
    /// Panics if `slot_cycles` is zero.
    pub fn new(slot_cycles: u64) -> Self {
        assert!(slot_cycles > 0, "slot width must be positive");
        SlotSeries {
            slot_cycles,
            completed: Vec::new(),
            nonspec: Vec::new(),
            causes: Vec::new(),
            tail: BTreeMap::new(),
        }
    }

    /// Number of dense slots.
    pub fn len(&self) -> usize {
        self.completed.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.completed.is_empty() && self.tail.is_empty()
    }

    /// Grow the dense vectors together to at least `len` slots.
    fn grow(&mut self, len: usize) {
        if len > self.completed.len() {
            self.completed.resize(len, 0);
            self.nonspec.resize(len, 0);
            self.causes.resize(len, CauseHistogram::new());
        }
    }

    /// Record one completed operation at logical time `now`;
    /// `nonspeculative` marks completions under the real lock.
    pub fn record(&mut self, now: u64, nonspeculative: bool) {
        let n = u64::from(nonspeculative);
        match slot_index(now, self.slot_cycles) {
            Ok(slot) => {
                self.grow(slot + 1);
                self.completed[slot] += 1;
                self.nonspec[slot] += n;
            }
            Err(slot) => {
                let (c, ns, _) = self.tail.entry(slot).or_default();
                *c += 1;
                *ns += n;
            }
        }
    }

    /// Record one abort of `cause` at logical time `now`.
    pub fn record_abort(&mut self, now: u64, cause: AbortCause) {
        match slot_index(now, self.slot_cycles) {
            Ok(slot) => {
                self.grow(slot + 1);
                self.causes[slot].record(cause);
            }
            Err(slot) => self.tail.entry(slot).or_default().2.record(cause),
        }
    }

    /// Merge another series (another thread, or another seed of the same
    /// cell) into this one: counts and histograms add slot-wise.
    ///
    /// This is a *total* merge: the shorter side is zero-extended to the
    /// longer, so no slot on either side is truncated.
    ///
    /// # Panics
    ///
    /// Panics if the slot widths differ.
    pub fn merge(&mut self, other: &SlotSeries) {
        assert_eq!(self.slot_cycles, other.slot_cycles, "slot widths must match");
        self.grow(other.len());
        for (d, &s) in self.completed.iter_mut().zip(&other.completed) {
            *d += s;
        }
        for (d, &s) in self.nonspec.iter_mut().zip(&other.nonspec) {
            *d += s;
        }
        for (d, s) in self.causes.iter_mut().zip(&other.causes) {
            d.merge(s);
        }
        for (&slot, (c, n, h)) in &other.tail {
            let e = self.tail.entry(slot).or_default();
            e.0 += c;
            e.1 += n;
            e.2.merge(h);
        }
    }

    /// Raw completions per dense slot.
    pub fn completed(&self) -> &[u64] {
        &self.completed
    }

    /// Abort causes per dense slot, earliest first.
    pub fn causes(&self) -> &[CauseHistogram] {
        &self.causes
    }

    /// All abort causes folded into one histogram, the sparse tail
    /// included.
    pub fn totals(&self) -> CauseHistogram {
        let mut acc = CauseHistogram::new();
        for h in self.causes.iter().chain(self.tail.values().map(|(_, _, h)| h)) {
            acc.merge(h);
        }
        acc
    }

    /// Per-slot throughput normalized to the whole-run average (top
    /// panel).
    pub fn normalized_throughput(&self) -> Vec<f64> {
        let total: u64 = self.completed.iter().sum();
        let slots = self.completed.len().max(1) as f64;
        let avg_per_slot = total as f64 / slots;
        self.completed
            .iter()
            .map(|&c| if avg_per_slot > 0.0 { c as f64 / avg_per_slot } else { 0.0 })
            .collect()
    }

    /// Per-slot fraction of non-speculative completions (bottom panel).
    pub fn frac_nonspec(&self) -> Vec<f64> {
        self.completed
            .iter()
            .zip(&self.nonspec)
            .map(|(&c, &n)| if c > 0 { n as f64 / c as f64 } else { 0.0 })
            .collect()
    }

    /// The largest throughput drop relative to average (e.g. `2.5` means
    /// the worst slot ran 2.5x below the run average), skipping every
    /// empty slot wherever it falls.
    pub fn worst_slowdown(&self) -> f64 {
        self.normalized_throughput()
            .iter()
            .filter(|&&x| x > 0.0)
            .fold(1.0f64, |acc, &x| acc.max(1.0 / x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_by_slot() {
        let mut s = SlotSeries::new(100);
        s.record(5, false);
        s.record(99, true);
        s.record(100, false);
        s.record(250, true);
        assert_eq!(s.completed(), [2, 1, 1]);
        let frac = s.frac_nonspec();
        assert!((frac[0] - 0.5).abs() < 1e-12);
        assert_eq!(frac[1], 0.0);
        assert_eq!(frac[2], 1.0);
    }

    #[test]
    fn normalized_throughput_averages_to_one() {
        let mut s = SlotSeries::new(10);
        for t in 0..100 {
            s.record(t, false);
        }
        let mean: f64 = s.normalized_throughput().iter().sum::<f64>() / s.len() as f64;
        assert!((mean - 1.0).abs() < 1e-9);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = SlotSeries::new(10);
        let mut b = SlotSeries::new(10);
        a.record(5, true);
        b.record(15, false);
        b.record(5, false);
        a.merge(&b);
        assert_eq!(a.completed(), [2, 1]);
    }

    #[test]
    fn series_merge_adds_counts_and_recomputes() {
        let mut a = SlotSeries::new(10);
        a.record(5, true);
        a.record(6, false);
        let mut b = SlotSeries::new(10);
        b.record(15, false);
        b.record(7, false);
        a.merge(&b);
        assert_eq!(a.completed(), [3, 1]);
        assert_eq!(a.nonspec, [1, 0]);
        // frac_nonspec read from combined counts: 1/3 in slot 0.
        assert!((a.frac_nonspec()[0] - 1.0 / 3.0).abs() < 1e-12);
        // normalized throughput read from combined counts: avg 2/slot,
        // slot 0 at 1.5x.
        assert!((a.normalized_throughput()[0] - 1.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "slot widths")]
    fn series_merge_rejects_mismatched_widths() {
        let mut a = SlotSeries::new(10);
        a.merge(&SlotSeries::new(20));
    }

    #[test]
    fn cause_series_merge_adds_histograms() {
        let mut a = SlotSeries::new(100);
        a.record_abort(10, AbortCause::DataConflict);
        let mut b = SlotSeries::new(100);
        b.record_abort(20, AbortCause::DataConflict);
        b.record_abort(250, AbortCause::Capacity);
        a.merge(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.causes()[0].get(AbortCause::DataConflict), 2);
        assert_eq!(a.causes()[2].get(AbortCause::Capacity), 1);
    }

    #[test]
    #[should_panic(expected = "slot widths")]
    fn merge_rejects_mismatched_widths() {
        let mut a = SlotSeries::new(10);
        a.record(5, false);
        let mut b = SlotSeries::new(20);
        b.record(5, true);
        a.merge(&b);
    }

    #[test]
    fn cause_slots_bucket_and_merge() {
        let mut a = SlotSeries::new(100);
        a.record_abort(10, AbortCause::LockWordConflict);
        a.record_abort(150, AbortCause::DataConflict);
        let mut b = SlotSeries::new(100);
        b.record_abort(40, AbortCause::LockWordConflict);
        b.record_abort(350, AbortCause::Capacity);
        a.merge(&b);
        assert_eq!(a.len(), 4);
        assert_eq!(a.causes()[0].get(AbortCause::LockWordConflict), 2);
        assert_eq!(a.causes()[1].get(AbortCause::DataConflict), 1);
        assert_eq!(a.causes()[2].total(), 0);
        assert_eq!(a.totals().total(), 4);
    }

    #[test]
    #[should_panic(expected = "slot widths")]
    fn cause_slots_reject_mismatched_widths() {
        let mut a = SlotSeries::new(10);
        a.record_abort(5, AbortCause::Explicit);
        let mut b = SlotSeries::new(20);
        b.record_abort(5, AbortCause::Explicit);
        a.merge(&b);
    }

    #[test]
    fn cause_series_merge_extends_shorter_side() {
        let mut a = SlotSeries::new(100);
        a.record_abort(10, AbortCause::Explicit);
        let mut b = SlotSeries::new(100);
        b.record_abort(450, AbortCause::Capacity);
        a.merge(&b);
        assert_eq!(a.len(), 5, "merge extends to the longer series");
        assert_eq!(a.causes()[0].get(AbortCause::Explicit), 1);
        assert_eq!(a.causes()[4].get(AbortCause::Capacity), 1);
    }

    #[test]
    fn completions_and_aborts_share_the_slots() {
        // An abort past the last completion grows every dense vector, so
        // the per-slot views always line up.
        let mut s = SlotSeries::new(10);
        s.record(5, true);
        s.record_abort(35, AbortCause::Capacity);
        assert_eq!(s.len(), 4);
        assert_eq!(s.completed(), [1, 0, 0, 0]);
        assert_eq!(s.nonspec, [1, 0, 0, 0]);
        assert_eq!(s.causes().len(), 4);
        assert_eq!(s.frac_nonspec().len(), 4);
        assert_eq!(s.normalized_throughput().len(), 4);
    }

    mod merge_props {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        /// A series with `spec[i] = (completions, nonspec, causes)` in
        /// slot `i` (nonspec capped at completions).
        fn build(spec: &[(u64, u64, Vec<usize>)]) -> SlotSeries {
            let mut s = SlotSeries::new(100);
            for (slot, (c, n, causes)) in spec.iter().enumerate() {
                let t = slot as u64 * 100;
                for k in 0..*c {
                    s.record(t, k < *n);
                }
                for &cause in causes {
                    s.record_abort(t, AbortCause::ALL[cause]);
                }
            }
            s
        }

        fn slots() -> impl Strategy<Value = Vec<(u64, u64, Vec<usize>)>> {
            vec((0u64..20, 0u64..20, vec(0usize..7, 0..5)), 0..10)
        }

        proptest! {
            /// Merging is commutative and total: either order yields the
            /// same per-slot sums, with length equal to the longer input
            /// (nothing truncated) and every count conserved.
            #[test]
            fn slot_series_merge_commutative_and_length_preserving(
                a in slots(),
                b in slots(),
            ) {
                let mut ab = build(&a);
                ab.merge(&build(&b));
                let mut ba = build(&b);
                ba.merge(&build(&a));
                prop_assert_eq!(ab.completed(), ba.completed());
                prop_assert_eq!(&ab.nonspec, &ba.nonspec);
                prop_assert_eq!(ab.causes(), ba.causes());
                // Empty trailing slots record nothing, so the merged
                // length is the last recorded slot of either side.
                let used = |spec: &[(u64, u64, Vec<usize>)]| {
                    spec.iter().rposition(|(c, _, h)| *c > 0 || !h.is_empty()).map_or(0, |i| i + 1)
                };
                prop_assert_eq!(ab.len(), used(&a).max(used(&b)));
                prop_assert_eq!(ab.nonspec.len(), ab.len());
                prop_assert_eq!(ab.causes().len(), ab.len());
                let total: u64 = ab.completed().iter().sum();
                let want: u64 = a.iter().chain(&b).map(|(c, _, _)| c).sum();
                prop_assert_eq!(total, want);
                let aborts: u64 = a.iter().chain(&b).map(|(_, _, h)| h.len() as u64).sum();
                prop_assert_eq!(ab.totals().total(), aborts);
            }
        }
    }

    #[test]
    fn adversarial_now_goes_to_the_sparse_tail() {
        // Regression: a single completion at a huge timestamp used to
        // resize the dense vectors to now/slot_cycles entries — O(10^18)
        // zeroed slots for the worst case below.
        let mut s = SlotSeries::new(1);
        s.record(u64::MAX, true);
        s.record(u64::MAX, false);
        s.record(DENSE_SLOT_CAP - 1, false); // last dense slot
        assert_eq!(s.len(), DENSE_SLOT_CAP as usize, "dense prefix is capped");
        let (c, n, _) = s.tail[&u64::MAX];
        assert_eq!((c, n), (2, 1));
        // The tail survives a merge.
        let mut s2 = SlotSeries::new(1);
        s2.record(u64::MAX, true);
        s.merge(&s2);
        let (c, n, _) = s.tail[&u64::MAX];
        assert_eq!((c, n), (3, 2));

        let mut c = SlotSeries::new(1);
        c.record_abort(u64::MAX, AbortCause::Capacity);
        c.record_abort(0, AbortCause::DataConflict);
        assert_eq!(c.len(), 1, "no dense blow-up");
        assert_eq!(c.totals().total(), 2, "totals include the sparse tail");
        assert!(!c.is_empty());
    }

    #[test]
    fn recorder_merge_preserves_sparse_tails() {
        let mut a = SlotSeries::new(100);
        a.record(u64::MAX - 5, false);
        a.record_abort(u64::MAX, AbortCause::Explicit);
        let mut b = SlotSeries::new(100);
        b.record(u64::MAX - 5, true);
        b.record_abort(u64::MAX, AbortCause::Explicit);
        a.merge(&b);
        let counts: Vec<(u64, u64)> = a.tail.values().map(|&(c, n, _)| (c, n)).collect();
        assert_eq!(counts, vec![(2, 1)]);
        assert_eq!(a.totals().get(AbortCause::Explicit), 2);
    }

    #[test]
    fn worst_slowdown_detects_dips() {
        let mut s = SlotSeries::new(10);
        // Three slots with 4, 4, 1 ops: average 3, worst slot 1 → 3x dip.
        for t in [0, 1, 2, 3, 10, 11, 12, 13, 20] {
            s.record(t, false);
        }
        assert!((s.worst_slowdown() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn worst_slowdown_skips_every_empty_slot() {
        // Slots 4, 0, 1, 0: the empty middle slot is skipped like the
        // empty last one, so the dip is the 1-op slot (avg 1.25).
        let mut s = SlotSeries::new(10);
        for t in [0, 1, 2, 3, 20] {
            s.record(t, false);
        }
        s.record_abort(30, AbortCause::Capacity);
        assert!((s.worst_slowdown() - 1.25).abs() < 1e-9);
    }
}
