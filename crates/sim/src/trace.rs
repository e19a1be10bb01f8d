//! A lightweight bounded execution trace.
//!
//! Debugging a lock-elision pathology usually means asking "what did this
//! thread do around the time throughput collapsed?". Each simulated
//! thread can carry a [`TraceRing`] that records timestamped events
//! (transaction begins/commits/aborts, lock transitions, custom markers)
//! in a bounded ring — cheap enough to leave on during experiments, and
//! dumpable as aligned text after the run.

use crate::stats::AbortCause;
use std::collections::VecDeque;
use std::fmt;

/// One traced event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A transaction began.
    TxnBegin,
    /// A transaction committed.
    TxnCommit,
    /// A transaction aborted, classified by the telemetry taxonomy (the
    /// same [`AbortCause`] the histograms and JSON emitters use, so the
    /// trace never drifts from the aggregate counters).
    TxnAbort(AbortCause),
    /// A lock was acquired non-speculatively; the payload is the raw
    /// index of the lock's primary word (its identity for lint passes).
    LockAcquire(u32),
    /// A lock was released non-speculatively; the payload is the raw
    /// index of the lock's primary word.
    LockRelease(u32),
    /// A user-defined marker with a label and value.
    Custom(&'static str, u64),
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::TxnBegin => write!(f, "txn-begin"),
            TraceEvent::TxnCommit => write!(f, "txn-commit"),
            TraceEvent::TxnAbort(cause) => write!(f, "txn-abort({})", cause.label()),
            TraceEvent::LockAcquire(word) => write!(f, "lock-acquire({word})"),
            TraceEvent::LockRelease(word) => write!(f, "lock-release({word})"),
            TraceEvent::Custom(label, v) => write!(f, "{label}={v}"),
        }
    }
}

/// A bounded ring of timestamped [`TraceEvent`]s.
///
/// The ring starts empty and grows on demand up to `capacity` events, so
/// a generous bound costs nothing until it is used. Older events are
/// dropped once `capacity` is reached; `dropped()` reports how many.
#[derive(Debug, Clone)]
pub struct TraceRing {
    capacity: usize,
    events: VecDeque<(u64, TraceEvent)>,
    dropped: u64,
}

impl TraceRing {
    /// Create an empty ring that will hold at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a trace ring needs room for at least one event");
        TraceRing { capacity, events: VecDeque::new(), dropped: 0 }
    }

    /// Record `event` at logical time `now`.
    pub fn record(&mut self, now: u64, event: TraceEvent) {
        let len = self.events.len();
        if len == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        } else if len == self.events.capacity() {
            // Double, but never past the bound.
            self.events.reserve_exact(len.max(4).min(self.capacity - len));
        }
        self.events.push_back((now, event));
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &(u64, TraceEvent)> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// How many events were evicted by the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Render the trace as aligned text, one event per line.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        if self.dropped > 0 {
            out.push_str(&format!("... {} earlier events dropped ...\n", self.dropped));
        }
        for (t, ev) in &self.events {
            out.push_str(&format!("{t:>12}  {ev}\n"));
        }
        out
    }

    /// Count retained events matching a predicate.
    pub fn count(&self, pred: impl Fn(&TraceEvent) -> bool) -> usize {
        self.events.iter().filter(|(_, e)| pred(e)).count()
    }
}

/// One entry of a [`GlobalTrace`]: a per-thread trace event tagged with
/// the thread that recorded it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalEvent {
    /// Logical time the event was recorded at.
    pub time: u64,
    /// The recording simulated thread.
    pub tid: usize,
    /// The recorded event.
    pub event: TraceEvent,
}

/// A total-order merge of per-thread [`TraceRing`]s.
///
/// Events are ordered by `(time, tid)` with same-thread events keeping
/// their ring (program) order. Under the strict scheduler window the
/// runnable thread is always the one with the lexicographically smallest
/// `(clock, id)`, so this ordering *is* the execution order — which is
/// what makes cross-thread protocol lints (lock discipline, subscription
/// ordering) sound over the merged trace.
#[derive(Debug, Clone, Default)]
pub struct GlobalTrace {
    events: Vec<GlobalEvent>,
    dropped: u64,
}

impl GlobalTrace {
    /// Merge `(tid, ring)` pairs into one totally ordered trace.
    pub fn merge<'a>(rings: impl IntoIterator<Item = (usize, &'a TraceRing)>) -> Self {
        let mut events = Vec::new();
        let mut dropped = 0;
        for (tid, ring) in rings {
            dropped += ring.dropped();
            for &(time, event) in ring.events() {
                events.push(GlobalEvent { time, tid, event });
            }
        }
        // Stable sort: same-(time, tid) entries keep ring order.
        events.sort_by_key(|e| (e.time, e.tid));
        GlobalTrace { events, dropped }
    }

    /// The merged events, in execution order.
    pub fn events(&self) -> &[GlobalEvent] {
        &self.events
    }

    /// Number of merged events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the merge is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total events evicted from the source rings before merging. A
    /// nonzero value means the merge has gaps: lint passes that track
    /// balanced acquire/release or begin/commit pairs are unreliable on
    /// truncated traces and should refuse to run.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Render the merged trace as aligned text, one event per line.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        if self.dropped > 0 {
            out.push_str(&format!("... {} events dropped before merging ...\n", self.dropped));
        }
        for e in &self.events {
            out.push_str(&format!("{:>12}  t{:<3} {}\n", e.time, e.tid, e.event));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order() {
        let mut r = TraceRing::new(8);
        r.record(10, TraceEvent::TxnBegin);
        r.record(20, TraceEvent::TxnCommit);
        let seq: Vec<_> = r.events().cloned().collect();
        assert_eq!(seq, vec![(10, TraceEvent::TxnBegin), (20, TraceEvent::TxnCommit)]);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut r = TraceRing::new(3);
        for t in 0..5 {
            r.record(t, TraceEvent::Custom("step", t));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let first = r.events().next().cloned().expect("nonempty");
        assert_eq!(first.0, 2);
    }

    #[test]
    fn dump_mentions_drops_and_events() {
        let mut r = TraceRing::new(2);
        r.record(1, TraceEvent::TxnBegin);
        r.record(2, TraceEvent::TxnAbort(AbortCause::DataConflict));
        r.record(3, TraceEvent::LockAcquire(7));
        let d = r.dump();
        assert!(d.contains("1 earlier events dropped"));
        assert!(d.contains("txn-abort(data_conflict)"));
        assert!(d.contains("lock-acquire(7)"));
    }

    #[test]
    fn count_filters() {
        let mut r = TraceRing::new(10);
        r.record(1, TraceEvent::TxnBegin);
        r.record(2, TraceEvent::TxnAbort(AbortCause::FaultInjected));
        r.record(3, TraceEvent::TxnBegin);
        r.record(4, TraceEvent::TxnCommit);
        assert_eq!(r.count(|e| matches!(e, TraceEvent::TxnBegin)), 2);
        assert_eq!(r.count(|e| matches!(e, TraceEvent::TxnAbort(_))), 1);
    }

    #[test]
    #[should_panic(expected = "room for at least one")]
    fn zero_capacity_rejected() {
        TraceRing::new(0);
    }

    #[test]
    fn global_merge_orders_by_time_then_tid() {
        let mut r0 = TraceRing::new(8);
        r0.record(5, TraceEvent::LockAcquire(0));
        r0.record(9, TraceEvent::LockRelease(0));
        let mut r1 = TraceRing::new(8);
        r1.record(2, TraceEvent::TxnBegin);
        r1.record(5, TraceEvent::TxnCommit);
        let g = GlobalTrace::merge([(0, &r0), (1, &r1)]);
        let seq: Vec<(u64, usize)> = g.events().iter().map(|e| (e.time, e.tid)).collect();
        assert_eq!(seq, vec![(2, 1), (5, 0), (5, 1), (9, 0)]);
        assert_eq!(g.len(), 4);
        assert_eq!(g.dropped(), 0);
        assert!(g.dump().contains("lock-release(0)"));
    }

    #[test]
    fn global_merge_keeps_program_order_within_a_thread() {
        // Two same-time events on one thread must keep ring order even
        // though the sort key cannot distinguish them.
        let mut r = TraceRing::new(8);
        r.record(3, TraceEvent::TxnBegin);
        r.record(3, TraceEvent::TxnCommit);
        let g = GlobalTrace::merge([(0, &r)]);
        assert_eq!(g.events()[0].event, TraceEvent::TxnBegin);
        assert_eq!(g.events()[1].event, TraceEvent::TxnCommit);
    }

    #[test]
    fn global_merge_propagates_drops() {
        let mut r = TraceRing::new(1);
        r.record(1, TraceEvent::TxnBegin);
        r.record(2, TraceEvent::TxnCommit);
        let g = GlobalTrace::merge([(0, &r)]);
        assert_eq!(g.dropped(), 1);
        assert!(g.dump().contains("dropped before merging"));
    }
}
