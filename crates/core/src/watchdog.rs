//! Starvation watchdog: caller-owned liveness accounting.
//!
//! The chaos harness needs to assert that *no individual operation*
//! starves under injected faults — aggregate throughput can look healthy
//! while one thread spins forever. A [`Watchdog`] records, per completed
//! operation, how many attempts it took and how many simulated cycles
//! elapsed; it tracks the worst case, flags budget violations, and can
//! report completion-time percentiles for degradation curves.
//!
//! Completion times are held in a bounded [`LatencyHistogram`] rather
//! than a raw sample vector, so the open-loop service engine can record
//! millions of requests at fixed memory and query percentiles in
//! O(buckets) instead of re-sorting every sample per query.
//!
//! The watchdog is plain data owned by the measuring thread (merge
//! per-thread instances afterwards with [`Watchdog::merge`]); it adds no
//! synchronization to the measured path.

/// Number of sub-buckets per octave, as a power of two: 2^7 = 128
/// sub-buckets give a guaranteed relative error below 1/128 < 1%.
const PRECISION_BITS: u32 = 7;
/// Sub-buckets per octave.
const SUB_BUCKETS: u64 = 1 << PRECISION_BITS;
/// Values below `EXACT_LIMIT` get a unit-width bucket each (no error).
const EXACT_LIMIT: u64 = 1 << (PRECISION_BITS + 1);
/// First octave that needs sub-bucketing (values >= `EXACT_LIMIT`).
const FIRST_OCTAVE: u32 = PRECISION_BITS + 1;
/// Bucket count of the full `u64` range: the exact region plus
/// `SUB_BUCKETS` per octave for every octave up to 2^63.
#[cfg(test)]
const BUCKETS: usize = (EXACT_LIMIT + (64 - FIRST_OCTAVE as u64) * SUB_BUCKETS) as usize;

/// A bounded log-bucketed (HDR-style) histogram of `u64` samples.
///
/// Values below 256 land in exact unit-width buckets; larger values are
/// bucketed with 128 sub-buckets per power-of-two octave, so any
/// reported quantile is within **1% relative error** of the true sample
/// (error ≤ 1/128 ≈ 0.78%, and the reported value never exceeds the
/// true maximum). Memory is one counter per bucket up to the highest
/// bucket recorded, at most ~7.4k however many samples are recorded
/// (2.2k for samples below 10M), and [`LatencyHistogram::merge`] is
/// exact — bucket boundaries are identical across instances, so merging
/// per-thread histograms loses nothing over recording centrally.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    /// Counts of buckets `0..=index(max)`; grown on demand.
    counts: Vec<u64>,
    total: u64,
    /// Exact extrema, tracked outside the buckets so `percentile(0)` /
    /// `percentile(100)` stay exact and bucket upper bounds can be
    /// clamped to values actually observed.
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram { counts: Vec::new(), total: 0, min: u64::MAX, max: 0 }
    }

    /// The bucket index of `value`.
    fn index(value: u64) -> usize {
        if value < EXACT_LIMIT {
            value as usize
        } else {
            let octave = 63 - value.leading_zeros();
            let shift = octave - PRECISION_BITS;
            let sub = (value >> shift) & (SUB_BUCKETS - 1);
            (EXACT_LIMIT + (octave - FIRST_OCTAVE) as u64 * SUB_BUCKETS + sub) as usize
        }
    }

    /// The largest value mapping to bucket `index` (the reported
    /// representative, so quantiles never under-report).
    fn upper_bound(index: usize) -> u64 {
        let index = index as u64;
        if index < EXACT_LIMIT {
            index
        } else {
            let rel = index - EXACT_LIMIT;
            let octave = FIRST_OCTAVE + (rel / SUB_BUCKETS) as u32;
            let sub = rel % SUB_BUCKETS;
            let shift = octave - PRECISION_BITS;
            // OR in the low bits rather than adding: for the topmost
            // bucket `(SUB_BUCKETS + sub + 1) << shift` is 2^64.
            ((SUB_BUCKETS + sub) << shift) | ((1 << shift) - 1)
        }
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        let i = Self::index(value);
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
        self.total += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The exact largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The exact smallest sample (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.total > 0).then_some(self.min)
    }

    /// The `p`-th percentile (0..=100, nearest-rank over buckets);
    /// `None` when empty. O(buckets), and within 1% relative error of
    /// the exact nearest-rank sample value.
    pub fn percentile(&self, p: u32) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        // Integer nearest-rank, matching the old sort-based
        // implementation exactly (float quantiles can round the rank).
        let p = u64::from(p.min(100));
        Some(self.value_at_rank((p * self.total).div_ceil(100).max(1)))
    }

    /// The `q`-quantile for `q` in `[0, 1]` (nearest-rank over buckets);
    /// `None` when empty. Supports tail quantiles finer than whole
    /// percentiles, e.g. `quantile(0.999)` for p999.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        Some(self.value_at_rank(rank))
    }

    /// The representative value of the bucket holding the sample of the
    /// given nearest-rank (1-based; caller guarantees `1 <= rank <=
    /// total`).
    fn value_at_rank(&self, rank: u64) -> u64 {
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Clamp to the exact extrema: the true sample cannot lie
                // outside [min, max] even when the bucket bound does.
                return Self::upper_bound(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Fold another histogram into this one. Exact: both instances use
    /// identical bucket boundaries, so the merged histogram equals the
    /// histogram of the concatenated sample streams.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The non-empty buckets as `(upper_bound, count, cumulative)` rows
    /// in increasing value order — the CDF the service reports serialize.
    pub fn cdf(&self) -> Vec<(u64, u64, u64)> {
        let mut rows = Vec::new();
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                cum += c;
                rows.push((Self::upper_bound(i).clamp(self.min, self.max), c, cum));
            }
        }
        rows
    }
}

/// Per-operation attempt/latency accounting with a starvation budget.
#[derive(Debug, Clone)]
pub struct Watchdog {
    /// Attempts above this count a violation (0 disables the check).
    attempt_budget: u32,
    /// Worst attempts observed for a single operation.
    max_attempts: u32,
    /// Operations that exceeded the attempt budget.
    violations: u64,
    /// Total attempts across all recorded operations.
    total_attempts: u64,
    /// Completion times (cycles) of recorded operations, log-bucketed.
    cycles: LatencyHistogram,
}

impl Watchdog {
    /// A watchdog flagging operations that need more than
    /// `attempt_budget` attempts (0 disables violation counting).
    pub fn new(attempt_budget: u32) -> Self {
        Watchdog {
            attempt_budget,
            max_attempts: 0,
            violations: 0,
            total_attempts: 0,
            cycles: LatencyHistogram::new(),
        }
    }

    /// Record one completed operation: how many attempts it took and how
    /// many simulated cycles elapsed from start to completion.
    pub fn record(&mut self, attempts: u32, cycles: u64) {
        self.max_attempts = self.max_attempts.max(attempts);
        self.total_attempts += u64::from(attempts);
        if self.attempt_budget > 0 && attempts > self.attempt_budget {
            self.violations += 1;
        }
        self.cycles.record(cycles);
    }

    /// Operations recorded so far.
    pub fn operations(&self) -> u64 {
        self.cycles.count()
    }

    /// Worst attempts observed for a single operation.
    pub fn max_attempts(&self) -> u32 {
        self.max_attempts
    }

    /// The attempt budget violations are judged against.
    pub fn attempt_budget(&self) -> u32 {
        self.attempt_budget
    }

    /// Operations that exceeded the attempt budget.
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// Total attempts across all recorded operations.
    pub fn total_attempts(&self) -> u64 {
        self.total_attempts
    }

    /// Mean attempts per operation (0.0 when nothing recorded).
    pub fn mean_attempts(&self) -> f64 {
        if self.cycles.count() == 0 {
            0.0
        } else {
            self.total_attempts as f64 / self.cycles.count() as f64
        }
    }

    /// The `p`-th percentile (0..=100, nearest-rank) of operation
    /// completion cycles; `None` when nothing was recorded. O(buckets)
    /// per query, within 1% relative error of the exact sample (exact
    /// for values below 256 — see [`LatencyHistogram`]).
    pub fn percentile(&self, p: u32) -> Option<u64> {
        self.cycles.percentile(p)
    }

    /// The completion-time histogram (CDF rows, tail quantiles).
    pub fn histogram(&self) -> &LatencyHistogram {
        &self.cycles
    }

    /// Fold another watchdog (e.g. a different thread's) into this one.
    ///
    /// Both watchdogs must use the same `attempt_budget`: summing
    /// violation counts judged against different budgets would produce a
    /// number with no meaning. Debug builds assert this; release builds
    /// keep `self`'s budget for subsequent records.
    pub fn merge(&mut self, other: &Watchdog) {
        debug_assert_eq!(
            self.attempt_budget, other.attempt_budget,
            "merging watchdogs with different attempt budgets ({} vs {}): \
             their violation counts are judged against different lines",
            self.attempt_budget, other.attempt_budget
        );
        self.max_attempts = self.max_attempts.max(other.max_attempts);
        self.violations += other.violations;
        self.total_attempts += other.total_attempts;
        self.cycles.merge(&other.cycles);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_max_and_violations() {
        let mut w = Watchdog::new(5);
        w.record(1, 100);
        w.record(7, 900);
        w.record(3, 300);
        assert_eq!(w.operations(), 3);
        assert_eq!(w.max_attempts(), 7);
        assert_eq!(w.violations(), 1);
        assert!((w.mean_attempts() - 11.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn zero_budget_disables_violations() {
        let mut w = Watchdog::new(0);
        w.record(1000, 1);
        assert_eq!(w.violations(), 0);
        assert_eq!(w.max_attempts(), 1000);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut w = Watchdog::new(0);
        for c in [50, 10, 40, 20, 30] {
            w.record(1, c);
        }
        assert_eq!(w.percentile(0), Some(10));
        assert_eq!(w.percentile(50), Some(30));
        assert_eq!(w.percentile(90), Some(50));
        assert_eq!(w.percentile(100), Some(50));
        assert_eq!(Watchdog::new(0).percentile(50), None);
    }

    #[test]
    fn merge_combines() {
        let mut a = Watchdog::new(2);
        a.record(1, 10);
        a.record(3, 30);
        let mut b = Watchdog::new(2);
        b.record(4, 40);
        a.merge(&b);
        assert_eq!(a.operations(), 3);
        assert_eq!(a.max_attempts(), 4);
        assert_eq!(a.violations(), 2);
        assert_eq!(a.percentile(100), Some(40));
    }

    #[test]
    #[should_panic(expected = "different attempt budgets")]
    #[cfg(debug_assertions)]
    fn merge_rejects_mismatched_budgets() {
        let mut a = Watchdog::new(2);
        a.merge(&Watchdog::new(3));
    }

    /// The old exact implementation, kept as the test oracle: sort the
    /// raw samples, take nearest-rank.
    fn exact_percentile(samples: &[u64], p: u32) -> Option<u64> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let p = p.min(100) as usize;
        let rank = (p * sorted.len()).div_ceil(100).max(1);
        Some(sorted[rank - 1])
    }

    #[test]
    fn histogram_is_exact_below_256() {
        // The unit-width bucket region reproduces the old Vec-based
        // implementation bit for bit on small inputs — the equivalence
        // the pre-rewrite tests relied on.
        let samples: Vec<u64> = (0..200).map(|i| (i * 37 + 11) % 256).collect();
        let mut w = Watchdog::new(0);
        for &s in &samples {
            w.record(1, s);
        }
        for p in 0..=100 {
            assert_eq!(w.percentile(p), exact_percentile(&samples, p), "p{p}");
        }
    }

    #[test]
    fn histogram_within_one_percent_of_exact() {
        // Large samples across many octaves: every percentile must be
        // within the documented 1% relative error of the exact
        // nearest-rank value, and never above the true maximum.
        let mut samples = Vec::new();
        let mut x = 0x0123_4567_89AB_CDEF_u64;
        for _ in 0..5000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            samples.push(x % 50_000_000);
        }
        let mut w = Watchdog::new(0);
        for &s in &samples {
            w.record(1, s);
        }
        let max = *samples.iter().max().unwrap();
        for p in [0, 1, 10, 25, 50, 75, 90, 95, 99, 100] {
            let exact = exact_percentile(&samples, p).unwrap();
            let approx = w.percentile(p).unwrap();
            assert!(approx <= max, "p{p}: {approx} above true max {max}");
            assert!(approx >= exact, "p{p}: bucket upper bound must not under-report");
            let err = (approx - exact) as f64 / exact.max(1) as f64;
            assert!(err <= 0.01, "p{p}: {approx} vs exact {exact} (err {err:.4})");
        }
    }

    #[test]
    fn histogram_memory_is_bounded() {
        // Millions of records, bounded footprint: the bucket array never
        // outgrows the full range, and holds exactly the buckets up to the
        // largest sample (this is the property that lets the open-loop
        // engine log every request).
        let mut h = LatencyHistogram::new();
        for i in 0..2_000_000u64 {
            h.record(i.wrapping_mul(0x9E37_79B9) % 10_000_000);
        }
        assert!(h.counts.len() <= BUCKETS);
        assert_eq!(h.counts.len(), LatencyHistogram::index(h.max()) + 1);
        assert_eq!(h.count(), 2_000_000);
        let mut top = LatencyHistogram::new();
        top.record(u64::MAX);
        assert_eq!(top.counts.len(), BUCKETS);
    }

    #[test]
    fn histogram_merge_is_exact() {
        // merge(a, b) must equal the histogram of the concatenation, for
        // counts, extrema and every bucket.
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut whole = LatencyHistogram::new();
        for i in 0..1000u64 {
            let v = (i * i * 31) % 1_000_000;
            if i % 3 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
        assert_eq!(a.counts, whole.counts);
        for p in [1, 50, 99, 100] {
            assert_eq!(a.percentile(p), whole.percentile(p), "p{p}");
        }
    }

    #[test]
    fn quantile_reaches_into_the_tail() {
        let mut h = LatencyHistogram::new();
        for _ in 0..999 {
            h.record(100);
        }
        h.record(1_000_000);
        assert_eq!(h.quantile(0.5), Some(100));
        // The single outlier is exactly the p999+ tail.
        let p999 = h.quantile(0.999).unwrap();
        assert!(p999 >= 100, "tail quantile must see the distribution");
        let p9999 = h.quantile(0.9999).unwrap();
        assert_eq!(p9999, 1_000_000, "top quantile is clamped to the exact max");
        assert_eq!(h.quantile(1.0), Some(1_000_000));
    }

    #[test]
    fn cdf_rows_are_monotonic_and_complete() {
        let mut h = LatencyHistogram::new();
        for v in [5u64, 5, 300, 70_000, 70_000, 70_001, 9_000_000] {
            h.record(v);
        }
        let rows = h.cdf();
        assert_eq!(rows.last().unwrap().2, h.count(), "cumulative reaches the total");
        let mut prev_bound = 0;
        let mut prev_cum = 0;
        for &(bound, count, cum) in &rows {
            assert!(bound >= prev_bound, "bounds increase");
            assert!(count > 0, "only non-empty buckets appear");
            assert_eq!(cum, prev_cum + count, "cumulative sums the counts");
            prev_bound = bound;
            prev_cum = cum;
        }
    }

    #[test]
    fn bucket_index_and_bound_are_consistent() {
        // Every value maps to a bucket whose upper bound is >= the value
        // and within 1% of it (exhaustive near the exact/bucketed border,
        // sampled across the octaves).
        let check = |v: u64| {
            let i = LatencyHistogram::index(v);
            let hi = LatencyHistogram::upper_bound(i);
            assert!(hi >= v, "upper_bound({i}) = {hi} < value {v}");
            let err = (hi - v) as f64 / v.max(1) as f64;
            assert!(err <= 1.0 / 128.0, "value {v}: bound {hi} off by {err:.5}");
        };
        for v in 0..5000 {
            check(v);
        }
        for shift in 13..63 {
            for off in [0u64, 1, 12345] {
                check((1u64 << shift) + off);
            }
        }
        check(u64::MAX);
    }
}
