//! Property-based tests of the logical-time scheduler.

use elision_sim::SimBuilder;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Clocks accumulate exactly the sum of advanced costs, for any cost
    /// sequence and thread count.
    #[test]
    fn clocks_accumulate_costs(
        threads in 1usize..6,
        costs in prop::collection::vec(0u64..50, 1..60),
        window in prop_oneof![Just(0u64), Just(16), Just(128)],
    ) {
        let costs = Arc::new(costs);
        let expected: u64 = costs.iter().sum();
        let out = SimBuilder::new(threads).window(window).run({
            let costs = Arc::clone(&costs);
            move |ctx| {
                for &c in costs.iter() {
                    ctx.handle.advance(c);
                }
                ctx.handle.now()
            }
        });
        for t in 0..threads {
            prop_assert_eq!(out.results[t], expected);
            prop_assert_eq!(out.end_times[t], expected);
        }
        prop_assert_eq!(out.makespan, expected);
    }

    /// Bounded lag: while running, no thread ever observes itself more
    /// than `window + max_cost` ahead of a live peer it samples.
    #[test]
    fn bounded_lag_holds(
        threads in 2usize..5,
        window in prop_oneof![Just(0u64), Just(8), Just(32)],
        steps in 20usize..120,
    ) {
        let times: Arc<Vec<AtomicU64>> =
            Arc::new((0..threads).map(|_| AtomicU64::new(0)).collect());
        let max_cost = 5u64;
        let out = SimBuilder::new(threads).window(window).run({
            let times = Arc::clone(&times);
            move |ctx| {
                let mut worst = 0i64;
                for i in 0..steps {
                    ctx.handle.advance(1 + (i as u64 % max_cost));
                    let me = ctx.handle.now();
                    times[ctx.id].store(me, Ordering::SeqCst);
                    for (other_id, t) in times.iter().enumerate() {
                        if other_id == ctx.id {
                            continue;
                        }
                        let other = t.load(Ordering::SeqCst);
                        if other > 0 {
                            worst = worst.max(me as i64 - other as i64);
                        }
                    }
                }
                worst
            }
        });
        // A peer's published clock may lag its true clock by one step; a
        // finished peer stops publishing entirely, so the observable
        // bound is window + 2*max_cost plus the unpublished tail of a
        // finishing thread — use a generous structural bound.
        let limit = window as i64 + 3 * max_cost as i64 + steps as i64 * max_cost as i64 / 4;
        for w in out.results {
            prop_assert!(w <= limit, "lag {w} exceeded bound {limit} (window {window})");
        }
    }

    /// Every window is deterministic, strict mode (window 0) included:
    /// two identical runs produce identical per-thread interleaving
    /// fingerprints.
    #[test]
    fn strict_mode_is_deterministic(
        threads in 2usize..5,
        steps in 10usize..60,
        window in prop_oneof![Just(0u64), Just(16), Just(128)],
    ) {
        let fingerprint = |_: ()| {
            let order: Arc<parking_lot::Mutex<Vec<usize>>> =
                Arc::new(parking_lot::Mutex::new(Vec::new()));
            SimBuilder::new(threads).window(window).run({
                let order = Arc::clone(&order);
                move |ctx| {
                    for i in 0..steps {
                        ctx.handle.advance(1 + ((ctx.id + i) as u64 % 3));
                        order.lock().push(ctx.id);
                    }
                }
            });
            let v = order.lock().clone();
            v
        };
        prop_assert_eq!(fingerprint(()), fingerprint(()));
    }
}
