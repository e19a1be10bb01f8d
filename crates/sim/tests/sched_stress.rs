//! Scheduler stress: liveness and clock correctness under adversarial
//! shapes — early finishers, wildly uneven costs, maximum thread counts,
//! and injected fault plans (preemption clock jumps, jitter).

use elision_sim::{FaultPlan, SimBuilder, SimHandle};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

#[test]
fn staggered_finishers_never_deadlock() {
    // Threads finish at very different times; remaining threads must keep
    // making progress past each departure.
    let n = 12;
    let out = SimBuilder::new(n).window(0).run(|ctx| {
        let steps = (ctx.id as u64 + 1) * 200;
        for _ in 0..steps {
            ctx.handle.advance(1);
        }
        ctx.handle.now()
    });
    for (id, &end) in out.end_times.iter().enumerate() {
        assert_eq!(end, (id as u64 + 1) * 200);
    }
}

#[test]
fn extreme_cost_imbalance() {
    // One thread advances in huge strides, others in tiny ones; totals
    // must still be exact and the run must finish.
    let out = SimBuilder::new(4).window(8).run(|ctx| {
        if ctx.id == 0 {
            for _ in 0..50 {
                ctx.handle.advance(10_000);
            }
        } else {
            for _ in 0..5_000 {
                ctx.handle.advance(1);
            }
        }
        ctx.handle.now()
    });
    assert_eq!(out.results[0], 500_000);
    for id in 1..4 {
        assert_eq!(out.results[id], 5_000);
    }
    assert_eq!(out.makespan, 500_000);
}

#[test]
fn many_threads_smoke() {
    let n = 32;
    let out = SimBuilder::new(n).window(16).run(|ctx| {
        for _ in 0..300 {
            ctx.handle.advance(2);
        }
        ctx.handle.now()
    });
    assert!(out.end_times.iter().all(|&t| t == 600));
}

#[test]
fn handle_clones_share_the_clock() {
    let out = SimBuilder::new(1).window(0).run(|ctx| {
        let clone: SimHandle = ctx.handle.clone();
        ctx.handle.advance(5);
        clone.advance(7);
        (ctx.handle.now(), clone.now())
    });
    assert_eq!(out.results[0], (12, 12));
}

#[test]
fn zero_window_interleaves_at_fine_grain() {
    // In strict mode with equal costs, threads must take turns at every
    // step: the recorded interleaving must alternate rather than batch.
    let n = 3;
    let order: Arc<parking_lot::Mutex<Vec<usize>>> = Arc::new(parking_lot::Mutex::new(Vec::new()));
    SimBuilder::new(n).window(0).run({
        let order = Arc::clone(&order);
        move |ctx| {
            for _ in 0..50 {
                ctx.handle.advance(1);
                order.lock().push(ctx.id);
            }
        }
    });
    let order = order.lock();
    // In any window of n consecutive events, all n threads appear.
    for w in order.windows(n) {
        let mut seen = [false; 3];
        for &id in w {
            seen[id] = true;
        }
        assert!(seen.iter().all(|&s| s), "batched interleaving: {w:?}");
    }
}

#[test]
fn fault_injected_run_accounts_every_cycle() {
    // Each thread's final clock must equal its own work plus exactly the
    // cycles the fault layer reports injecting — no cycle invented or
    // lost while clocks jump around.
    let plan = FaultPlan::none().with_preempt(500, 2_000).with_jitter(250).with_seed(11);
    let out = SimBuilder::new(6).window(8).faults(plan).run(|ctx| {
        for _ in 0..400 {
            ctx.handle.advance(7);
        }
        ctx.handle.now()
    });
    for (id, stats) in out.fault_stats.iter().enumerate() {
        let expected = 400 * 7 + stats.pause_cycles + stats.jitter_cycles;
        assert_eq!(out.end_times[id], expected, "thread {id} clock drifted from fault accounting");
        assert!(stats.preemptions > 0, "thread {id} was never preempted");
    }
}

#[test]
fn no_lost_wakeup_when_clocks_jump_past_stalled_threads() {
    // Thread 0 stalls in giant strides while the rest advance at fine
    // grain under heavy preemption. A preemption jump can leap a thread
    // far past the bounded-lag frontier; the waiters behind it must still
    // be woken when the minimum clock catches up — a lost wakeup
    // deadlocks this run (caught by the test harness as a hang).
    let plan = FaultPlan::none().with_preempt(300, 5_000).with_seed(3);
    let out = SimBuilder::new(5).window(4).faults(plan).run(|ctx| {
        let mut steps = 0u64;
        if ctx.id == 0 {
            for _ in 0..40 {
                ctx.handle.advance(25_000);
                steps += 1;
            }
        } else {
            for _ in 0..3_000 {
                ctx.handle.advance(3);
                steps += 1;
            }
        }
        steps
    });
    assert_eq!(out.results[0], 40);
    for id in 1..5 {
        assert_eq!(out.results[id], 3_000, "thread {id} lost steps");
    }
}

#[test]
fn lag_stays_bounded_under_preemption_jumps() {
    // Bounded-lag invariant under faults: a thread may land at most one
    // advance (cost + injected extra) past `min + window`. Each thread
    // posts its clock after every advance; every post checks itself
    // against the slowest still-running peer.
    let n = 4;
    let window = 16u64;
    let cost = 5u64;
    let pause = 1_200u64;
    let plan = FaultPlan::none().with_preempt(200, pause).with_jitter(200).with_seed(17);
    // One preemption threshold at most per advance (cost << interval),
    // plus jitter of at most cost/5.
    let allowed = window + cost + pause + cost;
    let clocks: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
    let done: Arc<Vec<AtomicBool>> = Arc::new((0..n).map(|_| AtomicBool::new(false)).collect());
    let worst = Arc::new(AtomicU64::new(0));
    SimBuilder::new(n).window(window).faults(plan).run({
        let clocks = Arc::clone(&clocks);
        let done = Arc::clone(&done);
        let worst = Arc::clone(&worst);
        move |ctx| {
            for _ in 0..1_500 {
                ctx.handle.advance(cost);
                let now = ctx.handle.now();
                clocks[ctx.id].store(now, Ordering::SeqCst);
                let min_other = (0..n)
                    .filter(|&j| j != ctx.id && !done[j].load(Ordering::SeqCst))
                    .map(|j| clocks[j].load(Ordering::SeqCst))
                    .min();
                if let Some(m) = min_other {
                    let lag = now.saturating_sub(m);
                    worst.fetch_max(lag, Ordering::SeqCst);
                }
            }
            done[ctx.id].store(true, Ordering::SeqCst);
        }
    });
    let worst = worst.load(Ordering::SeqCst);
    assert!(worst <= allowed, "observed lag {worst} exceeds bound {allowed}");
    assert!(worst > 0, "threads never diverged — the test observed nothing");
}

#[test]
fn fault_schedule_identical_across_reruns_at_window_zero() {
    // The fault schedule is keyed off each thread's own clock and seed
    // stream: at window 0 two runs of the same program are identical down
    // to every preemption and jitter draw.
    let plan = FaultPlan::none().with_preempt(150, 900).with_jitter(300).with_seed(29);
    let run = || {
        SimBuilder::new(4).window(0).faults(plan).run(|ctx| {
            // Vary the stride per thread so the schedules genuinely differ
            // across threads (kept >= 4 so the 30% jitter span is nonzero).
            let stride = 4 + ctx.id as u64;
            for _ in 0..800 {
                ctx.handle.advance(stride);
            }
            ctx.handle.now()
        })
    };
    let a = run();
    let b = run();
    assert_eq!(a.end_times, b.end_times);
    assert_eq!(a.results, b.results);
    assert_eq!(a.fault_stats, b.fault_stats);
    assert_eq!(a.makespan, b.makespan);
    // And the injected faults were real.
    assert!(a.fault_stats.iter().all(|s| s.preemptions > 0 && s.jitter_cycles > 0));
}

#[test]
fn monitorable_progress_under_contention() {
    // All threads hammer a host-side atomic while gated: the scheduler
    // must not starve anyone (every thread completes its share).
    let n = 8;
    let total = Arc::new(AtomicU64::new(0));
    let out = SimBuilder::new(n).window(4).run({
        let total = Arc::clone(&total);
        move |ctx| {
            let mut mine = 0u64;
            for _ in 0..500 {
                ctx.handle.advance(3);
                total.fetch_add(1, Ordering::Relaxed);
                mine += 1;
            }
            mine
        }
    });
    assert_eq!(total.load(Ordering::Relaxed), 4_000);
    assert!(out.results.iter().all(|&m| m == 500));
}

#[test]
fn exactly_one_thread_runs_at_a_time() {
    // Each thread holds a host-side "running" count across a short spin
    // between advances: at every window only the baton holder runs, so
    // the count never exceeds one.
    for window in [0, 4, 16, 128] {
        let running = Arc::new(AtomicU64::new(0));
        let worst = Arc::new(AtomicU64::new(0));
        SimBuilder::new(4).window(window).run({
            let (running, worst) = (Arc::clone(&running), Arc::clone(&worst));
            move |ctx| {
                for i in 0..200 {
                    let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                    worst.fetch_max(now, Ordering::SeqCst);
                    for _ in 0..200 {
                        std::hint::spin_loop();
                    }
                    running.fetch_sub(1, Ordering::SeqCst);
                    ctx.handle.advance(1 + (ctx.id as u64 + i) % 3);
                }
            }
        });
        let worst = worst.load(Ordering::SeqCst);
        assert_eq!(worst, 1, "{worst} threads ran at once at window {window}");
    }
}
