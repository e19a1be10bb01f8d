//! Stress and robustness tests for the STAMP kernels: every kernel must
//! verify under hostile HTM configurations, odd thread counts, and the
//! extension scheme.

use elision_core::{LockKind, SchemeKind};
use elision_htm::HtmConfig;
use elision_sim::AbortCause;
use elision_stamp::{run_kernel, KernelKind, StampParams};

#[test]
fn kernels_verify_with_odd_thread_counts() {
    for kind in [KernelKind::Genome, KernelKind::Intruder, KernelKind::VacationLow] {
        for threads in [1usize, 3, 5, 7] {
            let run = run_kernel(
                kind,
                SchemeKind::HleScm,
                LockKind::Mcs,
                threads,
                &StampParams::quick(),
                0,
                HtmConfig::deterministic(),
            );
            assert!(run.makespan > 0, "{kind} with {threads} threads");
        }
    }
}

#[test]
fn kernels_verify_under_spurious_storm() {
    let storm = HtmConfig::deterministic().with_spurious(0.25, 0.001);
    for kind in KernelKind::ALL {
        let run = run_kernel(
            kind,
            SchemeKind::OptSlr,
            LockKind::Ttas,
            4,
            &StampParams::quick(),
            0,
            storm,
        );
        assert!(
            run.counters.causes.get(AbortCause::FaultInjected) > 0,
            "{kind}: storm did not fire"
        );
    }
}

#[test]
fn kernels_verify_under_tight_capacity() {
    // Labyrinth's big transactions must overflow and fall back; everything
    // still verifies.
    let tight = HtmConfig::deterministic().with_capacity(48, 16);
    for kind in [KernelKind::Labyrinth, KernelKind::Yada, KernelKind::VacationHigh] {
        let run = run_kernel(
            kind,
            SchemeKind::OptSlr,
            LockKind::Ttas,
            4,
            &StampParams::quick(),
            0,
            tight,
        );
        if kind == KernelKind::Labyrinth {
            assert!(
                run.counters.causes.get(AbortCause::Capacity) > 0,
                "labyrinth should hit the capacity limit"
            );
            assert!(
                run.counters.frac_nonspeculative() > 0.3,
                "capacity-bound labyrinth should mostly fall back, got {:.3}",
                run.counters.frac_nonspeculative()
            );
        }
    }
}

#[test]
fn kernels_verify_with_bounded_lag_window() {
    for kind in [KernelKind::Ssca2, KernelKind::KmeansLow, KernelKind::Yada] {
        let run = run_kernel(
            kind,
            SchemeKind::SlrScm,
            LockKind::Clh,
            4,
            &StampParams::quick(),
            32,
            HtmConfig::deterministic(),
        );
        assert!(run.counters.completed() > 0, "{kind}");
    }
}

#[test]
fn stamp_contention_ordering_holds() {
    // vacation-high (more queries over a smaller key space) must abort
    // more than vacation-low under the same scheme.
    let high = run_kernel(
        KernelKind::VacationHigh,
        SchemeKind::OptSlr,
        LockKind::Ttas,
        6,
        &StampParams::quick(),
        0,
        HtmConfig::deterministic(),
    );
    let low = run_kernel(
        KernelKind::VacationLow,
        SchemeKind::OptSlr,
        LockKind::Ttas,
        6,
        &StampParams::quick(),
        0,
        HtmConfig::deterministic(),
    );
    let rate = |r: &elision_stamp::StampRun| {
        r.counters.aborted as f64 / r.counters.completed().max(1) as f64
    };
    assert!(
        rate(&high) > rate(&low),
        "vacation_high should conflict more ({:.3} vs {:.3})",
        rate(&high),
        rate(&low)
    );
}

#[test]
fn intruder_queue_contention_shows_up() {
    // Intruder's shared queues make it the high-contention kernel: its
    // abort rate under SLR should exceed ssca2's by a wide margin.
    let intruder = run_kernel(
        KernelKind::Intruder,
        SchemeKind::OptSlr,
        LockKind::Ttas,
        6,
        &StampParams::quick(),
        0,
        HtmConfig::deterministic(),
    );
    let ssca2 = run_kernel(
        KernelKind::Ssca2,
        SchemeKind::OptSlr,
        LockKind::Ttas,
        6,
        &StampParams::quick(),
        0,
        HtmConfig::deterministic(),
    );
    let rate = |r: &elision_stamp::StampRun| {
        r.counters.aborted as f64 / r.counters.completed().max(1) as f64
    };
    assert!(rate(&intruder) > 2.0 * rate(&ssca2));
}
