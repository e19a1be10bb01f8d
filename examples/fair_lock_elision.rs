//! Appendix A, live: making ticket and CLH locks HLE-compatible.
//!
//! ```text
//! cargo run --release -p elision-bench --example fair_lock_elision
//! ```
//!
//! HLE requires that the store releasing a lock restore the lock word to
//! its pre-acquire value — only then can the hardware elide the whole
//! acquisition. The classic ticket lock releases by incrementing `owner`
//! (not a restore), and CLH leaves the tail pointing at the releaser's
//! node; neither can ever commit an elided critical section. The paper's
//! adaptation has the release first try `CAS`-ing the lock word back to
//! its original value, which succeeds exactly in the solo-run illusion
//! HLE provides.
//!
//! This example attempts one elided critical section with each variant
//! and shows the unadapted locks failing the restore check, then runs a
//! throughput comparison under elision.

use elision_core::{make_lock, LockKind, Scheme, SchemeConfig, SchemeKind};
use elision_htm::{harness, HtmConfig, MemoryBuilder};
use elision_sim::AbortCause;
use std::sync::Arc;

fn main() {
    println!("--- single elided critical section, per lock variant ---");
    for kind in [LockKind::TicketUnadapted, LockKind::Ticket, LockKind::ClhUnadapted, LockKind::Clh]
    {
        let outcome = solo_elision(kind);
        println!("{:<18} {}", kind.label(), outcome);
    }

    println!("\n--- elided throughput, 4 threads, disjoint data (ops/kcycle) ---");
    for kind in [LockKind::Ticket, LockKind::Clh, LockKind::Mcs] {
        let thr = disjoint_throughput(kind, SchemeKind::Hle);
        let std = disjoint_throughput(kind, SchemeKind::Standard);
        println!(
            "{:<8} HLE {:>8.2}   standard {:>8.2}   ({:.1}x from elision)",
            kind.label(),
            thr,
            std,
            thr / std
        );
    }
    println!(
        "\nThe adapted fair locks elide as well as MCS, so fair-lock programs keep \
         their starvation-freedom while gaining HLE's concurrency."
    );
}

/// Try exactly one elided critical section; report how it ended.
fn solo_elision(kind: LockKind) -> String {
    let mut b = MemoryBuilder::new();
    let data = b.alloc_isolated(0);
    let lock = make_lock(kind, &mut b, 1);
    let mem = b.freeze(1);
    let (mut results, ..) = harness::run(1, 0, HtmConfig::deterministic(), 1, mem, move |s| {
        let r = s.attempt(|s| {
            lock.elided_acquire(s)?;
            let v = s.load(data)?;
            s.store(data, v + 1)?;
            lock.elided_release(s)?;
            Ok(())
        });
        match r {
            Ok(()) => "committed speculatively (lock word restored)".to_string(),
            Err(st) if st.cause == AbortCause::HleRestore => {
                "ABORTED: release did not restore the lock word".to_string()
            }
            Err(st) => format!("aborted: {:?}", st.cause),
        }
    });
    results.pop().expect("one result")
}

/// Conflict-free workload: each thread updates its own slot under the
/// shared elided lock.
fn disjoint_throughput(kind: LockKind, scheme_kind: SchemeKind) -> f64 {
    let threads = 4;
    let ops = 300u64;
    let mut b = MemoryBuilder::new();
    let slots: Vec<_> = (0..threads).map(|_| b.alloc_isolated(0)).collect();
    let main = make_lock(kind, &mut b, threads);
    let scheme = Arc::new(
        Scheme::new(scheme_kind, SchemeConfig::paper(), main, Vec::new())
            .expect("non-SCM scheme needs no aux"),
    );
    let mem = b.freeze(threads);
    let (_, _, makespan) =
        harness::run(threads, 16, HtmConfig::deterministic(), 5, mem, move |s| {
            let my = slots[s.tid()];
            for _ in 0..ops {
                scheme.execute(s, |s| {
                    let v = s.load(my)?;
                    s.work(10)?;
                    s.store(my, v + 1)
                });
            }
        });
    ops as f64 * threads as f64 * 1000.0 / makespan as f64
}
