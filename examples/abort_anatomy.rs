//! Anatomy of an abort storm: read the sanitizer log to watch one
//! thread's transactions live through a lemming episode, and the
//! abort-status register to classify what killed each attempt.
//!
//! ```text
//! cargo run --release -p elision-bench --example abort_anatomy
//! ```

use elision_core::{make_scheme, LockKind, SchemeConfig, SchemeKind};
use elision_htm::{harness, HtmConfig, MemoryBuilder, SanAccess};
use elision_structures::{key_domain, OpMix, RbTree, TreeOp};
use std::sync::Arc;

const THREADS: usize = 8;
const TREE_SIZE: usize = 32;
/// How many of thread 0's protocol events to print.
const SHOWN: usize = 40;

/// A protocol event as one word of text; `None` for word reads and
/// writes.
fn describe(access: &SanAccess) -> Option<String> {
    Some(match access {
        SanAccess::TxnBegin => "txn-begin".to_string(),
        SanAccess::TxnCommit => "txn-commit".to_string(),
        SanAccess::TxnAbort { cause } => format!("txn-abort({})", cause.label()),
        SanAccess::LockAcquire { word } => format!("lock-acquire({})", word.index()),
        SanAccess::LockRelease { word } => format!("lock-release({})", word.index()),
        SanAccess::Marker { label, value } => format!("{label}={value}"),
        SanAccess::Read { .. } | SanAccess::Write { .. } => return None,
    })
}

fn main() {
    let domain = key_domain(TREE_SIZE);
    let mut b = MemoryBuilder::new();
    b.enable_sanitizer();
    let tree = RbTree::new(&mut b, domain as usize + 64, THREADS);
    let scheme =
        make_scheme(SchemeKind::Hle, LockKind::Mcs, SchemeConfig::paper(), &mut b, THREADS);
    let mem = Arc::new(b.freeze(THREADS));
    tree.init(&mem);
    {
        let fill = tree.clone();
        harness::run_arc(1, 0, HtmConfig::deterministic(), 7, Arc::clone(&mem), move |s| {
            let mut n = 0;
            while n < TREE_SIZE {
                let key = s.rng.below(domain);
                if fill.insert(s, key).expect("fill") {
                    n += 1;
                }
            }
        });
        tree.rebalance_freelists(&mem);
    }

    let log = mem.san_log().expect("sanitizer enabled above");
    // The fill run's entries come first; skip them.
    let fill_events = log.len();
    let tree2 = tree.clone();
    let (results, _) =
        harness::run_arc(THREADS, 16, HtmConfig::haswell(), 42, Arc::clone(&mem), move |s| {
            for _ in 0..150 {
                let op = OpMix::MODERATE.draw(&mut s.rng);
                let key = s.rng.below(domain);
                scheme.execute(s, |s| match op {
                    TreeOp::Insert => tree2.insert(s, key).map(|_| ()),
                    TreeOp::Delete => tree2.remove(s, key).map(|_| ()),
                    TreeOp::Lookup => tree2.contains(s, key).map(|_| ()),
                });
            }
            s.stats
        });

    println!("--- first {SHOWN} protocol events of thread 0 (HLE over MCS) ---");
    let (mut commits, mut aborts) = (0, 0);
    log.with_events(|events| {
        let thread0 = events[fill_events..].iter().filter(|e| e.tid == 0);
        for (e, text) in thread0.filter_map(|e| describe(&e.access).map(|t| (e, t))).take(SHOWN) {
            println!("{:>12}  {text}", e.time);
            match e.access {
                SanAccess::TxnCommit => commits += 1,
                SanAccess::TxnAbort { .. } => aborts += 1,
                _ => {}
            }
        }
    });
    println!("\nshown: {commits} commits, {aborts} aborts");

    println!("\n--- abort causes, all threads ---");
    println!(
        "{:<10} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "thread", "conflict", "capacity", "explicit", "spurious", "restore"
    );
    for (tid, st) in results.iter().enumerate() {
        println!(
            "{:<10} {:>9} {:>9} {:>9} {:>9} {:>9}",
            tid,
            st.aborts_conflict,
            st.aborts_capacity,
            st.aborts_explicit,
            st.aborts_spurious,
            st.aborts_restore
        );
    }
    println!(
        "\nReading the events: under the MCS lemming effect nearly every begin is \
         followed by an explicit abort (code 3 — the arriving thread saw the \
         queue non-empty) and the operation completes under the real lock."
    );
}
