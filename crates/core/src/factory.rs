//! Convenience constructors wiring lock types and schemes together, used
//! by benchmarks, examples and tests.

use crate::scheme::{Scheme, SchemeConfig, SchemeKind};
use elision_htm::MemoryBuilder;
use elision_locks::{ClhLock, McsLock, RawLock, TicketLock, TtasLock};
use std::fmt;
use std::sync::Arc;

/// The lock families the paper evaluates (plus the unadapted ticket/CLH
/// variants kept for demonstrating HLE incompatibility).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockKind {
    /// Test-and-test-and-set spinlock (unfair).
    Ttas,
    /// MCS queue lock (fair, HLE-compatible as-is).
    Mcs,
    /// HLE-adapted ticket lock (fair; paper Appendix A).
    Ticket,
    /// HLE-adapted CLH lock (fair; paper Appendix A).
    Clh,
    /// Original ticket lock — incompatible with HLE.
    TicketUnadapted,
    /// Original CLH lock — incompatible with HLE.
    ClhUnadapted,
}

impl LockKind {
    /// A short display label.
    pub fn label(&self) -> &'static str {
        match self {
            LockKind::Ttas => "TTAS",
            LockKind::Mcs => "MCS",
            LockKind::Ticket => "Ticket",
            LockKind::Clh => "CLH",
            LockKind::TicketUnadapted => "Ticket-unadapted",
            LockKind::ClhUnadapted => "CLH-unadapted",
        }
    }
}

impl fmt::Display for LockKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Allocate a lock of the given kind for `threads` simulated threads.
pub fn make_lock(kind: LockKind, b: &mut MemoryBuilder, threads: usize) -> Arc<dyn RawLock> {
    match kind {
        LockKind::Ttas => Arc::new(TtasLock::new(b)),
        LockKind::Mcs => Arc::new(McsLock::new(b, threads)),
        LockKind::Ticket => Arc::new(TicketLock::new(b, threads)),
        LockKind::Clh => Arc::new(ClhLock::new(b, threads)),
        LockKind::TicketUnadapted => Arc::new(TicketLock::new_unadapted(b, threads)),
        LockKind::ClhUnadapted => Arc::new(ClhLock::new_unadapted(b, threads)),
    }
}

/// Build a complete scheme over a fresh main lock (and, for SCM schemes,
/// a fresh fair MCS auxiliary lock, as the paper recommends).
pub fn make_scheme(
    scheme: SchemeKind,
    lock: LockKind,
    cfg: SchemeConfig,
    b: &mut MemoryBuilder,
    threads: usize,
) -> Arc<Scheme> {
    make_scheme_with_aux(scheme, lock, LockKind::Mcs, cfg, b, threads)
}

/// Build the grouped-SCM extension (§8 future work): `groups` auxiliary
/// MCS locks, selected by the conflict line reported in the abort status.
pub fn make_grouped_scm(
    lock: LockKind,
    groups: usize,
    cfg: SchemeConfig,
    b: &mut MemoryBuilder,
    threads: usize,
) -> Arc<Scheme> {
    let main = make_lock(lock, b, threads);
    let aux = (0..groups.max(1)).map(|_| make_lock(LockKind::Mcs, b, threads)).collect();
    // `groups.max(1)` guarantees at least one aux lock.
    Arc::new(
        Scheme::new(SchemeKind::GroupedScm, cfg, main, aux)
            .expect("at least one aux by construction"),
    )
}

/// Like [`make_scheme`] but with an explicit auxiliary lock kind (the
/// SCM-fairness ablation).
pub fn make_scheme_with_aux(
    scheme: SchemeKind,
    lock: LockKind,
    aux_lock: LockKind,
    cfg: SchemeConfig,
    b: &mut MemoryBuilder,
    threads: usize,
) -> Arc<Scheme> {
    let main = make_lock(lock, b, threads);
    let aux = if scheme.uses_aux() { vec![make_lock(aux_lock, b, threads)] } else { Vec::new() };
    // The aux lock is supplied exactly when the scheme needs it, so
    // construction cannot fail.
    Arc::new(Scheme::new(scheme, cfg, main, aux).expect("aux wired by construction"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct() {
        let all = [
            LockKind::Ttas,
            LockKind::Mcs,
            LockKind::Ticket,
            LockKind::Clh,
            LockKind::TicketUnadapted,
            LockKind::ClhUnadapted,
        ];
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a.label(), b.label());
            }
        }
    }

    #[test]
    fn make_scheme_wires_aux_for_scm() {
        let mut b = MemoryBuilder::new();
        let s = make_scheme(SchemeKind::HleScm, LockKind::Ttas, SchemeConfig::paper(), &mut b, 2);
        assert_eq!(s.kind(), SchemeKind::HleScm);
        let s2 = make_scheme(SchemeKind::Hle, LockKind::Mcs, SchemeConfig::paper(), &mut b, 2);
        assert_eq!(s2.main_lock().name(), "MCS");
    }
}
