//! Named chaos profiles: preset fault-injection configurations shared by
//! `fig2_lemming` / `hashtable_bench` (`--chaos NAME`) and the
//! `chaos_stress` and `sanitize_all` harnesses.
//!
//! A profile names *what* is injected (scheduler preemption, clock
//! jitter, HTM abort storms, capacity squeezes, a hot conflict line, or
//! all of them); [`ChaosProfile::at_intensity`] scales *how hard*, from
//! level 0 (nothing) to [`MAX_INTENSITY`]. All parameters are fixed
//! tables of constants so the same (profile, level, seed) triple always
//! produces the same injected-fault configuration.

use elision_htm::HtmFaults;
use elision_sim::FaultPlan;

/// The strongest intensity level [`ChaosProfile::at_intensity`] accepts.
pub const MAX_INTENSITY: u32 = 3;

/// A named fault-injection preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosProfile {
    /// No injection (the baseline every sweep includes).
    None,
    /// Bursty spurious-abort storms in the simulated HTM.
    Storm,
    /// Windows of shrunken transactional capacity.
    Squeeze,
    /// A persistently conflicting cache line.
    HotLine,
    /// Simulated lock-holder preemption (clock jumps forward).
    Preempt,
    /// Per-thread execution-speed jitter.
    Jitter,
    /// Everything at once.
    Full,
}

impl ChaosProfile {
    /// Every profile, baseline first.
    pub const ALL: [ChaosProfile; 7] = [
        ChaosProfile::None,
        ChaosProfile::Storm,
        ChaosProfile::Squeeze,
        ChaosProfile::HotLine,
        ChaosProfile::Preempt,
        ChaosProfile::Jitter,
        ChaosProfile::Full,
    ];

    /// The profile's CLI name.
    pub fn label(&self) -> &'static str {
        match self {
            ChaosProfile::None => "none",
            ChaosProfile::Storm => "storm",
            ChaosProfile::Squeeze => "squeeze",
            ChaosProfile::HotLine => "hotline",
            ChaosProfile::Preempt => "preempt",
            ChaosProfile::Jitter => "jitter",
            ChaosProfile::Full => "full",
        }
    }

    /// Parse a CLI name (as passed to `--chaos`).
    pub fn parse(name: &str) -> Option<ChaosProfile> {
        ChaosProfile::ALL.iter().copied().find(|p| p.label() == name)
    }

    /// The fault configuration for this profile at `level` (clamped to
    /// [`MAX_INTENSITY`]; level 0 injects nothing). The scheduler plan is
    /// seeded with `seed` so distinct runs can draw distinct schedules.
    pub fn at_intensity(&self, level: u32, seed: u64) -> (FaultPlan, HtmFaults) {
        let level = level.min(MAX_INTENSITY);
        if level == 0 || *self == ChaosProfile::None {
            return (FaultPlan::none().with_seed(seed), HtmFaults::none());
        }
        let l64 = u64::from(level);
        let mut plan = FaultPlan::none().with_seed(seed);
        let mut htm = HtmFaults::none();
        let storm = |htm: HtmFaults| {
            // 25/50/75% of time inside a storm; 300/600/900 permille abort
            // rate while it rages.
            htm.with_storm(6000, 1500 * l64, 300 * level)
        };
        let squeeze = |htm: HtmFaults| {
            // Budgets shrink to 32/16/8 read and 16/8/4 write lines.
            htm.with_squeeze(8000, 2000 * l64, 64 >> level, 32 >> level)
        };
        let hot = |htm: HtmFaults| htm.with_hot_line(0, 150 * level);
        match self {
            ChaosProfile::None => unreachable!("handled above"),
            ChaosProfile::Storm => htm = storm(htm),
            ChaosProfile::Squeeze => htm = squeeze(htm),
            ChaosProfile::HotLine => htm = hot(htm),
            ChaosProfile::Preempt => plan = plan.with_preempt(5000, 1500 * l64),
            ChaosProfile::Jitter => plan = plan.with_jitter(100 * level),
            ChaosProfile::Full => {
                htm = hot(squeeze(storm(htm)));
                plan = plan.with_preempt(5000, 1500 * l64).with_jitter(100 * level);
            }
        }
        (plan, htm)
    }
}

impl std::fmt::Display for ChaosProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for p in ChaosProfile::ALL {
            assert_eq!(ChaosProfile::parse(p.label()), Some(p));
        }
        assert_eq!(ChaosProfile::parse("hurricane"), None);
    }

    #[test]
    fn level_zero_injects_nothing() {
        for p in ChaosProfile::ALL {
            let (plan, htm) = p.at_intensity(0, 7);
            assert!(!plan.is_active(), "{p} level 0 has an active plan");
            assert!(!htm.is_active(), "{p} level 0 has active HTM faults");
            assert_eq!(plan.seed, 7, "seed still carried for baseline runs");
        }
    }

    #[test]
    fn intensity_scales_and_clamps() {
        let (_, weak) = ChaosProfile::Storm.at_intensity(1, 0);
        let (_, strong) = ChaosProfile::Storm.at_intensity(3, 0);
        assert!(weak.storm.unwrap().permille < strong.storm.unwrap().permille);
        let (_, clamped) = ChaosProfile::Storm.at_intensity(99, 0);
        assert_eq!(clamped, strong);
    }

    #[test]
    fn full_enables_every_source() {
        let (plan, htm) = ChaosProfile::Full.at_intensity(2, 1);
        assert!(plan.is_active());
        assert!(plan.jitter_permille > 0);
        assert!(htm.storm.is_some() && htm.squeeze.is_some() && htm.hot.is_some());
    }
}
