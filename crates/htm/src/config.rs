//! Configuration of the simulated HTM.

use crate::fault::HtmFaults;
use elision_sim::CostModel;
use std::fmt;

/// A rejected [`HtmConfig`]: some probability or permille knob is out of
/// its domain. Out-of-range values previously slipped through silently —
/// a probability above 1.0 (or a permille above 1000) just saturates the
/// abort rate, which reads like a legitimate "always aborts" measurement
/// instead of the configuration bug it is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HtmConfigError {
    /// A probability knob is outside `[0, 1]` (or NaN).
    Probability {
        /// Which knob (e.g. `"spurious_begin"`).
        knob: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A permille knob exceeds 1000.
    Permille {
        /// Which knob (e.g. `"faults.storm.permille"`).
        knob: &'static str,
        /// The offending value.
        value: u32,
    },
}

impl fmt::Display for HtmConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HtmConfigError::Probability { knob, value } => {
                write!(f, "{knob} = {value} is not a probability in [0, 1]")
            }
            HtmConfigError::Permille { knob, value } => {
                write!(f, "{knob} = {value} exceeds 1000 permille")
            }
        }
    }
}

impl std::error::Error for HtmConfigError {}

fn check_probability(knob: &'static str, value: f64) -> Result<(), HtmConfigError> {
    // `!(..)` so NaN is rejected too.
    if !(0.0..=1.0).contains(&value) {
        return Err(HtmConfigError::Probability { knob, value });
    }
    Ok(())
}

fn check_permille(knob: &'static str, value: u32) -> Result<(), HtmConfigError> {
    if value > 1000 {
        return Err(HtmConfigError::Permille { knob, value });
    }
    Ok(())
}

/// Tunables of the simulated transactional memory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HtmConfig {
    /// Maximum number of distinct cache lines a transaction may read
    /// (models the L1/L2-backed read-set tracking capacity).
    pub read_set_lines: usize,
    /// Maximum number of distinct cache lines a transaction may write
    /// (models L1 write buffering; Haswell: 32 KiB / 64 B = 512 lines).
    pub write_set_lines: usize,
    /// Probability that a freshly begun transaction is fated to abort
    /// spuriously after a few accesses (paper §3.1: real TSX transactions
    /// abort even in conflict-free workloads).
    pub spurious_begin: f64,
    /// Per-access probability of an immediate spurious abort.
    pub spurious_access: f64,
    /// Cycle costs for simulated events.
    pub cost: CostModel,
    /// Injected HTM-level faults (storms, squeezes, hot lines). The
    /// default injects nothing; see [`HtmFaults`].
    pub faults: HtmFaults,
    /// Hardware dangerous-instruction detection (arXiv 1407.6968): in a
    /// transaction that declared lazy subscription, a non-elided
    /// transactional store to a lock-marked line aborts at the offending
    /// access instead of entering the write buffer. Off by default —
    /// stock Haswell has no such extension, which is exactly why lazy
    /// subscription is unsafe on it.
    pub dangerous_abort: bool,
}

impl HtmConfig {
    /// The default Haswell-flavoured configuration, including a small
    /// spurious-abort rate.
    pub fn haswell() -> Self {
        HtmConfig {
            read_set_lines: 2048,
            write_set_lines: 512,
            spurious_begin: 0.002,
            spurious_access: 0.00002,
            cost: CostModel::haswell(),
            faults: HtmFaults::none(),
            dangerous_abort: false,
        }
    }

    /// A configuration with no spurious aborts; combined with a
    /// zero-window scheduler this makes runs fully deterministic.
    pub fn deterministic() -> Self {
        HtmConfig { spurious_begin: 0.0, spurious_access: 0.0, ..Self::haswell() }
    }

    /// Override the spurious-abort rates.
    pub fn with_spurious(mut self, per_begin: f64, per_access: f64) -> Self {
        self.spurious_begin = per_begin;
        self.spurious_access = per_access;
        self
    }

    /// Override the capacity limits (in cache lines).
    pub fn with_capacity(mut self, read_lines: usize, write_lines: usize) -> Self {
        self.read_set_lines = read_lines;
        self.write_set_lines = write_lines;
        self
    }

    /// Attach HTM-level fault injection (see [`HtmFaults`]).
    pub fn with_faults(mut self, faults: HtmFaults) -> Self {
        self.faults = faults;
        self
    }

    /// Enable or disable hardware dangerous-instruction detection.
    pub fn with_dangerous_abort(mut self, enabled: bool) -> Self {
        self.dangerous_abort = enabled;
        self
    }

    /// Check every probability/permille knob against its domain. The
    /// harness entry points run this before spawning simulated threads,
    /// so a malformed configuration fails fast instead of silently
    /// saturating the abort rate mid-run.
    ///
    /// # Errors
    ///
    /// The first out-of-domain knob found (see [`HtmConfigError`]).
    pub fn validate(&self) -> Result<(), HtmConfigError> {
        check_probability("spurious_begin", self.spurious_begin)?;
        check_probability("spurious_access", self.spurious_access)?;
        if let Some(storm) = self.faults.storm {
            check_permille("faults.storm.permille", storm.permille)?;
        }
        if let Some(hot) = self.faults.hot {
            check_permille("faults.hot.permille", hot.permille)?;
        }
        Ok(())
    }
}

impl Default for HtmConfig {
    fn default() -> Self {
        HtmConfig::haswell()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_disables_spurious() {
        let c = HtmConfig::deterministic();
        assert_eq!(c.spurious_begin, 0.0);
        assert_eq!(c.spurious_access, 0.0);
    }

    #[test]
    fn builders_override() {
        let c = HtmConfig::haswell().with_capacity(8, 4).with_spurious(0.5, 0.1);
        assert_eq!(c.read_set_lines, 8);
        assert_eq!(c.write_set_lines, 4);
        assert_eq!(c.spurious_begin, 0.5);
    }

    #[test]
    fn presets_validate() {
        assert_eq!(HtmConfig::haswell().validate(), Ok(()));
        assert_eq!(HtmConfig::deterministic().validate(), Ok(()));
    }

    #[test]
    fn out_of_range_probabilities_rejected() {
        let e = HtmConfig::haswell().with_spurious(1.5, 0.0).validate();
        assert_eq!(e, Err(HtmConfigError::Probability { knob: "spurious_begin", value: 1.5 }));
        let e = HtmConfig::haswell().with_spurious(0.0, -0.1).validate();
        assert_eq!(e, Err(HtmConfigError::Probability { knob: "spurious_access", value: -0.1 }));
        let e = HtmConfig::haswell().with_spurious(f64::NAN, 0.0).validate();
        assert!(matches!(e, Err(HtmConfigError::Probability { knob: "spurious_begin", .. })));
        // Boundary values are fine.
        assert_eq!(HtmConfig::haswell().with_spurious(1.0, 0.0).validate(), Ok(()));
    }

    #[test]
    fn oversized_permille_rejected() {
        let c = HtmConfig::deterministic().with_faults(HtmFaults::none().with_storm(100, 10, 1001));
        assert_eq!(
            c.validate(),
            Err(HtmConfigError::Permille { knob: "faults.storm.permille", value: 1001 })
        );
        let c = HtmConfig::deterministic().with_faults(HtmFaults::none().with_hot_line(0, 2000));
        assert_eq!(
            c.validate(),
            Err(HtmConfigError::Permille { knob: "faults.hot.permille", value: 2000 })
        );
        // 1000 permille (always) is the inclusive maximum.
        let c = HtmConfig::deterministic().with_faults(HtmFaults::none().with_storm(100, 10, 1000));
        assert_eq!(c.validate(), Ok(()));
    }
}
