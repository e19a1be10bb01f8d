//! The `repro` command line: the flags every experiment shares, parsed in
//! one pass (no external dependency needed for a handful of flags).

use crate::chaos::ChaosProfile;
use std::path::PathBuf;

/// Options shared by every experiment.
#[derive(Debug, Clone)]
pub struct CliArgs {
    /// Shrink the sweep for CI / smoke runs.
    pub quick: bool,
    /// Extend the sweep to the largest sizes.
    pub full: bool,
    /// Number of seeds to average over.
    pub seeds: u64,
    /// Simulated thread count.
    pub threads: usize,
    /// Host worker threads for the sweep orchestrator (`--jobs N`).
    /// Defaults to the host's available parallelism; results are
    /// byte-identical at any value (see `crate::sweep`).
    pub jobs: usize,
    /// Directory to drop CSV files into.
    pub csv: Option<PathBuf>,
    /// Directory to drop JSON metrics files into (`--metrics DIR`).
    pub metrics: Option<PathBuf>,
    /// Fault-injection profile to run the sweep under (`--chaos NAME`;
    /// defaults to no injection). Only experiments that apply a fault
    /// profile accept anything but `none`.
    pub chaos: ChaosProfile,
}

impl Default for CliArgs {
    fn default() -> Self {
        CliArgs {
            quick: false,
            full: false,
            seeds: 3,
            threads: crate::PAPER_THREADS,
            jobs: default_jobs(),
            csv: None,
            metrics: None,
            chaos: ChaosProfile::None,
        }
    }
}

/// One parsed command line.
#[derive(Debug, Clone, Default)]
pub struct Flags {
    /// The shared options.
    pub args: CliArgs,
    /// Positional words (experiment names), in order.
    pub words: Vec<String>,
}

/// Parse a command line: flags anywhere, positional words collected in
/// order. Errors name the offending flag.
pub fn parse_flags(args: impl IntoIterator<Item = String>) -> Result<Flags, String> {
    fn number<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
        v.parse().map_err(|_| format!("{flag} needs a number, got {v:?}"))
    }
    let mut out = Flags::default();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{a} needs {what}"));
        match a.as_str() {
            "--quick" => out.args.quick = true,
            "--full" => out.args.full = true,
            "--seeds" => out.args.seeds = number(&a, value("a number")?)?,
            "--threads" => out.args.threads = number(&a, value("a number")?)?,
            "--jobs" => out.args.jobs = number(&a, value("a number")?)?,
            "--csv" => out.args.csv = Some(PathBuf::from(value("a directory")?)),
            "--metrics" => out.args.metrics = Some(PathBuf::from(value("a directory")?)),
            "--chaos" => {
                let name = value("a profile name")?;
                out.args.chaos = ChaosProfile::parse(&name).ok_or_else(|| {
                    format!(
                        "unknown chaos profile {name} (one of: {})",
                        ChaosProfile::ALL.map(|p| p.label()).join(", ")
                    )
                })?;
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            _ => out.words.push(a),
        }
    }
    // Zero seeds/threads/jobs would all mean "run nothing" (or a
    // deadlocked pool); clamp them to the smallest sensible value.
    out.args.seeds = out.args.seeds.max(1);
    out.args.threads = out.args.threads.max(1);
    out.args.jobs = out.args.jobs.max(1);
    Ok(out)
}

/// Default `--jobs`: the host's available parallelism (1 if unknown).
fn default_jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(s: &[&str]) -> Result<Flags, String> {
        parse_flags(s.iter().map(|s| s.to_string()))
    }

    fn parse(s: &[&str]) -> CliArgs {
        flags(s).expect("valid flags").args
    }

    #[test]
    fn defaults() {
        let a = parse(&[]);
        assert!(!a.quick);
        assert_eq!(a.seeds, 3);
        assert_eq!(a.threads, 8);
        assert!(a.csv.is_none());
    }

    #[test]
    fn flags_parse() {
        let a = parse(&["--quick", "--seeds", "5", "--threads", "4", "--csv", "/tmp/x"]);
        assert!(a.quick);
        assert_eq!(a.seeds, 5);
        assert_eq!(a.threads, 4);
        assert_eq!(a.csv.unwrap(), PathBuf::from("/tmp/x"));
    }

    #[test]
    fn window_flag_is_rejected() {
        let err = flags(&["--window", "16"]).unwrap_err();
        assert!(err.contains("--window"), "{err}");
    }

    #[test]
    fn metrics_dir_parses() {
        assert!(parse(&[]).metrics.is_none());
        let a = parse(&["--metrics", "results"]);
        assert_eq!(a.metrics.unwrap(), PathBuf::from("results"));
    }

    #[test]
    fn chaos_profile_parses() {
        assert_eq!(parse(&[]).chaos, ChaosProfile::None);
        assert_eq!(parse(&["--chaos", "storm"]).chaos, ChaosProfile::Storm);
        assert_eq!(parse(&["--chaos", "full"]).chaos, ChaosProfile::Full);
        assert!(flags(&["--chaos", "bogus"]).unwrap_err().contains("bogus"));
        assert!(flags(&["--chaos"]).unwrap_err().contains("--chaos"));
    }

    #[test]
    fn seeds_clamped_to_one() {
        let a = parse(&["--seeds", "0"]);
        assert_eq!(a.seeds, 1);
    }

    #[test]
    fn threads_clamped_to_one() {
        assert_eq!(parse(&["--threads", "0"]).threads, 1);
        assert_eq!(parse(&["--threads", "3"]).threads, 3);
    }

    #[test]
    fn jobs_parse_and_clamp() {
        assert!(parse(&[]).jobs >= 1);
        assert_eq!(parse(&["--jobs", "4"]).jobs, 4);
        assert_eq!(parse(&["--jobs", "0"]).jobs, 1);
    }
}
