//! Kernel counters from `/proc`, read without panicking.
//!
//! Every reader returns `None` when its file is missing or unparsable
//! (another OS, a restricted container), and the metrics built on it
//! report `null` instead of failing the run.

use std::fs;

/// Clock ticks per second of the `utime`/`stime` fields of
/// `/proc/<pid>/stat`. Linux fixes this `USER_HZ` at 100 on the
/// architectures the benchmark targets.
const USER_HZ: f64 = 100.0;

/// Host CPU time of this whole process, in seconds. Exited threads
/// (every finished simulated thread) stay counted.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CpuTimes {
    pub user: f64,
    pub sys: f64,
}

impl CpuTimes {
    pub fn total(&self) -> f64 {
        self.user + self.sys
    }

    /// The CPU time spent between `earlier` and `self`.
    pub fn since(&self, earlier: &CpuTimes) -> CpuTimes {
        CpuTimes { user: self.user - earlier.user, sys: self.sys - earlier.sys }
    }

    pub fn add(&mut self, other: &CpuTimes) {
        self.user += other.user;
        self.sys += other.sys;
    }
}

/// User and system CPU time of the process, from `/proc/self/stat`.
pub fn process_cpu() -> Option<CpuTimes> {
    parse_stat_cpu(&fs::read_to_string("/proc/self/stat").ok()?)
}

/// Parse `utime` and `stime` (fields 14 and 15) of a `/proc/<pid>/stat`
/// line. The command name (field 2) may hold spaces and parentheses, so
/// fields are counted from the last `)`.
fn parse_stat_cpu(stat: &str) -> Option<CpuTimes> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(CpuTimes { user: utime as f64 / USER_HZ, sys: stime as f64 / USER_HZ })
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let kb = status_field(&fs::read_to_string("/proc/self/status").ok()?, "VmHWM:")?;
    Some(kb as f64 / 1024.0)
}

/// The first number after `key` in a `/proc/.../status` file.
fn status_field(status: &str, key: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Pin the calling thread, and every thread it spawns afterwards, to the
/// last CPU it may run on. Returns that CPU, or `None` when the allowed
/// set is unreadable or the kernel refused.
///
/// At window 0 one simulated thread runs at a time, so one CPU is all a
/// run can use; pinned, a handoff is a switch on that CPU instead of a
/// wakeup of another, idle one, whose latency depends on host load.
pub fn pin_to_one_cpu() -> Option<usize> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let list = status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let cpu = last_cpu(list)?;
    set_affinity(cpu).then_some(cpu)
}

/// The highest CPU of a list such as `0-3,8,10-11`.
fn last_cpu(list: &str) -> Option<usize> {
    list.trim().rsplit(',').next()?.rsplit('-').next()?.trim().parse().ok()
}

#[cfg(target_os = "linux")]
fn set_affinity(cpu: usize) -> bool {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let Some(word) = mask.get_mut(cpu / 64) else {
        return false;
    };
    *word = 1 << (cpu % 64);
    // SAFETY: `mask` is an initialized 1024-bit CPU set that lives across
    // the call, and `cpusetsize` is its exact size in bytes; the kernel
    // only reads it. pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn set_affinity(_cpu: usize) -> bool {
    false
}

/// Scheduler counters of the calling OS thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadCounters {
    /// Nanoseconds on a CPU.
    pub cpu_ns: u64,
    /// Nanoseconds runnable but waiting for a CPU.
    pub runq_wait_ns: u64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
}

impl ThreadCounters {
    /// Counters accumulated between `earlier` and `self`.
    pub fn since(&self, earlier: &ThreadCounters) -> ThreadCounters {
        ThreadCounters {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            runq_wait_ns: self.runq_wait_ns.saturating_sub(earlier.runq_wait_ns),
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
        }
    }

    pub fn add(&mut self, other: &ThreadCounters) {
        self.cpu_ns += other.cpu_ns;
        self.runq_wait_ns += other.runq_wait_ns;
        self.ctx_switches += other.ctx_switches;
    }
}

/// The calling thread's counters, from `/proc/thread-self/schedstat`
/// and `/proc/thread-self/status`.
pub fn thread_counters() -> Option<ThreadCounters> {
    parse_thread_counters(
        &fs::read_to_string("/proc/thread-self/schedstat").ok()?,
        &fs::read_to_string("/proc/thread-self/status").ok()?,
    )
}

fn parse_thread_counters(schedstat: &str, status: &str) -> Option<ThreadCounters> {
    let mut f = schedstat.split_whitespace();
    let cpu_ns = f.next()?.parse().ok()?;
    let runq_wait_ns = f.next()?.parse().ok()?;
    let voluntary = status_field(status, "voluntary_ctxt_switches:")?;
    let involuntary = status_field(status, "nonvoluntary_ctxt_switches:")?;
    Some(ThreadCounters { cpu_ns, runq_wait_ns, ctx_switches: voluntary + involuntary })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_from_the_last_paren() {
        let line = "4242 (sim (x) y) S 1 2 3 4 5 6 7 8 9 10 250 75 0 0 20 0 3 0";
        let cpu = parse_stat_cpu(line).expect("well-formed line");
        assert_eq!(cpu, CpuTimes { user: 2.5, sys: 0.75 });
        assert_eq!(parse_stat_cpu("4242 (truncated"), None);
        assert_eq!(parse_stat_cpu("4242 (short) S 1 2"), None);
    }

    #[test]
    fn thread_counters_need_both_files() {
        let status = "Name:\tsim-0\nvoluntary_ctxt_switches:\t7\nnonvoluntary_ctxt_switches:\t2\n";
        let c = parse_thread_counters("1000 500 9\n", status).expect("both files parse");
        assert_eq!(c, ThreadCounters { cpu_ns: 1000, runq_wait_ns: 500, ctx_switches: 9 });
        assert_eq!(parse_thread_counters("", status), None);
        assert_eq!(parse_thread_counters("1000 500 9\n", "Name:\tsim-0\n"), None);
    }

    #[test]
    fn last_cpu_of_a_list() {
        assert_eq!(last_cpu("0-1\n"), Some(1));
        assert_eq!(last_cpu("0-3,8,10-11"), Some(11));
        assert_eq!(last_cpu("5"), Some(5));
        assert_eq!(last_cpu(""), None);
    }

    #[test]
    fn live_readers_do_not_panic() {
        // On Linux these are Some; elsewhere None. Either way no panic.
        let _ = (process_cpu(), peak_rss_mb(), thread_counters());
    }
}
