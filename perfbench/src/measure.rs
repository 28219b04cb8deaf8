//! Process-level measurement (CPU time, peak RSS), the host block every
//! result carries, and the order statistics the benchmark reports.

use std::process::Command;
use unroller_engine::Json;

/// `struct rusage` as Linux lays it out on 64-bit targets: two
/// `timeval`s, then fourteen `long` counters of which `ru_maxrss` is
/// the first.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    counters: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// CPU time and peak resident set of the whole process so far.
#[derive(Debug, Clone, Copy)]
pub struct ProcessUsage {
    /// User + system CPU time of every thread, live or exited (ns).
    pub cpu_ns: u64,
    /// Peak resident set size (KiB).
    pub max_rss_kib: u64,
}

/// Reads `getrusage(RUSAGE_SELF)`.
pub fn process_usage() -> ProcessUsage {
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        counters: [0; 14],
    };
    // SAFETY: `usage` is a live, writable value with the size and field
    // order of Linux's 64-bit `struct rusage`; the kernel writes only
    // within it and keeps no pointer after the call returns.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail with valid args");
    let ns = |tv: [i64; 2]| tv[0] as u64 * 1_000_000_000 + tv[1] as u64 * 1_000;
    ProcessUsage {
        cpu_ns: ns(usage.utime) + ns(usage.stime),
        max_rss_kib: usage.counters[0] as u64,
    }
}

/// CPU time the hypervisor gave to other guests while this machine's
/// CPUs had work to run ("steal", the eighth field of the `cpu` line of
/// `/proc/stat`), summed over CPUs (ns). `None` where the kernel does
/// not report it.
pub fn host_steal_ns() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: u64 = stat
        .lines()
        .next()?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()?;
    // `/proc/stat` counts in USER_HZ, which Linux fixes at 100.
    Some(ticks * 10_000_000)
}

/// What every result must be read against: how many CPUs the host
/// has, which code ran, and how many threads the workload keeps busy.
#[derive(Debug, Clone)]
pub struct Host {
    /// Available parallelism (`nproc`).
    pub nproc: usize,
    /// `git rev-parse HEAD` when run inside a git checkout, else
    /// `unknown`.
    pub commit: String,
    /// `rustc -V`.
    pub rustc: String,
}

impl Host {
    /// Probes the host.
    pub fn probe() -> Host {
        let nproc = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        // Only ask git inside a checkout of its own: from a plain source
        // tree it would report whatever repository encloses it.
        let commit = if std::path::Path::new(".git").exists() {
            command_line("git", &["rev-parse", "HEAD"])
        } else {
            None
        };
        Host {
            nproc,
            commit: commit.unwrap_or_else(|| "unknown".to_string()),
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string()),
        }
    }

    /// The host block for a run at `shards` worker shards: the
    /// dispatcher (calling thread) plus one worker per shard are busy.
    pub fn to_json(&self, shards: usize) -> Json {
        let mut obj = Json::object();
        obj.set("nproc", Json::UInt(self.nproc as u64));
        obj.set("commit", Json::Str(self.commit.clone()));
        obj.set("rustc", Json::Str(self.rustc.clone()));
        obj.set("shards", Json::UInt(shards as u64));
        obj.set("busy_threads", Json::UInt(busy_threads(shards) as u64));
        obj
    }
}

/// Threads that run flat out: the dispatcher plus one worker per shard
/// (the aggregator mostly blocks on its channel).
pub fn busy_threads(shards: usize) -> usize {
    shards + 1
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let line = text.lines().next()?.trim();
    (!line.is_empty()).then(|| line.to_string())
}

/// The `q` quantile of `values` (`0.0 ..= 1.0`), interpolating
/// linearly between order statistics.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = q * (sorted.len() - 1) as f64;
    let lo = at.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile(&[5.0, 1.0, 3.0], 0.25), 2.0);
        assert_eq!(quantile(&[7.0], 0.25), 7.0);
    }

    #[test]
    fn process_cpu_time_moves_forward() {
        let before = process_usage();
        let mut acc = 0u64;
        for i in 0..5_000_000u64 {
            acc = acc.wrapping_add(i.wrapping_mul(0x9e37_79b9));
        }
        std::hint::black_box(acc);
        let after = process_usage();
        assert!(after.cpu_ns > before.cpu_ns);
        assert!(after.max_rss_kib > 0);
    }
}
