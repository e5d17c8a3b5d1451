//! Order statistics, process counters from `/proc`, and the seeded input
//! generator shared by every workload.

use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

/// Nearest-rank percentile of an ascending slice (`q` in `0.0..=1.0`);
/// `0.0` when empty.
pub fn pctl(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Median of a small float sample (mean of the middle pair when even).
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `a / b`, or `0.0` when `b` is zero.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Process-wide CPU and scheduler counters at one instant.
#[derive(Copy, Clone, Debug)]
pub struct ProcSample {
    pub wall: Instant,
    /// User CPU of every thread, live or joined, in µs.
    pub user_us: u64,
    /// System CPU of every thread, in µs.
    pub sys_us: u64,
    /// Voluntary + involuntary context switches of the live threads.
    pub ctx_switches: u64,
    /// Live threads.
    pub threads: u64,
}

/// Linux reports `utime`/`stime` in clock ticks; `USER_HZ` is 100 on every
/// supported architecture.
const TICK_US: u64 = 10_000;

impl ProcSample {
    /// CPU from `/proc/self/stat` (fields 14 and 15), scheduler counters
    /// from every task's `status`. Panics off Linux: the benchmark's CPU
    /// metric has no other source.
    pub fn take() -> ProcSample {
        let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
        // The command name (field 2) may contain spaces; fields are counted
        // from the closing parenthesis, so field 14 is index 11.
        let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 2..];
        let mut ticks = rest
            .split_ascii_whitespace()
            .skip(11)
            .map(|f| f.parse::<u64>().expect("numeric stat field"));
        let user_us = ticks.next().expect("utime") * TICK_US;
        let sys_us = ticks.next().expect("stime") * TICK_US;
        let mut ctx_switches = 0;
        let mut threads = 0;
        if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
            for task in tasks.flatten() {
                threads += 1;
                // A thread may exit between the listing and the read.
                let Ok(status) = std::fs::read_to_string(task.path().join("status")) else {
                    continue;
                };
                for line in status.lines() {
                    if line.starts_with("voluntary_ctxt_switches:")
                        || line.starts_with("nonvoluntary_ctxt_switches:")
                    {
                        ctx_switches += line
                            .rsplit(char::is_whitespace)
                            .next()
                            .and_then(|v| v.parse::<u64>().ok())
                            .unwrap_or(0);
                    }
                }
            }
        }
        ProcSample {
            wall: Instant::now(),
            user_us,
            sys_us,
            ctx_switches,
            threads,
        }
    }

    pub fn cpu_us(&self) -> u64 {
        self.user_us + self.sys_us
    }
}

/// Peak resident set (`VmHWM`) of the process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The generator for one stream of a run's inputs: `stream` separates
/// clients so their key sequences are independent.
pub fn rng_for(seed: u64, stream: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// `len` seeded filler bytes (the value body behind the 8-byte counter).
pub fn filler(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = rng_for(seed, 0xF111);
    let mut out = vec![0u8; len];
    rng.fill_bytes(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(pctl(&v, 0.50), 50.0);
        assert_eq!(pctl(&v, 0.95), 95.0);
        assert_eq!(pctl(&v, 1.0), 100.0);
        assert_eq!(pctl(&[], 0.5), 0.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn proc_sample_reads_this_process() {
        let a = ProcSample::take();
        assert!(a.threads >= 1);
        assert!(peak_rss_mib() > 0.0);
    }
}
