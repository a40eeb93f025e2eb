//! Host-side measurements: wall clock, process CPU time, peak memory,
//! and the order statistics every timing is reported through.
//!
//! CPU time and memory come from `/proc/self`, so the package needs no
//! libc binding; the benchmark is Linux-only for that reason.

use std::fs;
use std::time::Instant;

/// Kernel clock ticks per second in `/proc/self/stat` (`USER_HZ`, fixed
/// at 100 on every Linux architecture the toolchain targets).
const TICKS_PER_S: f64 = 100.0;

/// User and system CPU seconds of this process, every thread included
/// (threads that already exited are still counted).
pub fn cpu_user_sys() -> (f64, f64) {
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name may hold spaces; fields are counted after its ')'.
    let rest = &stat[stat.rfind(')').expect("stat holds the command name") + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut ticks = || -> f64 {
        fields
            .next()
            .and_then(|f| f.parse::<u64>().ok())
            .expect("utime/stime are fields 14 and 15") as f64
    };
    let user = ticks();
    let sys = ticks();
    (user / TICKS_PER_S, sys / TICKS_PER_S)
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM is reported in kB");
    kib / 1024.0
}

/// What one timed call cost.
#[derive(Debug, Clone, Copy)]
pub struct Cost {
    pub wall_s: f64,
    /// User + system CPU seconds, every thread.
    pub cpu_s: f64,
    /// The system part of `cpu_s`.
    pub sys_s: f64,
}

/// Runs `f` and reports what it cost.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Cost) {
    let (user0, sys0) = cpu_user_sys();
    let t0 = Instant::now();
    let out = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let (user, sys) = cpu_user_sys();
    let sys_s = sys - sys0;
    (
        out,
        Cost {
            wall_s,
            cpu_s: user - user0 + sys_s,
            sys_s,
        },
    )
}

/// Minimum, median and maximum of a non-empty sample.
#[derive(Debug, Clone, Copy)]
pub struct Spread {
    pub min: f64,
    pub median: f64,
    pub max: f64,
}

/// # Panics
///
/// Panics on an empty sample.
pub fn spread(values: &[f64]) -> Spread {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Spread {
        min: v[0],
        median: median_sorted(&v),
        max: v[v.len() - 1],
    }
}

fn median_sorted(v: &[f64]) -> f64 {
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    spread(values).median
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method),
/// so `compare` agrees with the acceptance check run outside this program.
///
/// # Panics
///
/// Panics on fewer than two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    [1usize, 2, 3].map(|i| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    })
}

/// The `p`-th percentile (nearest rank) of a non-empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(peak_rss_mib() > 0.5);
        let (user, sys) = cpu_user_sys();
        assert!(user >= 0.0 && sys >= 0.0);
    }

    #[test]
    fn order_statistics() {
        let s = spread(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.min, s.median, s.max), (1.0, 2.5, 4.0));
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 95.0), 4.0);
    }
}
