//! What the benchmark records about the machine it runs on.

use std::hint::black_box;
use std::time::Instant;

/// Clock ticks per second in `/proc/self/stat` (`USER_HZ`, 100 on every
/// mainstream Linux build).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of this process so far, all threads
/// included (0 where `/proc` is unavailable).
pub fn cpu_secs() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks: f64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / USER_HZ
}

/// Peak resident memory of this process (`VmHWM`), MB (0 where `/proc`
/// is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Median host seconds of a fixed integer loop. It does the same work on
/// every run, so it tells how fast the machine was at the time: compare
/// results from different moments or machines only beside it.
pub fn calib_secs() -> f64 {
    let mut times: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
            let mut acc = 0u64;
            for _ in 0..20_000_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                acc = acc.wrapping_add(x);
            }
            black_box(acc);
            start.elapsed().as_secs_f64()
        })
        .collect();
    crate::run::median(&mut times)
}

/// The commit of the checkout the benchmark runs in, when it is a git
/// checkout with `git` installed.
pub fn commit() -> String {
    std::process::Command::new("git")
        .args(["--git-dir=.git", "rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}
