//! Order statistics and the `/proc/self` readers behind the CPU, memory
//! and I/O metrics.

use std::time::Duration;

/// The `q`-quantile (0..=1) of `values`, linearly interpolated between
/// the two nearest order statistics. 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the "exclusive" method the benchmark contract names).
/// `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Rates of `segments` equal-count runs of consecutive operations:
/// operations in the run divided by the wall time from the end of the
/// previous run to the end of this one. `ends` holds each operation's
/// completion time since the phase began.
pub fn segment_rates(ends: &[Duration], segments: usize) -> Vec<f64> {
    let segments = segments.min(ends.len());
    let mut rates = Vec::with_capacity(segments);
    let (mut prev_idx, mut prev_t) = (0usize, Duration::ZERO);
    for s in 1..=segments {
        let idx = ends.len() * s / segments;
        let t = ends[idx - 1];
        let secs = (t - prev_t).as_secs_f64();
        if secs > 0.0 {
            rates.push((idx - prev_idx) as f64 / secs);
        }
        (prev_idx, prev_t) = (idx, t);
    }
    rates
}

fn read_proc(name: &str) -> String {
    std::fs::read_to_string(format!("/proc/self/{name}")).unwrap_or_default()
}

/// User plus system CPU seconds of this process, all threads, exited
/// ones included (`utime` + `stime` of `/proc/self/stat`, in the kernel's
/// 100 Hz ticks).
pub fn process_cpu_seconds() -> f64 {
    let stat = read_proc("stat");
    // The command name (field 2) is parenthesised and may hold spaces.
    let after = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
    let fields: Vec<&str> = after.split_whitespace().collect();
    // `after` starts at field 3 (state); utime and stime are fields 14, 15.
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
    (tick(11) + tick(12)) as f64 / 100.0
}

fn status_kib(key: &str) -> f64 {
    read_proc("status")
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// Peak resident set size of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:") / 1024.0
}

/// Bytes this process has passed to `write`-family calls, sockets
/// included (`wchar` of `/proc/self/io`).
pub fn bytes_written() -> u64 {
    read_proc("io")
        .lines()
        .find_map(|l| l.strip_prefix("wchar:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// Sum of the sizes of all regular files under `dir`.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) if m.is_file() => m.len(),
            _ => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), Some((1.5, 12.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn segment_rates_split_by_count() {
        let ends: Vec<Duration> = (1..=8).map(|i| Duration::from_millis(i * 100)).collect();
        let r = segment_rates(&ends, 4);
        assert_eq!(r.len(), 4);
        assert!(r.iter().all(|&x| (x - 10.0).abs() < 1e-9), "{r:?}");
        assert_eq!(segment_rates(&ends[..2], 8).len(), 2);
        assert!(segment_rates(&[], 8).is_empty());
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mib() > 0.0);
        let before = process_cpu_seconds();
        let mut x = 0u64;
        for i in 0..200_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_seconds() >= before);
    }
}
