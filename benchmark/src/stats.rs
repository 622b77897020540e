//! Order statistics, the tail-percentile rule and the `/proc` readers.

use std::time::Duration;

/// The median of `values` (mean of the two middle values for an even
/// count); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The mean of `values`; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// First and third quartile by the exclusive method — the rule Python's
/// `statistics.quantiles(values, n=4)` applies, which is the one the
/// benchmark driver judges spreads with.  A single value is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    if n < 2 {
        let only = values.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |numerator: usize| {
        // Position numerator·(n+1)/4, 1-based, clamped into the data.
        let pos = numerator as f64 * (n as f64 + 1.0) / 4.0;
        let lower = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - lower as f64;
        sorted[lower - 1] + delta * (sorted[lower] - sorted[lower - 1])
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn iqr_share(values: &[f64]) -> f64 {
    let mid = median(values);
    if mid == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / mid.abs()
}

/// The highest percentile a sample of `n` supports: the highest of
/// 50/90/95/99/99.9 that still has at least ten samples beyond it.
pub fn tail_percentile(n: usize) -> f64 {
    // (percentile, samples beyond it per thousand) — integer arithmetic, so
    // exactly ten samples beyond count as ten.
    [(99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100)]
        .into_iter()
        .find(|(_, beyond_per_mille)| n * beyond_per_mille >= 10 * 1000)
        .map_or(50.0, |(percentile, _)| percentile)
}

/// The `p`-th percentile (nearest rank) of `values`; 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Seconds of a duration, as the `f64` every metric is reported in.
pub fn secs(duration: Duration) -> f64 {
    duration.as_secs_f64()
}

/// Parses the `VmHWM` line of `/proc/<pid>/status` text into megabytes.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Parses `utime + stime` (clock ticks) out of `/proc/<pid>/stat` text.
/// The command name (field 2) may contain spaces and parentheses, so the
/// fields are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the command: state is field 3, utime 14, stime 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Linux reports process times in `USER_HZ` ticks, which is 100 on every
/// supported architecture regardless of the kernel's `CONFIG_HZ`.
const USER_HZ: f64 = 100.0;

/// Peak resident set size of this process so far, in megabytes.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| parse_vm_hwm_mb(&status))
        .unwrap_or(0.0)
}

/// CPU seconds (user + system, all threads) this process has consumed.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| parse_stat_cpu_ticks(&stat))
        .map_or(0.0, |ticks| ticks as f64 / USER_HZ)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&values), 5.5);
        assert_eq!(quartiles(&values), (2.75, 8.25));
        assert_eq!(iqr_share(&values), 1.0);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(5), 50.0);
        assert_eq!(tail_percentile(99), 50.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
        let values: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&values, 95.0), 190.0);
        assert_eq!(percentile(&values, 50.0), 100.0);
    }

    #[test]
    fn proc_parsers_read_real_and_synthetic_text() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t   2048 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(2.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tx\n"), None);
        // A command name with spaces and a `)` inside must not shift fields.
        let stat = "42 (a b) c) S 1 2 3 4 5 6 7 8 9 10 150 50 0 0 20 0 1 0 100 0 0";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(200));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }
}
