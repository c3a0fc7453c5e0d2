//! Order statistics, run-to-run spread and `/proc` readings.

use std::time::Duration;

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it. 0 when empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n`
/// samples: a percentile is reported only with at least ten of them.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(usize::from(n > 0), n)
}

/// Sorts `values` and returns the median (mean of the middle pair for an
/// even count). 0 when empty.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// Milliseconds of a duration, with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds of a duration, with all its digits.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them (the exclusive
/// method), so `--repeat` reports the spread the way the acceptance
/// check does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Quartiles {
    /// `None` below two values, where no quartile is defined.
    pub fn of(values: &[f64]) -> Option<Quartiles> {
        let mut data = values.to_vec();
        data.sort_by(f64::total_cmp);
        let m = data.len();
        if m < 2 {
            return None;
        }
        let cut = |i: usize| -> f64 {
            let j = (i * (m + 1) / 4).clamp(1, m - 1);
            let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
            (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
        };
        Some(Quartiles {
            q1: cut(1),
            median: cut(2),
            q3: cut(3),
        })
    }

    /// Inter-quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Kernel clock ticks per second for `/proc/<pid>/stat` times: `USER_HZ`,
/// which Linux fixes at 100 on every architecture it exports it for.
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU ticks from the text of `/proc/self/stat`. The
/// command name (field 2) may itself contain spaces and parentheses, so
/// fields are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// A `kB` line (e.g. `VmHWM:`) from the text of `/proc/self/status`.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Process CPU time (user + system) so far, in milliseconds.
pub fn process_cpu_ms() -> f64 {
    let ticks = std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_ticks(&s))
        .unwrap_or(0);
    ticks as f64 * 1e3 / TICKS_PER_S
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_kb(&s, "VmHWM:"))
        .unwrap_or(0);
    kb as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn samples_beyond_counts_the_tail() {
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert_eq!(samples_beyond(199, 0.95), 9);
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(0, 0.95), 0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = Quartiles::of(&v).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        assert!((q.spread() - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = Quartiles::of(&[2.0, 1.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
        assert!(Quartiles::of(&[1.0]).is_none());
    }

    #[test]
    fn stat_parsing_survives_hostile_command_names() {
        let stat = "4242 (load) bench) S 1 4242 4242 0 -1 4194304 900 0 0 0 \
                    1234 66 0 0 20 0 9 0 100 1000000 250 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(1300));
        assert_eq!(parse_stat_cpu_ticks("no paren here"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_parsing_reads_the_kb_value() {
        let status = "Name:\tload_bench\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM:"), Some(20480));
        assert_eq!(parse_status_kb(status, "VmSwap:"), None);
    }

    #[test]
    fn proc_readings_are_live_on_linux() {
        assert!(peak_rss_mb() > 0.0);
        assert!(process_cpu_ms() >= 0.0);
    }
}
