//! Sample statistics shared by every workload and layer probe.

use std::time::{Duration, Instant};

/// Durations of the timed operations of one phase, in seconds.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    secs: Vec<f64>,
}

impl Samples {
    /// Records one operation.
    pub fn push(&mut self, d: Duration) {
        self.secs.push(d.as_secs_f64());
    }

    /// Records one operation that took `secs` seconds.
    pub fn push_secs(&mut self, secs: f64) {
        self.secs.push(secs);
    }

    /// Every operation's seconds, in the order recorded.
    pub fn secs(&self) -> &[f64] {
        &self.secs
    }

    /// The operations whose index `keep` accepts, in order.
    pub fn filtered(&self, keep: impl Fn(usize) -> bool) -> Samples {
        let secs = (0..self.secs.len()).filter(|&i| keep(i));
        Samples {
            secs: secs.map(|i| self.secs[i]).collect(),
        }
    }

    /// Appends every operation of `other`.
    pub fn extend(&mut self, other: &Samples) {
        self.secs.extend_from_slice(&other.secs);
    }

    /// Number of operations recorded.
    pub fn len(&self) -> usize {
        self.secs.len()
    }

    /// Summed operation time in seconds — what a phase budget is spent
    /// against, and the denominator of summed-time throughput.
    pub fn sum(&self) -> f64 {
        self.secs.iter().sum()
    }

    /// The first operation's duration in seconds.
    pub fn first(&self) -> f64 {
        self.secs[0]
    }

    /// Nearest-rank percentile in seconds (`p` in `0..=100`).
    pub fn percentile(&self, p: f64) -> f64 {
        let mut sorted = self.secs.clone();
        sorted.sort_by(f64::total_cmp);
        percentile(&sorted, p)
    }

    /// Nearest-rank percentile in milliseconds.
    pub fn percentile_ms(&self, p: f64) -> f64 {
        self.percentile(p) * 1e3
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest value with
/// at least `p` percent of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice — a phase that timed nothing is a bug.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// Throughput in MB/s (10⁶ bytes per second).
pub fn mbps(bytes: u64, secs: f64) -> f64 {
    bytes as f64 / secs / 1e6
}

/// Throughput in GB/s (10⁹ bytes per second).
pub fn gbps(bytes: u64, secs: f64) -> f64 {
    bytes as f64 / secs / 1e9
}

/// Times `f` repeatedly until the summed time of its calls reaches
/// `budget` and it has run at least `min_calls` times.
pub fn sample_calls(budget: Duration, min_calls: usize, mut f: impl FnMut()) -> Samples {
    let mut samples = Samples::default();
    let mut spent = Duration::ZERO;
    while samples.len() < min_calls.max(1) || spent < budget {
        let ((), d) = timed(&mut f);
        spent += d;
        samples.push(d);
    }
    samples
}

/// Times one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Peak resident set size of this process in MB (`VmHWM` of
/// `/proc/self/status`), or `None` where the kernel does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 * 1024.0 / 1e6)
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 95.0), 10.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn samples_sum_and_percentiles() {
        let mut s = Samples::default();
        for ms in [10, 20, 1000] {
            s.push(Duration::from_millis(ms));
        }
        assert_eq!(s.len(), 3);
        assert!((s.sum() - 1.03).abs() < 1e-12);
        assert_eq!(s.first(), 0.01);
        assert_eq!(s.percentile_ms(50.0), 20.0);
        let mut odd = s.filtered(|i| i % 2 == 1);
        assert_eq!((odd.len(), odd.first()), (1, 0.02));
        odd.extend(&s);
        assert_eq!(odd.len(), 4);
        odd.push_secs(0.5);
        assert_eq!(odd.secs(), [0.02, 0.01, 0.02, 1.0, 0.5]);
        assert!((mbps(3_000_000, 2.0) - 1.5).abs() < 1e-12);
        assert!((gbps(3_000_000_000, 2.0) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn sample_calls_honours_budget_and_call_floor() {
        let nap = || std::thread::sleep(Duration::from_millis(2));
        let s = sample_calls(Duration::from_millis(7), 1, nap);
        assert!((1..=4).contains(&s.len()), "{} calls", s.len());
        assert!(s.sum() >= 0.007);
        assert_eq!(sample_calls(Duration::ZERO, 3, || ()).len(), 3);
        assert_eq!(sample_calls(Duration::ZERO, 0, || ()).len(), 1);
    }

    #[test]
    fn vm_hwm_line_is_parsed() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(20480));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }
}
