//! Result plumbing: named metrics with units, order statistics, the
//! correctness tally, peak memory, and the one-line JSON result.

use std::fmt::Write as _;

/// Named metrics in emission order, each with its unit.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(&'static str, f64, &'static str)>,
}

impl Metrics {
    /// Records `name` (must be unique) as `value` in `unit`.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(
            self.entries.iter().all(|(n, ..)| *n != name),
            "metric {name} recorded twice"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.entries.push((name, value, unit));
    }
}

/// Correctness checks run and failed.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one check; `ok == false` counts it as failed and logs `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("check failed: {}", what());
            }
        }
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The final result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(tally: Tally, metrics: &Metrics) -> String {
    let mut s = String::new();
    let correct = tally.failed == 0 && tally.attempted > 0;
    write!(
        s,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted.max(1),
        tally.failed
    )
    .expect("writing to a String cannot fail");
    for (i, (name, value, unit)) in metrics.entries.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    s.push_str("}}");
    s
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values`, linearly interpolated
/// between closest ranks.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Logs a latency sample's size and how many samples lie beyond its p99
/// (the p99 is only meaningful with at least ten).
pub fn log_latency(label: &str, ms: &[f64]) {
    let p99 = quantile(ms, 0.99);
    let beyond = ms.iter().filter(|&&x| x > p99).count();
    eprintln!(
        "{label}: n={} p50={:.4} ms p99={p99:.4} ms ({beyond} samples beyond p99)",
        ms.len(),
        median(ms)
    );
}

/// High-water resident set size of process `pid` (`None` = this process)
/// in MB, from `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: Option<u32>) -> std::io::Result<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path)?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| std::io::Error::other("no VmHWM line in the process status"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
    }

    #[test]
    fn result_line_shape() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.5, "s");
        let line = result_line(
            Tally {
                attempted: 3,
                failed: 0,
            },
            &m,
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
