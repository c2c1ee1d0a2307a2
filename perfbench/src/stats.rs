//! Order statistics and the result line.

use std::fmt::Write as _;

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it: `(value, percentile, sample count)`. With fewer than
/// `TAIL_BEYOND + 1` samples it is the maximum, at the 100th percentile.
pub fn tail(xs: &[f64]) -> (f64, f64, usize) {
    let s = sorted(xs);
    let n = s.len();
    if n <= TAIL_BEYOND {
        return (s.last().copied().unwrap_or(f64::NAN), 100.0, n);
    }
    let k = n - TAIL_BEYOND - 1;
    (s[k], 100.0 * (k + 1) as f64 / n as f64, n)
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value, with all its digits.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_json(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0 && attempted > 0
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // JSON has no NaN or infinity; a metric that could not be
        // measured reads as null (and fails the run's correctness).
        let value = if m.value.is_finite() { format!("{:?}", m.value) } else { "null".into() };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), (90.0, 90.0, 100));
        assert_eq!(median(&xs), 50.5);
        assert_eq!(tail(&xs[..5]), (5.0, 100.0, 5));
    }

    #[test]
    fn result_line_has_exactly_the_four_result_keys() {
        let m = [Metric { name: "p50_ms", value: 1.25, unit: "ms" }];
        assert_eq!(
            result_json(3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
