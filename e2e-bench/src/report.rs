//! Sample statistics, metric naming and the one-line JSON result.

use std::fmt::Write as _;
use std::time::Duration;

/// Percentiles a timing may be reported at, lowest first, in units of
/// 0.01% so the rank arithmetic stays exact.
const LADDER: [u64; 5] = [5000, 9000, 9900, 9990, 9999];

/// The highest percentile of [`LADDER`] that has at least ten of `n`
/// samples beyond its nearest rank, or `None` when even the median lacks
/// that support.
pub fn supported_percentile(n: usize) -> Option<f64> {
    let n = n as u64;
    let beyond = |p: u64| n - (p * n).div_ceil(10_000);
    LADDER.iter().rev().copied().find(|&p| beyond(p) >= 10).map(|p| p as f64 / 100.0)
}

/// Nearest-rank percentile `p` (0 < p <= 100) of `samples`; sorts in place.
/// Returns `None` for an empty slice. The reference for [`hist_percentile`].
#[cfg(test)]
fn percentile(samples: &mut [f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    Some(samples[rank.clamp(1, samples.len()) - 1])
}

/// Nearest-rank percentile `p` of the samples a histogram counts, as the
/// index of the bucket holding it; `None` for an empty histogram.
pub fn hist_percentile(counts: &[u64], p: f64) -> Option<usize> {
    let n: u64 = counts.iter().sum();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as u64;
    let mut seen = 0;
    counts.iter().position(|&c| {
        seen += c;
        seen >= rank
    })
}

/// The median of `samples` (midpoint of the two middle values for an even
/// count); 0 for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Whether `name` is a valid metric name: starts with a letter or digit,
/// at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Named metric values in emission order.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(&'static str, f64, &'static str)>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        match self.entries.iter_mut().find(|e| e.0 == name) {
            Some(entry) => *entry = (name, value, unit),
            None => self.entries.push((name, value, unit)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.iter().find(|e| e.0 == name).map(|e| e.1)
    }

    /// Keeps exactly the `declared` metrics, in declaration order. Errors
    /// on a missing or invalidly named metric, or a non-finite value.
    pub fn select(&self, declared: &[(&'static str, &'static str)]) -> Result<Metrics, String> {
        let mut out = Metrics::default();
        for &(name, unit) in declared {
            if !valid_metric_name(name) {
                return Err(format!("invalid metric name {name:?}"));
            }
            let value = self.get(name).ok_or_else(|| format!("metric {name} not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            out.set(name, value, unit);
        }
        Ok(out)
    }

    pub fn iter(&self) -> impl Iterator<Item = &(&'static str, f64, &'static str)> {
        self.entries.iter()
    }
}

/// The result line: `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    s.push_str("}}");
    s
}

/// A finite `f64` as a JSON number with every digit Rust's shortest
/// round-trip formatting gives it.
fn json_number(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains('e') || s.contains('.') {
        s
    } else {
        format!("{s}.0")
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 if
/// `/proc/self/status` is unreadable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn supported_percentile_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(0), None);
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(99), Some(50.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(999), Some(90.0));
        assert_eq!(supported_percentile(1000), Some(99.0));
        assert_eq!(supported_percentile(10_000), Some(99.9));
        assert_eq!(supported_percentile(10_000_000), Some(99.99));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), Some(50.0));
        assert_eq!(percentile(&mut v, 90.0), Some(90.0));
        assert_eq!(percentile(&mut v, 99.0), Some(99.0));
        assert_eq!(percentile(&mut v, 100.0), Some(100.0));
        assert_eq!(percentile(&mut [7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&mut [], 50.0), None);
    }

    #[test]
    fn hist_percentile_matches_the_sorted_samples() {
        let samples: Vec<usize> = (0..1000).map(|i| (i * 7919) % 300).collect();
        let mut counts = vec![0u64; 300];
        let mut sorted: Vec<f64> = Vec::new();
        for &s in &samples {
            counts[s] += 1;
            sorted.push(s as f64);
        }
        for p in [1.0, 50.0, 90.0, 99.0, 100.0] {
            let want = percentile(&mut sorted, p).map(|v| v as usize);
            assert_eq!(hist_percentile(&counts, p), want, "p{p}");
        }
        assert_eq!(hist_percentile(&[0, 0], 50.0), None);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn metric_names_are_validated() {
        for ok in ["setup_s", "window_ms.p50", "pregel.pool_speedup", "9lives", "a-b"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", ".p50", "_x", "has space", "ünïcode", "a/b", "a\"b", &"x".repeat(65)]
        {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn select_rejects_missing_invalid_and_non_finite() {
        let mut m = Metrics::default();
        m.set("a", 1.0, "ms");
        m.set("b", f64::NAN, "ms");
        m.set("bad name", 1.0, "ms");
        assert!(m.select(&[("a", "ms")]).is_ok());
        assert!(m.select(&[("missing", "ms")]).is_err());
        assert!(m.select(&[("b", "ms")]).is_err());
        assert!(m.select(&[("bad name", "ms")]).is_err());
    }

    #[test]
    fn result_line_is_json_shaped() {
        let mut m = Metrics::default();
        m.set("latency_ms", 1.25, "ms");
        m.set("count", 3.0, "count");
        assert_eq!(
            result_json(true, 10, 0, &m),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"count\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
    }
}
