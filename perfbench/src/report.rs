//! The run's ledger: operations attempted and failed, named metrics with
//! units, and the final one-line JSON result.

use std::fmt::Write as _;

/// Counts operations, collects metrics and prints the result.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Records one operation and whether it succeeded.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records one operation that may have failed (an error or a failed
    /// check), printing the first few reasons to stderr.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        if let Err(reason) = &result {
            if self.failed < 3 {
                eprintln!("FAILED {what}: {reason}");
            }
        }
        self.op(result.is_ok());
    }

    /// Records `n` operations of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed.min(n);
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Adds a metric. Non-finite values count as a failed operation and
    /// are reported as 0 so the JSON stays valid.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() {
            value
        } else {
            eprintln!("FAILED metric {name}: non-finite value {value}");
            self.op(false);
            0.0
        };
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn names(&self) -> impl Iterator<Item = (&str, &'static str)> {
        self.metrics.iter().map(|(n, _, u)| (n.as_str(), *u))
    }

    /// `failed / attempted` — the run's error ratio.
    pub fn error_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }

    /// Prints one human-readable line per metric, then the result line
    /// last on stdout.
    pub fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("{name:32} {value:>18.6} {unit}");
        }
        println!(
            "{:32} {:>18.6} ratio ({} failed of {} attempted)",
            "error_ratio",
            self.error_ratio(),
            self.failed,
            self.attempted
        );
        println!("{}", self.json());
    }
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q` quantile of `values` with linear interpolation between order
/// statistics (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.95), 9.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_counts_failures() {
        let mut r = Report::default();
        r.op(true);
        r.check("x", Err("boom".into()));
        r.metric("a_ms", 1.5, "ms");
        let line = r.json();
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1,"));
        assert!(line.contains("\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}"));
    }
}
