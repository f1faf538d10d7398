//! Order statistics and per-class operation accounting.

use std::collections::BTreeMap;

/// Median of `values` (mean of the middle pair for an even count).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values`.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// What one operation class did in a run: attempts, failures (a non-2xx
/// status or a wrong answer), and the latency of every success.
#[derive(Debug, Clone, Default)]
pub struct ClassStats {
    pub attempted: u64,
    pub failed: u64,
    /// Latencies of successful operations, in milliseconds.
    pub ok_ms: Vec<f64>,
    /// The first failure's reason, so a failing class explains itself.
    pub first_error: Option<String>,
}

/// Per-class accounting for one run (or one client thread of it).
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub classes: BTreeMap<&'static str, ClassStats>,
}

impl Tally {
    /// Account one finished operation. Failures never contribute a
    /// latency sample.
    pub fn record(&mut self, class: &'static str, ms: f64, outcome: Result<(), String>) {
        let c = self.classes.entry(class).or_default();
        c.attempted += 1;
        match outcome {
            Ok(()) => c.ok_ms.push(ms),
            Err(e) => {
                c.failed += 1;
                c.first_error.get_or_insert(e);
            }
        }
    }

    /// Fold another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        for (name, o) in other.classes {
            let c = self.classes.entry(name).or_default();
            c.attempted += o.attempted;
            c.failed += o.failed;
            c.ok_ms.extend(o.ok_ms);
            if c.first_error.is_none() {
                c.first_error = o.first_error;
            }
        }
    }

    pub fn attempted(&self) -> u64 {
        self.classes.values().map(|c| c.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.classes.values().map(|c| c.failed).sum()
    }

    /// Median latency of a class's successes, in milliseconds.
    pub fn p50_ms(&self, class: &str) -> Option<f64> {
        self.classes.get(class).and_then(|c| median(&c.ok_ms))
    }

    /// Successful operations of the given classes.
    pub fn ok_count(&self, classes: &[&str]) -> usize {
        classes
            .iter()
            .filter_map(|c| self.classes.get(c))
            .map(|c| c.ok_ms.len())
            .sum()
    }

    /// One line per class: attempted, failed, successes' p50, first error.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, c) in &self.classes {
            out.push_str(&format!(
                "class {name:<10} attempted {:>7} failed {:>5} p50_ms {:>10.4} p99_ms {:>10.4} mean_ms {:>10.4}",
                c.attempted,
                c.failed,
                median(&c.ok_ms).unwrap_or(f64::NAN),
                quantile(&c.ok_ms, 0.99).unwrap_or(f64::NAN),
                c.ok_ms.iter().sum::<f64>() / c.ok_ms.len() as f64
            ));
            if let Some(e) = &c.first_error {
                out.push_str(&format!("  first failure: {e}"));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(quantile(&[0.0, 10.0], 0.99), Some(9.9));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn failures_are_counted_and_excluded_from_latency() {
        let mut t = Tally::default();
        t.record("get", 1.0, Ok(()));
        t.record("get", 100.0, Err("wrong record".into()));
        t.record("get", 3.0, Ok(()));
        assert_eq!((t.attempted(), t.failed()), (3, 1));
        assert_eq!(t.p50_ms("get"), Some(2.0));
        assert!(t.render().contains("wrong record"));
    }
}
