//! Order statistics and the hand-written JSON the harness prints.

use std::fmt::Write as _;
use std::time::Duration;

/// The `p`-quantile (0.0..=1.0) of `values` by nearest rank; `None` when
/// empty.
pub fn quantile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub const MIB: f64 = (1u64 << 20) as f64;

/// One named metric with its unit; `None` is a metric that could not be
/// measured in this run (printed as missing, never as zero).
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: Option<f64>,
}

/// Ordered metric list of one run.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn put(&mut self, name: &'static str, unit: &'static str, value: Option<f64>) {
        self.metrics.push(Metric { name, unit, value });
    }

    /// Human-readable lines, one metric each.
    pub fn print_lines(&self, prefix: &str) {
        for m in &self.metrics {
            match m.value {
                Some(v) => println!("{prefix}{:<36} {:>14.4} {}", m.name, v, m.unit),
                None => println!("{prefix}{:<36} {:>14} {}", m.name, "missing", m.unit),
            }
        }
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` restricted to `names`
    /// (in that order); missing metrics are left out.
    pub fn json_object(&self, names: &[&str]) -> String {
        let mut out = String::from("{");
        let mut first = true;
        for name in names {
            let Some(m) = self.metrics.iter().find(|m| m.name == *name) else {
                continue;
            };
            let Some(v) = m.value else { continue };
            if !first {
                out.push_str(", ");
            }
            first = false;
            let _ = write!(
                out,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(v),
                json_str(m.unit)
            );
        }
        out.push('}');
        out
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_by_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(50.0));
        assert_eq!(quantile(&v, 0.99), Some(99.0));
        assert_eq!(quantile(&v, 1.0), Some(100.0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), Some(2.5));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn json_objects_skip_missing_metrics() {
        let mut r = Report::default();
        r.put("a", "ms", Some(1.5));
        r.put("b", "count", None);
        assert_eq!(
            r.json_object(&["a", "b"]),
            "{\"a\": {\"value\": 1.5, \"unit\": \"ms\"}}"
        );
        assert_eq!(json_str("x\"y"), "\"x\\\"y\"");
    }
}
