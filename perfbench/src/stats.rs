//! Small numeric helpers, the host-side span recorder, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// The `q`-quantile of `values`, interpolating linearly between the
/// closest ranks; NaN for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`; NaN for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Geometric mean; NaN if any value is not a positive finite number.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|v| !v.is_finite() || *v <= 0.0) {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Arithmetic mean; NaN for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Host-time spans recorded around the calls the benchmark makes into each
/// layer, kept in memory and summarised by name when the run ends. A
/// disabled recorder drops every span, so untraced runs pay only for the
/// clock reads they need for their own end-to-end metrics.
#[derive(Debug, Default)]
pub struct Spans {
    enabled: bool,
    by_name: BTreeMap<&'static str, Vec<f64>>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            by_name: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn record(&mut self, name: &'static str, d: Duration) {
        if self.enabled {
            self.by_name.entry(name).or_default().push(d.as_secs_f64());
        }
    }

    /// Median span duration of `name` in seconds (NaN if never recorded).
    pub fn median_s(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(f64::NAN, |v| median(v))
    }

    /// Mean span duration of `name` in seconds (NaN if never recorded).
    pub fn mean_s(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(f64::NAN, |v| mean(v))
    }
}

/// Host-side figures of one round, whatever the workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundHost {
    /// Work completed and verified: operations after each run's first,
    /// requests, or crash boundaries.
    pub work: u64,
    /// Host seconds inside the measured calls, set-up excluded where it
    /// can be observed.
    pub run_s: f64,
    /// Host seconds of set-up, summed over the round's runs.
    pub setup_s: f64,
    /// Wall seconds of the whole round.
    pub wall_s: f64,
}

/// Work attempted and failed in a run, plus every failed check's message.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Tally {
    /// Records a failed check (it makes the run incorrect).
    pub fn problem(&mut self, msg: String) {
        eprintln!("CHECK FAILED: {msg}");
        self.problems.push(msg);
    }

    /// Records `msg` as a problem unless `ok`.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.problem(msg());
        }
    }
}

/// One printed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The result line: `correct`, `attempted`, `failed` and every metric with
/// its unit. Values print with all their digits (Rust's shortest
/// round-trip form).
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        write!(
            body,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[4.0, 1.0, 2.0, 3.0, 5.0], 0.25), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.25), 1.25);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!(geomean(&[1.0, 0.0]).is_nan());
    }

    #[test]
    fn result_line_shape() {
        let line = result_line(
            true,
            3,
            0,
            &[metric("a_s", 1.5, "s"), metric("b", 2.0, "x")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a_s\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 2, \"unit\": \"x\"}}}"
        );
    }
}
