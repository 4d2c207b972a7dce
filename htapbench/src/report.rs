//! Statistics and the result line.

/// Nearest-rank percentile `p` (0..=100) of a sorted sample; 0 when empty.
pub fn pct(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Median of `values`; 0 when empty.
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
    /// Part of the JSON result line, not only printed.
    in_result: bool,
}

/// Named metrics in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    /// Add a metric measured over `samples` samples.
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.push(name, value, unit, samples, true);
    }

    /// Add a metric that is printed but kept out of the result line.
    pub fn info(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.push(name, value, unit, samples, false);
    }

    fn push(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        samples: usize,
        in_result: bool,
    ) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
            in_result,
        });
    }

    /// One line per metric, then the JSON result as the last line.
    pub fn print(&self, correct: bool, attempted: u64, failed: u64) {
        for m in &self.0 {
            let note = if m.in_result { "" } else { ", printed only" };
            println!(
                "  {:<32} {:>16.4} {:<6} (n={}{note})",
                m.name, m.value, m.unit, m.samples
            );
        }
        let body: Vec<String> = self
            .0
            .iter()
            .filter(|m| m.in_result)
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(pct(&v, 50.0), 50.0);
        assert_eq!(pct(&v, 99.0), 99.0);
        assert_eq!(pct(&v, 100.0), 100.0);
        assert_eq!(pct(&[], 50.0), 0.0);
        assert_eq!(median([3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
