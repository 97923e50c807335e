//! What one run prints: correctness, operations attempted and failed, and
//! the metrics, as the last line of standard output.

/// Results and check failures of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (and were counted, not fatal).
    pub failed: u64,
    metrics: Vec<(String, f64, String)>,
    failures: Vec<String>,
}

impl Report {
    /// Record a metric; a later value of the same name replaces it.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.retain(|(n, _, _)| n != name);
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// A recorded metric's value and unit.
    pub fn get(&self, name: &str) -> Option<(f64, &str)> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, u)| (*v, u.as_str()))
    }

    /// Record a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    /// Record a failed check.
    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The failed checks.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// The JSON result line, with the metrics named in `names` (each given
    /// with its unit). A name the run did not record is reported as 0: its
    /// layer does no work on this workload.
    pub fn to_json(&self, names: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                let value = self.get(name).map_or(0.0, |(v, _)| v);
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lists_requested_metrics_in_order() {
        let mut r = Report {
            attempted: 10,
            failed: 2,
            ..Report::default()
        };
        r.metric("b", 1.5, "s");
        r.metric("a", 0.25, "ms");
        r.metric("a", 0.5, "ms");
        assert_eq!(
            r.to_json(&[("a", "ms"), ("b", "s"), ("c", "count")]),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 2, \"metrics\": {\"a\": {\"value\": 0.5, \"unit\": \"ms\"}, \"b\": {\"value\": 1.5, \"unit\": \"s\"}, \"c\": {\"value\": 0, \"unit\": \"count\"}}}"
        );
        r.check(false, || "broken".into());
        assert!(!r.correct());
        assert!(r.to_json(&[]).starts_with("{\"correct\": false"));
    }
}
