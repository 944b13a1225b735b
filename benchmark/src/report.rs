//! The result line the benchmark prints last on stdout.

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run measured and whether its outputs were right.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (instances, epochs, requests).
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Output checks that failed; the run is correct when there are none.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records a failed output check (the run reports `correct: false`).
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// The single JSON result line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite number in JSON's syntax with every digit Rust's shortest
/// round-trip formatting gives; JSON has no infinities, so a non-finite
/// value (a bug upstream, flagged by the caller) prints as `null`.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metric("setup_s", 0.8127, "s");
        o.metric("epoch_ms", 12.0, "ms");
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"epoch_ms\": {\"value\": 12, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut o = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        o.check(true, || unreachable!());
        assert!(o.to_json().contains("\"correct\": true"));
        o.check(false, || "wrong key".into());
        assert!(o.to_json().contains("\"correct\": false"));
        assert_eq!(json_number(f64::INFINITY), "null");
    }
}
