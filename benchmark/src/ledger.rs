//! The per-layer ledger a traced run fills: one row per layer metric, with
//! its sample count, plus an `unattributed_ms` row per stage for the part
//! of the stage's end-to-end time no measured layer accounts for.

use std::fmt::Write as _;

/// One ledger row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind `value` (calls timed, requests, instances, ...).
    pub samples: u64,
    /// Whether the row is a share of the wall time the ledger attributes.
    pub attributed: bool,
}

/// Rows in insertion order.
#[derive(Debug, Default)]
pub struct Ledger {
    rows: Vec<Row>,
}

impl Ledger {
    /// A time (ms) that counts towards the attributed wall time.
    pub fn layer(&mut self, name: &'static str, ms: f64, samples: u64) {
        self.push(name, ms, "ms", samples, true);
    }

    /// Any other measurement: a count, ratio, size, or a time that overlaps
    /// a layer already attributed.
    pub fn stat(&mut self, name: &'static str, value: f64, unit: &'static str, samples: u64) {
        self.push(name, value, unit, samples, false);
    }

    fn push(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        samples: u64,
        attributed: bool,
    ) {
        assert!(
            self.rows.iter().all(|r| r.name != name),
            "ledger row `{name}` recorded twice"
        );
        self.rows.push(Row {
            name,
            value,
            unit,
            samples,
            attributed,
        });
    }

    /// Sum of the attributed layer times.
    pub fn attributed_ms(&self) -> f64 {
        self.rows
            .iter()
            .filter(|r| r.attributed)
            .map(|r| r.value)
            .sum()
    }

    /// Closes the ledger against the end-to-end wall time it explains:
    /// appends the row `name` = `wall_ms - Σ layer ms` (negative when
    /// separately timed layers overlap or run faster alone than in the
    /// chain) and returns it.
    pub fn finish(&mut self, name: &'static str, wall_ms: f64, samples: u64) -> f64 {
        let rest = wall_ms - self.attributed_ms();
        self.push(name, rest, "ms", samples, false);
        rest
    }

    /// Appends the rows of another ledger, as they are.
    pub fn extend(&mut self, other: Ledger) {
        for r in other.rows {
            self.push(r.name, r.value, r.unit, r.samples, r.attributed);
        }
    }

    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Human-readable table.
    pub fn render(&self, title: &str) -> String {
        let mut out = format!("# ledger: {title}\n");
        let _ = writeln!(
            out,
            "#   {:<28} {:>16} {:<14} {:>8}",
            "metric", "value", "unit", "samples"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "#   {:<28} {:>16.4} {:<14} {:>8}{}",
                r.name,
                r.value,
                r.unit,
                r.samples,
                if r.attributed { "  *" } else { "" }
            );
        }
        out.push_str("#   (* = counted towards attributed wall time)\n");
        out
    }

    /// The ledger as a JSON array of `{name, value, unit, samples}`.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                format!(
                    "{{\"name\": \"{}\", \"value\": {}, \"unit\": \"{}\", \"samples\": {}}}",
                    r.name,
                    crate::report::json_number(r.value),
                    r.unit,
                    r.samples
                )
            })
            .collect();
        format!("[{}]", rows.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unattributed_is_wall_minus_layers() {
        let mut l = Ledger::default();
        l.layer("a_ms", 30.0, 3);
        l.stat("count", 1000.0, "count", 1);
        l.layer("b_ms", 50.0, 5);
        l.stat("overlapping_ms", 70.0, "ms", 1);
        assert_eq!(l.attributed_ms(), 80.0);
        assert_eq!(l.finish("unattributed_ms", 100.0, 1), 20.0);
        let last = l.rows().last().unwrap();
        assert_eq!(
            (last.name, last.value, last.unit),
            ("unattributed_ms", 20.0, "ms")
        );
    }

    #[test]
    fn overlapping_layers_go_negative_rather_than_clamp() {
        let mut l = Ledger::default();
        l.layer("a_ms", 60.0, 1);
        l.layer("b_ms", 50.0, 1);
        assert_eq!(l.finish("unattributed_ms", 100.0, 1), -10.0);
    }

    #[test]
    #[should_panic(expected = "recorded twice")]
    fn names_are_unique() {
        let mut l = Ledger::default();
        l.layer("a_ms", 1.0, 1);
        l.stat("a_ms", 1.0, "ms", 1);
    }

    #[test]
    fn json_lists_every_row() {
        let mut l = Ledger::default();
        l.stat("x", 0.5, "count", 2);
        l.finish("unattributed_ms", 1.0, 1);
        assert_eq!(
            l.to_json(),
            "[{\"name\": \"x\", \"value\": 0.5, \"unit\": \"count\", \"samples\": 2}, \
             {\"name\": \"unattributed_ms\", \"value\": 1, \"unit\": \"ms\", \"samples\": 1}]"
        );
    }
}
