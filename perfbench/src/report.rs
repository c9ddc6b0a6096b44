//! Metrics as the benchmark reports them: one human-readable line per
//! metric, then the result object as the last line of standard output.

use crate::stats::valid_name;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, `<layer>.<metric>` for per-layer metrics.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value was computed from.
    pub n: usize,
    /// How the value was taken, e.g. the percentile of a tail.
    pub note: String,
}

impl Metric {
    /// A metric with no note.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, n: usize) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            n,
            note: String::new(),
        }
    }

    /// Attach a note.
    pub fn note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

/// A report under construction.
#[derive(Default)]
pub struct Report {
    /// Every metric, in the order printed.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Add a metric.
    pub fn push(&mut self, m: Metric) {
        self.metrics.push(m);
    }

    /// The metric called `name`.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Print one line per metric, then the result object carrying the
    /// metrics named in `keep`. A kept metric that is missing or not a
    /// finite number makes the result incorrect.
    pub fn print(&self, keep: &[&str], attempted: u64, failed: u64, mut correct: bool) {
        for m in &self.metrics {
            let note = if m.note.is_empty() {
                String::new()
            } else {
                format!(", {}", m.note)
            };
            println!(
                "metric {} = {} {} (n={}{note})",
                m.name, m.value, m.unit, m.n
            );
        }
        let mut fields = Vec::new();
        for &name in keep {
            match self.get(name) {
                Some(m) if m.value.is_finite() && valid_name(name) => fields.push(format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.value, m.unit
                )),
                other => {
                    eprintln!("perfbench: metric {name} not measured: {other:?}");
                    correct = false;
                }
            }
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            attempted.max(1),
            fields.join(", ")
        );
    }
}
