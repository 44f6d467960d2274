//! Result assembly: failure accounting, the human-readable lines, the
//! result file, and the final one-line JSON object.

use gopher_json::Json;
use std::collections::BTreeMap;
use std::path::Path;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
    /// What the value was taken over (percentile, sample count, base).
    pub note: String,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// The metrics of the final JSON line.
    pub metrics: Vec<Metric>,
    /// Printed and recorded, but not part of the final JSON line.
    pub details: Vec<Metric>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: refused, errored, timed out, or answered
    /// with an output that failed its check.
    pub failed: u64,
    failures: Vec<String>,
}

/// Failure messages kept for the log (the count is always exact).
const KEPT_FAILURES: usize = 20;

impl Report {
    /// Adds a metric of the final JSON line.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            note: note.into(),
        });
    }

    /// Adds a printed-only detail.
    pub fn detail(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.details.push(Metric {
            name: name.into(),
            value,
            unit,
            note: note.into(),
        });
    }

    /// Counts one operation and, if it failed, why.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.failures.len() < KEPT_FAILURES {
                self.failures.push(why);
            }
        }
    }

    /// `failed / attempted`.
    pub fn failed_share(&self) -> f64 {
        crate::stats::ratio(self.failed as f64, self.attempted as f64).value
    }

    /// The final JSON line.
    pub fn result_json(&self) -> Json {
        let metrics: BTreeMap<String, Json> = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj([("value", Json::num(m.value)), ("unit", Json::str(m.unit))]),
                )
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::num(self.attempted as f64)),
            ("failed", Json::num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// Prints the human-readable lines and the provenance line, writes the
    /// full record to `out` (when given), and prints the final JSON line
    /// last.
    pub fn emit(&self, provenance: Json, out: Option<&Path>) {
        for why in &self.failures {
            eprintln!("failed: {why}");
        }
        for m in self.metrics.iter().chain(&self.details) {
            println!("{:<34} {:>14.4} {:<6} {}", m.name, m.value, m.unit, m.note);
        }
        println!(
            "{:<34} {:>14.4} {:<6} {} failed of {} attempted",
            "failed_share",
            self.failed_share(),
            "ratio",
            self.failed,
            self.attempted
        );
        println!("provenance {provenance}");
        let result = self.result_json();
        if let Some(path) = out {
            let record = |ms: &[Metric]| {
                Json::Arr(
                    ms.iter()
                        .map(|m| {
                            Json::obj([
                                ("name", Json::str(&m.name)),
                                ("value", Json::num(m.value)),
                                ("unit", Json::str(m.unit)),
                                ("note", Json::str(&m.note)),
                            ])
                        })
                        .collect(),
                )
            };
            let full = Json::obj([
                ("provenance", provenance),
                ("result", result.clone()),
                ("metrics", record(&self.metrics)),
                ("details", record(&self.details)),
                (
                    "failures",
                    Json::Arr(self.failures.iter().map(Json::str).collect()),
                ),
            ]);
            let written = path
                .parent()
                .map_or(Ok(()), std::fs::create_dir_all)
                .and_then(|()| std::fs::write(path, format!("{full}\n")));
            if let Err(e) = written {
                eprintln!("cannot write {}: {e}", path.display());
            }
        }
        println!("{result}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_are_counted_and_flip_correct() {
        let mut r = Report::default();
        r.op(Ok(()));
        r.op(Err("bad".into()));
        r.metric("latency_ms", 1.5, "ms", "");
        assert_eq!((r.attempted, r.failed), (2, 1));
        assert_eq!(r.failed_share(), 0.5);
        let json = r.result_json();
        assert_eq!(json.get("correct"), Some(&Json::Bool(false)));
        let text = json.to_string();
        assert!(
            text.contains("\"latency_ms\":{\"unit\":\"ms\",\"value\":1.5}"),
            "{text}"
        );
    }

    #[test]
    fn failed_share_with_nothing_attempted_is_zero() {
        assert_eq!(Report::default().failed_share(), 0.0);
    }
}
