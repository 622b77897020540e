//! One run's result: the named metrics, the failure tally, the contract's
//! result line and the human-readable table.

use crate::catalog::MetricDef;
use crate::json::Json;

/// A measured value of a catalog metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The catalog name.
    pub name: &'static str,
    /// The value, as measured.
    pub value: f64,
    /// The catalog unit.
    pub unit: &'static str,
}

/// Operations attempted and failed.  An operation fails when the program
/// returns an error or its output digest differs from the reference run at
/// the same seed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Why the first failing operation failed.
    pub first_failure: Option<String>,
}

impl Tally {
    /// Books one operation.
    pub fn record(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(reason) = failure {
            self.failed += 1;
            self.first_failure.get_or_insert(reason);
        }
    }

    /// Failed operations as a share of those attempted.
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The values of one metric set (every end-to-end metric, or every
/// per-layer metric), filled by name so a unit can never drift from the
/// catalog.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSet {
    defs: &'static [MetricDef],
    values: Vec<Option<f64>>,
}

impl MetricSet {
    /// An empty set over `defs`.
    pub fn new(defs: &'static [MetricDef]) -> Self {
        Self {
            defs,
            values: vec![None; defs.len()],
        }
    }

    /// Sets `name`.  Panics on a name outside the catalog — that is a bug
    /// in the benchmark, not a condition of the run.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .defs
            .iter()
            .position(|def| def.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the catalog"));
        self.values[slot] = Some(value);
    }

    /// Every metric in catalog order, or the names never set.
    pub fn finish(self) -> Result<Vec<Metric>, Vec<&'static str>> {
        let missing: Vec<&'static str> = self
            .defs
            .iter()
            .zip(&self.values)
            .filter(|(_, value)| value.is_none())
            .map(|(def, _)| def.name)
            .collect();
        if !missing.is_empty() {
            return Err(missing);
        }
        Ok(self
            .defs
            .iter()
            .zip(self.values)
            .map(|(def, value)| Metric {
                name: def.name,
                value: value.expect("checked above"),
                unit: def.unit,
            })
            .collect())
    }
}

/// The result of one benchmark run (one workload, one seed, one mode).
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// The workload name.
    pub workload: &'static str,
    /// The `--seed`.
    pub seed: u64,
    /// The operation tally.
    pub tally: Tally,
    /// The metrics, in catalog order.
    pub metrics: Vec<Metric>,
    /// Free-form lines for the human-readable table (sample counts, tail
    /// percentile, where the trace went).
    pub notes: Vec<String>,
}

impl RunResult {
    /// True when no operation failed.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0
    }

    /// The result as a JSON object with exactly the contract's keys:
    /// `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.tally.attempted as f64)),
            ("failed", Json::Num(self.tally.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.name,
                        Json::obj([
                            ("value", Json::Num(m.value)),
                            ("unit", Json::Str(m.unit.to_string())),
                        ]),
                    )
                })),
            ),
        ])
    }

    /// Every metric by name with its unit, one per line, plus the notes.
    pub fn table(&self) -> String {
        let mut out = format!(
            "workload {}  seed {}  attempted {}  failed {}  failed_share {}\n",
            self.workload,
            self.seed,
            self.tally.attempted,
            self.tally.failed,
            self.tally.failed_share()
        );
        if let Some(reason) = &self.tally.first_failure {
            out.push_str(&format!("  first failure: {reason}\n"));
        }
        for metric in &self.metrics {
            out.push_str(&format!(
                "  {:<36} {:>20} {}\n",
                metric.name, metric.value, metric.unit
            ));
        }
        for note in &self.notes {
            out.push_str(&format!("  # {note}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::END_TO_END;

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut tally = Tally::default();
        tally.record(None);
        tally.record(Some("digest mismatch".into()));
        tally.record(Some("later".into()));
        tally.record(None);
        assert_eq!((tally.attempted, tally.failed), (4, 2));
        assert_eq!(tally.failed_share(), 0.5);
        assert_eq!(tally.first_failure.as_deref(), Some("digest mismatch"));
        assert_eq!(Tally::default().failed_share(), 0.0);
    }

    #[test]
    fn metric_set_reports_missing_names_and_result_line_has_the_contract_keys() {
        let mut set = MetricSet::new(&END_TO_END);
        set.set("run_s_p10", 0.25);
        let missing = set.clone().finish().unwrap_err();
        assert_eq!(missing.len(), END_TO_END.len() - 1);
        assert!(!missing.contains(&"run_s_p10"));
        for def in &END_TO_END {
            set.set(def.name, 1.5);
        }
        let result = RunResult {
            workload: "w",
            seed: 7,
            tally: Tally {
                attempted: 12,
                failed: 0,
                first_failure: None,
            },
            metrics: set.finish().unwrap(),
            notes: vec!["samples 12".into()],
        };
        let line = result.to_json().emit();
        let parsed = Json::parse(&line).unwrap();
        let keys: Vec<&str> = parsed
            .as_obj()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
        let setup = parsed
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .unwrap();
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(1.5));
        assert!(result.table().contains("run_s_p10"));
    }

    #[test]
    #[should_panic(expected = "not in the catalog")]
    fn metric_set_rejects_unknown_names() {
        MetricSet::new(&END_TO_END).set("nope", 1.0);
    }
}
