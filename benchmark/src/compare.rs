//! Result sets (what `run` writes) and `compare A.json B.json`: the bounds
//! of the catalog applied per (workload, end-to-end metric).

use crate::catalog::{end_to_end, Better, END_TO_END};
use crate::json::Json;
use crate::stats::{iqr_share, median, quartiles};
use std::collections::BTreeMap;

/// Wraps the result lines of one `run` into a result-set document.
pub fn result_set(seed: u64, seconds: f64, runs: Vec<Json>) -> Json {
    Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("runs", Json::Arr(runs)),
    ])
}

/// One run's result line plus the identity `run` attaches to it.
pub fn tag_run(result: &Json, workload: &str, seed: u64, trace: bool) -> Json {
    let mut tagged = result.as_obj().cloned().unwrap_or_default();
    tagged.insert("workload".into(), Json::Str(workload.into()));
    tagged.insert("seed".into(), Json::Num(seed as f64));
    tagged.insert("trace".into(), Json::Num(f64::from(u8::from(trace))));
    Json::Obj(tagged)
}

/// Per workload: every end-to-end metric's values over the set's untraced
/// runs, plus the failed share of those runs.
type Samples = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

const FAILED_SHARE: &str = "failed_share";

fn samples(set: &Json) -> Result<Samples, String> {
    let runs = set
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("result set has no \"runs\" array")?;
    let mut out = Samples::new();
    for run in runs {
        if run.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("run without a workload name")?;
        let per_metric = out.entry(workload.to_string()).or_default();
        let number = |key: &str| {
            run.get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("{workload}: run without {key:?}"))
        };
        let attempted = number("attempted")?;
        per_metric
            .entry(FAILED_SHARE.to_string())
            .or_default()
            .push(if attempted > 0.0 {
                number("failed")? / attempted
            } else {
                1.0
            });
        for def in &END_TO_END {
            let value = run
                .get("metrics")
                .and_then(|m| m.get(def.name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .ok_or(format!("{workload}: run without metric {:?}", def.name))?;
            per_metric
                .entry(def.name.to_string())
                .or_default()
                .push(value);
        }
    }
    Ok(out)
}

/// The verdict on one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Within,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The run-to-run spread is wider than the bound, and B's runs do not
    /// all read better than A's: the data cannot tell.
    Unresolved,
}

impl Verdict {
    /// Lowercase name, as printed.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// The verdict.
    pub verdict: Verdict,
    /// By what share of A's median B is worse (negative: better).
    pub worse_by: f64,
    /// The bound applied.
    pub bound: f64,
    /// A's (q1, median, q3).
    pub a: (f64, f64, f64),
    /// B's (q1, median, q3).
    pub b: (f64, f64, f64),
}

/// Judges B's values against A's.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (Verdict, f64) {
    let (a_mid, b_mid) = (median(a), median(b));
    let worse = match better {
        Better::Lower => b_mid - a_mid,
        Better::Higher => a_mid - b_mid,
    };
    let worse_by = if a_mid == 0.0 {
        if worse > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        worse / a_mid.abs()
    };
    let all_better = match better {
        Better::Lower => b.iter().all(|b| a.iter().all(|a| b < a)),
        Better::Higher => b.iter().all(|b| a.iter().all(|a| b > a)),
    };
    let verdict = if iqr_share(a).max(iqr_share(b)) > bound && !all_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Within
    };
    (verdict, worse_by)
}

/// Compares result set `b` against `a`: one row per (workload, metric) of
/// `a`.  A pair missing from `b` is an error — a comparison that silently
/// skips a metric proves nothing.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let (a, b) = (samples(a)?, samples(b)?);
    let mut rows = Vec::new();
    for (workload, a_metrics) in &a {
        let b_metrics = b.get(workload).ok_or(format!(
            "workload {workload:?} is missing from the second set"
        ))?;
        for (metric, a_values) in a_metrics {
            let b_values = &b_metrics[metric];
            // `failed_share` is not in the catalog: lower is better, bound 0.
            let (better, bound) =
                end_to_end(metric).map_or((Better::Lower, 0.0), |def| (def.better, def.bound));
            let (verdict, worse_by) = judge(a_values, b_values, better, bound);
            let summary = |values: &[f64]| {
                let (q1, q3) = quartiles(values);
                (q1, median(values), q3)
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.clone(),
                verdict,
                worse_by,
                bound,
                a: summary(a_values),
                b: summary(b_values),
            });
        }
    }
    Ok(rows)
}

/// The comparison as a table, one row per (workload, metric).
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<24} {:<14} {:<10} {:>9} {:>6}  {:<38} {}\n",
        "workload", "metric", "verdict", "worse_by", "bound", "A q1/median/q3", "B q1/median/q3"
    );
    for row in rows {
        let triple = |(q1, mid, q3): (f64, f64, f64)| format!("{q1:.6}/{mid:.6}/{q3:.6}");
        out.push_str(&format!(
            "{:<24} {:<14} {:<10} {:>8.2}% {:>5.0}%  {:<38} {}\n",
            row.workload,
            row.metric,
            row.verdict.as_str(),
            100.0 * row.worse_by,
            100.0 * row.bound,
            triple(row.a),
            triple(row.b)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(run_s: &[f64], f1: f64, failed: f64) -> Json {
        let runs = run_s
            .iter()
            .map(|&value| {
                let metrics = Json::obj(END_TO_END.iter().map(|def| {
                    let value = match def.name {
                        "run_s_p10" => value,
                        "f1" => f1,
                        _ => 1.0,
                    };
                    (
                        def.name,
                        Json::obj([
                            ("value", Json::Num(value)),
                            ("unit", Json::Str(def.unit.into())),
                        ]),
                    )
                }));
                let line = Json::obj([
                    ("correct", Json::Bool(failed == 0.0)),
                    ("attempted", Json::Num(10.0)),
                    ("failed", Json::Num(failed)),
                    ("metrics", metrics),
                ]);
                tag_run(&line, "w", 1, false)
            })
            .chain([tag_run(&Json::Obj(Default::default()), "w", 1, true)])
            .collect();
        result_set(1, 1.0, runs)
    }

    fn verdict_of(rows: &[Row], metric: &str) -> Verdict {
        rows.iter()
            .find(|row| row.metric == metric)
            .unwrap_or_else(|| panic!("row {metric}"))
            .verdict
    }

    #[test]
    fn identical_sets_are_within_on_every_row() {
        let a = set(&[1.0, 1.01, 0.99], 0.9, 0.0);
        let rows = compare(&a, &a).unwrap();
        assert_eq!(rows.len(), END_TO_END.len() + 1, "traced runs are skipped");
        assert!(rows.iter().all(|row| row.verdict == Verdict::Within));
        assert!(render(&rows).contains("within"));
    }

    #[test]
    fn a_slower_median_beyond_the_bound_regresses() {
        let a = set(&[1.0, 1.01, 0.99], 0.9, 0.0);
        let slower = set(&[1.5, 1.51, 1.49], 0.9, 0.0);
        let rows = compare(&a, &slower).unwrap();
        assert_eq!(verdict_of(&rows, "run_s_p10"), Verdict::Regressed);
        assert_eq!(verdict_of(&rows, "setup_s"), Verdict::Within);
        // Faster is never a regression, and a drop in a higher-is-better
        // metric is.
        let rows = compare(&slower, &set(&[1.0, 1.01, 0.99], 0.6, 0.0)).unwrap();
        assert_eq!(verdict_of(&rows, "run_s_p10"), Verdict::Within);
        assert_eq!(verdict_of(&rows, "f1"), Verdict::Regressed);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_is_better() {
        let noisy = set(&[1.0, 1.6, 0.6, 1.4, 0.7], 0.9, 0.0);
        let rows = compare(&noisy, &noisy).unwrap();
        assert_eq!(verdict_of(&rows, "run_s_p10"), Verdict::Unresolved);
        let clearly_faster = set(&[0.5, 0.55, 0.4, 0.45, 0.3], 0.9, 0.0);
        let rows = compare(&noisy, &clearly_faster).unwrap();
        assert_eq!(verdict_of(&rows, "run_s_p10"), Verdict::Within);
    }

    #[test]
    fn any_new_failure_regresses_and_missing_workloads_are_errors() {
        let a = set(&[1.0], 0.9, 0.0);
        let failing = set(&[1.0], 0.9, 1.0);
        let rows = compare(&a, &failing).unwrap();
        assert_eq!(verdict_of(&rows, FAILED_SHARE), Verdict::Regressed);
        let empty = result_set(1, 1.0, Vec::new());
        assert!(compare(&a, &empty).is_err());
        assert!(compare(&Json::Null, &a).is_err());
    }
}
