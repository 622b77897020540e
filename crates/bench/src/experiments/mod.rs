//! The paper's evaluation as **declarations**: one [`Experiment`] per table
//! or figure of Section 7 (one module each), walked by one runner
//! (`Experiment::run`) into rows of one type, [`ExperimentRow`].
//!
//! A declaration is an id, a title, its metric(s) and its cells; a `Cell`
//! is a mechanism `Variant`, a dataset, the configurations it runs at and
//! the label of the parameter it sweeps.  Every cell goes through the one
//! repetition loop ([`repeat_trials`]) on the environment's engine
//! ([`EngineConfig::from_env`]), and each metric becomes one row: its
//! `mean` over the repetitions and the `stderr` of that mean (`null` at one
//! repetition).  Wall time is not a metric, so the same scale writes the
//! same bytes.
//!
//! ```json
//! {
//!   "schema": 1,
//!   "suite": "all at user scale 0.02, item scale 0.05, m 48, g 24, reps 3",
//!   "rows": [
//!     {"id": "fig4", "dataset": "YCM", "mechanism": "TAPS", "oracle": "krr", "epsilon": 4,
//!      "k": 10, "parameter": "", "metric": "f1", "mean": 0.633333, "stderr": 0.033333}
//!   ]
//! }
//! ```
//!
//! Under `--check` ([`crate::report::check`]) a row is joined on every
//! column but `mean` and `stderr`, and `mean` must stay within the
//! threshold.  The `suite` names the selection and every scale knob, so a
//! baseline from another scale or selection is refused before the sweep.

pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod table1;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod table7;
pub mod table8;

use crate::json::Fmt;
use crate::report::{column, Column, Row, Shown, SCHEMA};
use crate::runner::{repeat_trials, run_trial, ExperimentScale, TrialMetrics};
use fedhh_datasets::{DatasetConfig, DatasetKind, FederatedDataset};
use fedhh_federated::{EngineConfig, ProtocolConfig, ProtocolError};
use fedhh_fo::FoKind;
use fedhh_mechanisms::{Mechanism, MechanismKind, Taps};
use fedhh_telemetry::Telemetry;

/// Every declaration, in the order the paper presents them.
pub static EXPERIMENTS: [Experiment; 11] = [
    fig4::FIG4,
    fig5::FIG5,
    fig6::FIG6,
    fig7::FIG7,
    table1::TABLE1,
    table3::TABLE3,
    table4::TABLE4,
    table5::TABLE5,
    table6::TABLE6,
    table7::TABLE7,
    table8::TABLE8,
];

/// The privacy budgets swept by Figures 4–7.
pub const EPSILONS: [f64; 5] = [1.0, 2.0, 3.0, 4.0, 5.0];

/// The query sizes swept by Figures 4, 5 and 7.
pub const QUERIES: [usize; 3] = [10, 20, 40];

/// The three mechanisms of the main comparison, with their defaults.
pub(crate) const MAIN: [Variant; 3] = [
    Variant::Kind(MechanismKind::Gtf),
    Variant::Kind(MechanismKind::FedPem),
    Variant::Kind(MechanismKind::Taps),
];

/// The direct uploads Tables 1 and 4 set the mechanisms against.
pub(crate) const DIRECT: [Variant; 2] =
    [Variant::Direct(FoKind::Oue), Variant::Direct(FoKind::Olh)];

/// A reported metric: its row name and how it reads a trial.
pub(crate) type Metric = (&'static str, fn(&TrialMetrics) -> f64);

/// F1 against the exact federated top-k.
pub(crate) const F1: Metric = ("f1", |m| m.f1);
/// NCR against the exact federated top-k.
pub(crate) const NCR: Metric = ("ncr", |m| m.ncr);
/// Average recall of the global top-k among each party's local heavy
/// hitters.
pub(crate) const LOCAL_RECALL: Metric = ("local_recall", |m| m.avg_local_recall);
/// Server ↔ party traffic (both directions) in kilobits — the one metric
/// a [`Variant::Direct`] cell reports.
pub(crate) const SERVER_KB: Metric = ("server_kb", |m| m.server_traffic_kb);

/// One table or figure of the paper's evaluation.
pub struct Experiment {
    /// Identifier, e.g. `"fig4"` (`fedhh-bench run fig4`).
    pub id: &'static str,
    /// The paper artefact it regenerates.
    pub title: &'static str,
    /// The metrics every cell reports, one row each.
    pub(crate) metrics: &'static [Metric],
    /// The cells at a scale.
    pub(crate) cells: fn(&ExperimentScale) -> Vec<Cell>,
}

/// What a cell runs.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Variant {
    /// A mechanism with its default options, labelled by its name.
    Kind(MechanismKind),
    /// A TAPS ablation (Tables 5 and 6), labelled by its name.
    Taps(Taps),
    /// No run: the analytic traffic of every user uploading one report
    /// straight over the item domain (Tables 1 and 4), labelled
    /// `OUE direct` / `OLH direct`.  Reports [`SERVER_KB`] only.
    Direct(FoKind),
}

impl Variant {
    fn label(&self) -> String {
        match self {
            Variant::Kind(kind) => kind.name().to_string(),
            Variant::Taps(taps) => taps.name().to_string(),
            Variant::Direct(fo) => format!("{} direct", fo.name().to_uppercase()),
        }
    }
}

/// One configuration of a declaration.
#[derive(Debug, Clone)]
pub(crate) struct Cell {
    /// What runs.
    pub(crate) variant: Variant,
    /// The dataset stand-in it runs on.
    pub(crate) dataset: DatasetKind,
    /// The dataset generation; its seed is the repetition loop's.
    pub(crate) data: DatasetConfig,
    /// The protocol; its seed is the repetition loop's.
    pub(crate) protocol: ProtocolConfig,
    /// The swept parameter's label (`step=2`), empty when a cell differs
    /// from its neighbours only in its key columns.
    pub(crate) parameter: String,
}

/// The cells of `datasets` × `ks` × `epsilons` × `variants` (outermost
/// first) at `scale`.
pub(crate) fn grid(
    scale: &ExperimentScale,
    datasets: &[DatasetKind],
    ks: &[usize],
    epsilons: &[f64],
    variants: &[Variant],
) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &dataset in datasets {
        for &k in ks {
            for &epsilon in epsilons {
                for &variant in variants {
                    let mut protocol = scale.protocol_config(0).with_epsilon(epsilon).with_k(k);
                    if let Variant::Direct(fo) = variant {
                        protocol.fo = fo;
                    }
                    let (data, parameter) = (scale.dataset_config(0), String::new());
                    let cell = Cell {
                        variant,
                        dataset,
                        data,
                        protocol,
                        parameter,
                    };
                    cells.push(cell);
                }
            }
        }
    }
    cells
}

/// `cells`, each labelled `parameter` and edited by `edit`.
pub(crate) fn swept(cells: Vec<Cell>, parameter: String, edit: impl Fn(&mut Cell)) -> Vec<Cell> {
    let label = |mut cell: Cell| {
        cell.parameter = parameter.clone();
        edit(&mut cell);
        cell
    };
    cells.into_iter().map(label).collect()
}

impl Experiment {
    /// Runs every cell through the repetition loop and emits one row per
    /// (cell, metric), in cell order.
    pub(crate) fn run(&self, scale: &ExperimentScale) -> Result<Vec<ExperimentRow>, ProtocolError> {
        let (engine, telemetry) = (EngineConfig::from_env(), Telemetry::disabled());
        let mut rows = Vec::new();
        for cell in (self.cells)(scale) {
            let trial = |dataset: &FederatedDataset, config: &ProtocolConfig| match cell.variant {
                Variant::Kind(kind) => {
                    run_trial(kind.build().as_ref(), dataset, config, &engine, &telemetry)
                }
                Variant::Taps(taps) => run_trial(&taps, dataset, config, &engine, &telemetry),
                Variant::Direct(fo) => Ok(direct_upload(fo, dataset)),
            };
            let (data, protocol) = (cell.data, cell.protocol);
            let trials = repeat_trials(scale.repetitions, cell.dataset, data, protocol, trial)?;
            let mean = TrialMetrics::mean(&trials);
            let direct = matches!(cell.variant, Variant::Direct(_));
            for &(metric, read) in self.metrics {
                if direct && metric != SERVER_KB.0 {
                    continue;
                }
                let values: Vec<f64> = trials.iter().map(read).collect();
                rows.push(ExperimentRow {
                    id: self.id.to_string(),
                    dataset: cell.dataset.to_string(),
                    mechanism: cell.variant.label(),
                    oracle: protocol.fo.to_string(),
                    epsilon: protocol.epsilon,
                    k: protocol.k,
                    parameter: cell.parameter.clone(),
                    metric: metric.to_string(),
                    mean: read(&mean),
                    stderr: stderr(&values),
                });
            }
        }
        Ok(rows)
    }
}

/// The analytic traffic of a direct upload: every user ships a |X|-bit
/// OUE vector, or a 96-bit OLH report the server must score against the
/// whole domain.  |X| is the distinct-item count — far kinder than the
/// paper's 2^m codes, and the gap to the prefix-tree mechanisms is still
/// orders of magnitude.
fn direct_upload(fo: FoKind, dataset: &FederatedDataset) -> TrialMetrics {
    let bits = match fo {
        FoKind::Oue => dataset.distinct_items() as f64,
        FoKind::Olh | FoKind::Grr => 96.0,
    };
    let server_traffic_kb = dataset.total_users() as f64 * bits / 1000.0;
    TrialMetrics {
        server_traffic_kb,
        ..TrialMetrics::default()
    }
}

/// The standard error of the mean of `values`; `None` for a single value.
fn stderr(values: &[f64]) -> Option<f64> {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let squares: f64 = values.iter().map(|v| (v - mean).powi(2)).sum();
    (values.len() > 1).then(|| (squares / (n - 1.0) / n).sqrt())
}

/// The declarations `selection` names: one id, or `all`.
pub fn select(selection: &str) -> Result<Vec<&'static Experiment>, String> {
    match EXPERIMENTS.iter().find(|e| e.id == selection) {
        Some(experiment) => Ok(vec![experiment]),
        None if selection == "all" => Ok(EXPERIMENTS.iter().collect()),
        None => Err(format!(
            "unknown experiment {selection:?}; run `fedhh-bench list`"
        )),
    }
}

/// The `suite` a report records: the selection and every scale knob.
pub fn suite(selection: &str, s: &ExperimentScale) -> String {
    let (users, items, m, g) = (s.user_scale, s.item_scale, s.code_bits, s.granularity);
    let reps = s.repetitions;
    format!("{selection} at user scale {users}, item scale {items}, m {m}, g {g}, reps {reps}")
}

/// Runs `selection` (one id or `all`) at `scale` into one report, naming
/// each experiment on stderr as it starts.
pub fn run_experiments(
    selection: &str,
    scale: &ExperimentScale,
) -> Result<ExperimentsReport, String> {
    let mut rows = Vec::new();
    for experiment in select(selection)? {
        eprintln!("[fedhh-bench] running {} ...", experiment.id);
        let run = experiment.run(scale);
        rows.extend(run.map_err(|err| format!("{}: {err}", experiment.id))?);
    }
    Ok(ExperimentsReport {
        schema: SCHEMA,
        suite: suite(selection, scale),
        rows,
    })
}

/// One metric of one cell.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExperimentRow {
    /// The declaration's id (`fig4`).
    pub id: String,
    /// Dataset stand-in (`RDB`).
    pub dataset: String,
    /// Mechanism label (`TAPS`, `OUE direct`).
    pub mechanism: String,
    /// Frequency oracle (`krr`, `oue`, `olh`).
    pub oracle: String,
    /// Privacy budget ε.
    pub epsilon: f64,
    /// Query size k.
    pub k: usize,
    /// The swept parameter's label, empty when none.
    pub parameter: String,
    /// Metric name (`f1`, `ncr`, `local_recall`, `server_kb`).
    pub metric: String,
    /// Mean over the repetitions.
    pub mean: f64,
    /// Standard error of the mean; `None` at one repetition.
    pub stderr: Option<f64>,
}

/// A whole evaluation run: schema version, suite (selection and scale) and
/// the rows in declaration order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExperimentsReport {
    /// Schema version of the JSON serialization (currently 1).
    pub schema: u32,
    /// The selection and the scale, see [`suite`].
    pub suite: String,
    /// One row per (cell, metric).
    pub rows: Vec<ExperimentRow>,
}

impl Row for ExperimentRow {
    type Report = ExperimentsReport;
    const NAME: &'static str = "experiments";
    const HEAD: &'static [Column<ExperimentsReport>] = &[column!(suite, "", Info)];
    const ROWS: &'static str = "rows";
    const COLUMNS: &'static [Column<Self>] = &[
        column!(id, "id", Key),
        column!(dataset, "dataset", Key),
        column!(mechanism, "mech", Key),
        column!(oracle, "fo", Key),
        column!(epsilon, "eps", Key),
        column!(k, "k", Key),
        column!(parameter, "param", Key),
        column!(metric, "metric", Key),
        column!(mean, "mean", Delta, Fmt::Fixed(6), Shown::Fixed(3)),
        column!(stderr, "stderr", Info, Fmt::Fixed(6), Shown::Fixed(3)),
    ];
    fn title(report: &ExperimentsReport) -> String {
        format!("fedhh paper evaluation ({})", report.suite)
    }
    fn groups(report: &ExperimentsReport) -> Vec<(&str, &[Self])> {
        vec![("", &report.rows)]
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::report;
    use std::collections::HashSet;
    use std::sync::OnceLock;

    /// One declaration's rows from one quick-scale run of every
    /// declaration, shared by every test of this binary.
    pub(crate) fn quick_rows(id: &str) -> Vec<&'static ExperimentRow> {
        static REPORT: OnceLock<ExperimentsReport> = OnceLock::new();
        let report = REPORT.get_or_init(|| {
            run_experiments("all", &ExperimentScale::quick()).expect("quick evaluation")
        });
        let rows: Vec<_> = report.rows.iter().filter(|row| row.id == id).collect();
        assert!(!rows.is_empty(), "{id} emitted no rows");
        rows
    }

    fn sample_report() -> ExperimentsReport {
        let row = |mechanism: &str, parameter: &str, stderr| ExperimentRow {
            id: "table5".to_string(),
            dataset: "RDB".to_string(),
            mechanism: mechanism.to_string(),
            oracle: "krr".to_string(),
            epsilon: 4.0,
            k: 10,
            parameter: parameter.to_string(),
            metric: "f1".to_string(),
            mean: 2.0 / 3.0,
            stderr,
        };
        ExperimentsReport {
            schema: 1,
            suite: suite("table5", &ExperimentScale::default()),
            rows: vec![
                row("TAPS", "t=k/2", Some(0.0333)),
                row("OUE \"direct\"", "", None),
            ],
        }
    }

    #[test]
    fn every_registered_experiment_is_runnable() {
        // Every declaration runs at quick scale, and the keys of `run all`
        // are unique — a duplicate would make the gate silently join the
        // first match.
        let mut keys = HashSet::new();
        for experiment in &EXPERIMENTS {
            for row in quick_rows(experiment.id) {
                let key = (
                    &row.dataset,
                    &row.mechanism,
                    &row.oracle,
                    row.k,
                    &row.parameter,
                );
                let key = (row.id.as_str(), key, row.epsilon.to_bits(), &row.metric);
                assert!(keys.insert(key), "duplicate key {key:?}");
                assert!(row.mean.is_finite() && row.mean >= 0.0, "{row:?}");
                assert_eq!(row.stderr, None, "one quick repetition has no stderr");
            }
        }
        let unknown = select("does-not-exist").err().unwrap();
        assert!(unknown.contains("fedhh-bench list"), "{unknown}");
        assert_eq!(select("all").unwrap().len(), EXPERIMENTS.len());
    }

    #[test]
    fn standard_errors_follow_the_sample_deviation() {
        assert_eq!(stderr(&[0.5]), None);
        assert_eq!(stderr(&[1.0, 1.0, 1.0]), Some(0.0));
        // Sample variance 2/3 over n = 4 values: √(2/3) / √4.
        let err = stderr(&[1.0, 2.0, 3.0, 2.0]).unwrap();
        assert!((err - (2.0f64 / 3.0).sqrt() / 2.0).abs() < 1e-15, "{err}");
    }

    #[test]
    fn to_json_matches_the_pinned_bytes() {
        assert_eq!(
            report::to_json::<ExperimentRow>(&sample_report()),
            r#"{
  "schema": 1,
  "suite": "table5 at user scale 0.02, item scale 0.05, m 48, g 24, reps 3",
  "rows": [
    {"id": "table5", "dataset": "RDB", "mechanism": "TAPS", "oracle": "krr", "epsilon": 4, "k": 10, "parameter": "t=k/2", "metric": "f1", "mean": 0.666667, "stderr": 0.033300},
    {"id": "table5", "dataset": "RDB", "mechanism": "OUE \"direct\"", "oracle": "krr", "epsilon": 4, "k": 10, "parameter": "", "metric": "f1", "mean": 0.666667, "stderr": null}
  ]
}
"#
        );
    }

    #[test]
    fn a_report_row_that_repeats_a_column_is_rejected() {
        let json = report::to_json::<ExperimentRow>(&sample_report());
        let doctored = json.replacen("\"k\": 10, ", "\"k\": 10, \"k\": 20, ", 1);
        assert_ne!(doctored, json);
        let err = report::from_json::<ExperimentRow>(&doctored).unwrap_err();
        assert!(err.contains("duplicate key \"k\""), "{err}");
    }

    #[test]
    fn json_round_trips_and_the_reader_is_strict() {
        let mut report = sample_report();
        let json = report::to_json::<ExperimentRow>(&report);
        // The file carries six decimals; everything else is exact.
        for row in &mut report.rows {
            row.mean = 0.666667;
        }
        let (head, rows) = report::from_json::<ExperimentRow>(&json).unwrap();
        assert_eq!(
            (head.suite.as_str(), rows),
            (report.suite.as_str(), report.rows.clone())
        );
        report::assert_reader_is_strict::<ExperimentRow>(&report);
        let violations = report::check(&report.rows, &report.rows[..1], 0.0);
        assert_eq!(
            violations,
            [
                "table5/RDB/OUE \"direct\"/krr/4/10//f1: new cell missing from the baseline \
              (regenerate it)"
            ]
        );
    }
}
