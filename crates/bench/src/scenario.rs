//! The `fedhh-bench scenario` adversarial-robustness matrix.
//!
//! `fedhh-bench trial` answers "how accurate is each mechanism?"; this
//! module answers "how much accuracy does each mechanism lose under
//! attack?".  It sweeps every mechanism against every adversary model of
//! the scenario plane (`fedhh_federated::scenario`) over a list of
//! compromised-party fractions, scores each cell with F1/NCR and their
//! [`mod@fedhh_metrics::degradation`] from the benign baseline, and emits a
//! machine-readable `BENCH_scenario.json`.
//!
//! Every cell is one deterministic trial: fixed dataset seed, fixed
//! protocol seed, fixed adversary seed, sequential engine.  The report
//! carries no timings, so **the same options reproduce the same JSON byte
//! for byte** — CI runs the sweep twice and `cmp`s the files.  The
//! fraction-0 column is additionally gated *inside* [`run_scenario`]:
//! every adversary at fraction 0 must reproduce the fault-free baseline
//! bit for bit, or the run fails.
//!
//! ## The adversary columns
//!
//! | Name | Model |
//! |---|---|
//! | `report-flip` | Compromised parties redraw their reported counts uniformly |
//! | `report-invert` | Compromised parties reverse their count ranking |
//! | `input-poison` | Compromised parties rewrite every item into prefix `0xB`/4 bits |
//! | `sybil` | Compromised parties all report the single item `0xBEEF` |
//! | `corrupt-frames` | The TCP transport flips one byte in a fraction of upload frames |
//!
//! A corrupted frame fails the CRC at the receiver, so `corrupt-frames`
//! cells either complete cleanly (no frame of the run was selected) or
//! fail with a typed transport error — never a hang or a panic.  Failed
//! cells report `ok = false`, `error = "transport"` and zero scores; the
//! exact wire-error variant can differ between reader death and writer
//! EPIPE, so only the stable class name is recorded.
//!
//! ## `BENCH_scenario.json` schema (version 1)
//!
//! ```json
//! {
//!   "schema": 1,
//!   "suite": "quick",
//!   "dataset": "RDB",
//!   "rows": [
//!     {"mechanism": "TAPS", "adversary": "sybil", "fraction": 0.300000,
//!      "ok": true, "error": "", "f1": 0.800000, "ncr": 0.911111,
//!      "f1_drop": 0.100000, "ncr_drop": 0.044444}
//!   ]
//! }
//! ```
//!
//! The `adversary = "none"` row of each mechanism is the benign baseline
//! its drops are measured against.  Under `--check` (the shared gate,
//! [`crate::report::check`]) a cell is `mechanism/adversary/fraction`, `ok`
//! must not flip and `f1` / `ncr` must stay within the threshold.

use crate::json::Fmt;
use crate::report::{self, column, Column, Row, Shown, SCHEMA};
use crate::runner::{run_trial, ExperimentScale, TrialMetrics};
use fedhh_datasets::DatasetKind;
use fedhh_federated::{AdversaryModel, EngineConfig, FlipMode, ProtocolError, ScenarioPlan};
use fedhh_mechanisms::MechanismKind;
use fedhh_metrics::degradation;
use fedhh_telemetry::Telemetry;

/// The adversary names of the matrix, in column order.
pub const ADVERSARIES: [&str; 5] = [
    "report-flip",
    "report-invert",
    "input-poison",
    "sybil",
    "corrupt-frames",
];

/// The fixed attack targets: poisoning herds items into this prefix, and
/// Sybil cohorts all report this item.  `fedhh-node --scenario` uses the
/// same values, so a distributed run reproduces a matrix cell.
pub const POISON_PREFIX: (u64, u8) = (0xB, 4);
/// See [`POISON_PREFIX`].
pub const SYBIL_TARGET: u64 = 0xBEEF;

/// Builds the adversary model of a named matrix column at a fraction.
pub fn adversary_by_name(name: &str, fraction: f64) -> Option<AdversaryModel> {
    Some(match name {
        "report-flip" => AdversaryModel::ReportFlip {
            fraction,
            mode: FlipMode::Uniform,
        },
        "report-invert" => AdversaryModel::ReportFlip {
            fraction,
            mode: FlipMode::Inverted,
        },
        "input-poison" => AdversaryModel::InputPoison {
            fraction,
            target_prefix: POISON_PREFIX.0,
            prefix_len: POISON_PREFIX.1,
        },
        "sybil" => AdversaryModel::Sybil {
            fraction,
            target_item: SYBIL_TARGET,
        },
        "corrupt-frames" => AdversaryModel::CorruptFrames { fraction },
        _ => return None,
    })
}

/// What `fedhh-bench scenario` sweeps.
#[derive(Debug, Clone)]
pub struct ScenarioOptions {
    /// Use the quick experiment scale (the default full scale takes
    /// minutes).
    pub quick: bool,
    /// The dataset stand-in every cell runs on.
    pub dataset: DatasetKind,
    /// Compromised-party fractions swept per adversary.  Must contain
    /// `0.0`: the benign column is the determinism gate.  A fraction
    /// selects `⌊party_count · fraction⌋` compromised parties, so small
    /// federations need large fractions — the 2-party RDB stand-in is
    /// only attacked from `0.5` up.
    pub fractions: Vec<f64>,
    /// Dataset-generation seed (the protocol seed is derived from it the
    /// same way [`crate::runner::repeat_trials`] derives it).
    pub seed: u64,
    /// The adversary decision seed shipped in every [`ScenarioPlan`].
    pub scenario_seed: u64,
}

impl Default for ScenarioOptions {
    fn default() -> Self {
        Self {
            quick: false,
            dataset: DatasetKind::Rdb,
            fractions: vec![0.0, 0.5],
            seed: 1000,
            scenario_seed: 0xAD5E,
        }
    }
}

impl ScenarioOptions {
    /// The quick-scale options the CI smoke gate runs.
    pub fn quick() -> Self {
        Self {
            quick: true,
            ..Self::default()
        }
    }
}

/// One cell of the robustness matrix.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScenarioRow {
    /// Mechanism name (`FedPEM`, `GTF`, `TAP`, `TAPS`).
    pub mechanism: String,
    /// Adversary column name, or `none` for the benign baseline row.
    pub adversary: String,
    /// Compromised fraction of this cell.
    pub fraction: f64,
    /// Whether the run completed (corrupt-frame cells may fail typed).
    pub ok: bool,
    /// Stable error class when `ok` is false (`"transport"`), else empty.
    pub error: String,
    /// F1 against the exact ground truth (0 when the run failed).
    pub f1: f64,
    /// NCR against the exact ground truth (0 when the run failed).
    pub ncr: f64,
    /// F1 degradation from the mechanism's benign baseline.
    pub f1_drop: f64,
    /// NCR degradation from the mechanism's benign baseline.
    pub ncr_drop: f64,
}

/// A whole scenario sweep: schema version, suite flavour, dataset and the
/// matrix cells in sweep order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScenarioReport {
    /// Schema version of the JSON serialization (currently 1).
    pub schema: u32,
    /// `"quick"` or `"full"`.
    pub suite: String,
    /// The dataset stand-in the sweep ran on.
    pub dataset: String,
    /// The matrix cells: one baseline row per mechanism, then one row per
    /// (adversary, fraction).
    pub rows: Vec<ScenarioRow>,
}

/// Runs the full matrix: every mechanism × every adversary × every
/// fraction, plus one benign baseline row per mechanism.
///
/// The benign gate is internal: for every adversary, the fraction-0 cell
/// must reproduce the mechanism's fault-free baseline **bit for bit**
/// (F1, NCR and uplink); any divergence fails the whole sweep, because it
/// would mean an "inactive" adversary still perturbed the run.
pub fn run_scenario(options: &ScenarioOptions) -> Result<ScenarioReport, String> {
    if !options.fractions.contains(&0.0) {
        return Err("the fraction list must contain 0.0 (the benign determinism gate)".to_string());
    }
    let scale = if options.quick {
        ExperimentScale::quick()
    } else {
        ExperimentScale::default()
    };
    let dataset = scale.dataset_config(options.seed).build(options.dataset);
    let config = scale
        .protocol_config(options.seed ^ 0xBEEF)
        .with_epsilon(4.0)
        .with_k(10);
    let mut rows = Vec::new();
    for kind in MechanismKind::ALL {
        let mechanism = kind.build();
        let name = kind.to_string();
        let trial = |engine: &EngineConfig| {
            let off = Telemetry::disabled();
            run_trial(mechanism.as_ref(), &dataset, &config, engine, &off)
        };
        let baseline = trial(&EngineConfig::sequential())
            .map_err(|e| format!("{name} baseline failed: {e}"))?;
        rows.push(ScenarioRow {
            mechanism: name.clone(),
            adversary: "none".to_string(),
            fraction: 0.0,
            ok: true,
            error: String::new(),
            f1: baseline.f1,
            ncr: baseline.ncr,
            f1_drop: 0.0,
            ncr_drop: 0.0,
        });
        for adversary in ADVERSARIES {
            for &fraction in &options.fractions {
                let model = adversary_by_name(adversary, fraction)
                    .expect("ADVERSARIES only lists known names");
                let plan = ScenarioPlan::benign().with_adversary(model, options.scenario_seed);
                let engine = EngineConfig::sequential().with_scenario(plan);
                let row = match trial(&engine) {
                    Ok(metrics) => ScenarioRow {
                        mechanism: name.clone(),
                        adversary: adversary.to_string(),
                        fraction,
                        ok: true,
                        error: String::new(),
                        f1: metrics.f1,
                        ncr: metrics.ncr,
                        f1_drop: degradation(baseline.f1, metrics.f1),
                        ncr_drop: degradation(baseline.ncr, metrics.ncr),
                    },
                    // A corrupted frame kills the transport with a typed
                    // error; the cell records the stable class, not the
                    // racy exact variant (CRC mismatch at the reader vs
                    // broken pipe at the writer).
                    Err(ProtocolError::Transport(_)) if adversary == "corrupt-frames" => {
                        ScenarioRow {
                            mechanism: name.clone(),
                            adversary: adversary.to_string(),
                            fraction,
                            ok: false,
                            error: "transport".to_string(),
                            f1: 0.0,
                            ncr: 0.0,
                            f1_drop: baseline.f1,
                            ncr_drop: baseline.ncr,
                        }
                    }
                    Err(e) => {
                        return Err(format!("{name} under {adversary}@{fraction} failed: {e}"))
                    }
                };
                if fraction == 0.0 && !benign_cell_matches(&row, &baseline) {
                    return Err(format!(
                        "benign-column divergence: {name} under {adversary}@0 scored \
                         f1={}, ncr={} vs fault-free f1={}, ncr={}",
                        row.f1, row.ncr, baseline.f1, baseline.ncr
                    ));
                }
                rows.push(row);
            }
        }
    }
    Ok(ScenarioReport {
        schema: SCHEMA,
        suite: if options.quick { "quick" } else { "full" }.to_string(),
        dataset: options.dataset.to_string(),
        rows,
    })
}

/// The internal fraction-0 gate: exact equality, not tolerance — an
/// inactive adversary must not perturb a single bit of the metrics.
fn benign_cell_matches(row: &ScenarioRow, baseline: &TrialMetrics) -> bool {
    row.ok
        && row.f1.to_bits() == baseline.f1.to_bits()
        && row.ncr.to_bits() == baseline.ncr.to_bits()
}

impl Row for ScenarioRow {
    type Report = ScenarioReport;
    const NAME: &'static str = "scenario";
    const HEAD: &'static [Column<ScenarioReport>] =
        &[column!(suite, "", Info), column!(dataset, "", Info)];
    const ROWS: &'static str = "rows";
    const COLUMNS: &'static [Column<Self>] = &[
        column!(mechanism, "mech", Key),
        column!(adversary, "adversary", Key),
        column!(fraction, "fraction", Key, Fmt::Fixed(6), Shown::Fixed(3)),
        column!(ok, "ok", Equal),
        column!(error, "error", Info),
        column!(f1, "f1", Delta, Fmt::Fixed(6), Shown::Fixed(3)),
        column!(ncr, "ncr", Delta, Fmt::Fixed(6), Shown::Fixed(3)),
        column!(f1_drop, "f1_drop", Info, Fmt::Fixed(6), Shown::Fixed(3)),
        column!(ncr_drop, "ncr_drop", Info, Fmt::Fixed(6), Shown::Fixed(3)),
    ];
    fn title(report: &ScenarioReport) -> String {
        format!(
            "fedhh scenario robustness ({} suite, {})",
            report.suite, report.dataset
        )
    }
    fn groups(report: &ScenarioReport) -> Vec<(&str, &[Self])> {
        vec![("", &report.rows)]
    }
}

impl ScenarioReport {
    /// Renders the matrix as an aligned plain-text table.
    pub fn to_table(&self) -> String {
        report::to_table::<ScenarioRow>(self)
    }

    /// Serializes the report as schema-1 JSON.  Deterministic: fixed key
    /// order, fixed float formatting, no timings — the same sweep options
    /// produce the same bytes.
    pub fn to_json(&self) -> String {
        report::to_json::<ScenarioRow>(self)
    }

    /// Parses a schema-1 JSON report (the inverse of
    /// [`ScenarioReport::to_json`], tolerant of whitespace and key order).
    pub fn from_json(text: &str) -> Result<Self, String> {
        let (head, rows) = report::from_json::<ScenarioRow>(text)?;
        Ok(Self {
            schema: SCHEMA,
            rows,
            ..head
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> ScenarioReport {
        ScenarioReport {
            schema: 1,
            suite: "quick".to_string(),
            dataset: "RDB".to_string(),
            rows: vec![
                ScenarioRow {
                    mechanism: "TAPS".to_string(),
                    adversary: "none".to_string(),
                    fraction: 0.0,
                    ok: true,
                    error: String::new(),
                    f1: 0.9,
                    ncr: 0.95,
                    f1_drop: 0.0,
                    ncr_drop: 0.0,
                },
                ScenarioRow {
                    mechanism: "TAPS".to_string(),
                    adversary: "corrupt-frames".to_string(),
                    fraction: 0.5,
                    ok: false,
                    error: "transport".to_string(),
                    f1: 0.0,
                    ncr: 0.0,
                    f1_drop: 0.9,
                    ncr_drop: 0.95,
                },
            ],
        }
    }

    #[test]
    fn every_matrix_column_has_a_named_model() {
        for name in ADVERSARIES {
            let model = adversary_by_name(name, 0.25).unwrap();
            assert_eq!(model.fraction(), 0.25, "{name}");
        }
        assert!(adversary_by_name("unheard-of", 0.25).is_none());
    }

    #[test]
    fn to_json_matches_the_pinned_bytes() {
        let mut report = sample_report();
        report.rows[1].error = "transport: \"reset\"\tby peer".to_string();
        report.rows[1].fraction = 1.0 / 3.0;
        assert_eq!(
            report.to_json(),
            r#"{
  "schema": 1,
  "suite": "quick",
  "dataset": "RDB",
  "rows": [
    {"mechanism": "TAPS", "adversary": "none", "fraction": 0.000000, "ok": true, "error": "", "f1": 0.900000, "ncr": 0.950000, "f1_drop": 0.000000, "ncr_drop": 0.000000},
    {"mechanism": "TAPS", "adversary": "corrupt-frames", "fraction": 0.333333, "ok": false, "error": "transport: \"reset\"\tby peer", "f1": 0.000000, "ncr": 0.000000, "f1_drop": 0.900000, "ncr_drop": 0.950000}
  ]
}
"#
        );
    }

    #[test]
    fn json_round_trips_including_failed_cells() {
        let report = sample_report();
        assert_eq!(ScenarioReport::from_json(&report.to_json()), Ok(report));
    }

    #[test]
    fn from_json_rejects_malformed_documents() {
        assert!(ScenarioReport::from_json("").is_err());
        assert!(ScenarioReport::from_json("{\"schema\": 1}").is_err());
        assert!(ScenarioReport::from_json(
            "{\"schema\": 9, \"suite\": \"x\", \"dataset\": \"y\", \"rows\": []}"
        )
        .is_err());
        report::assert_reader_is_strict::<ScenarioRow>(&sample_report());
    }

    #[test]
    fn check_joins_on_cell_identity_and_flags_every_drift_kind() {
        let baseline = sample_report().rows;
        // Identical runs pass at zero tolerance.
        assert!(report::check(&baseline, &baseline, 0.0).is_empty());
        // A cell missing on either side is a violation naming it: an empty
        // or stale baseline no longer passes.
        let violations = report::check(&baseline[..1], &baseline, 0.1);
        assert_eq!(
            violations,
            ["TAPS/corrupt-frames/0.5: missing from the current run"]
        );
        let violations = report::check(&baseline, &[], 0.1);
        assert_eq!(violations.len(), 2);
        assert!(violations[0].starts_with("TAPS/none/0: new cell missing from the baseline"));
        // A flipped ok is a violation even inside the score tolerance.
        let mut flipped = baseline.clone();
        flipped[1].ok = true;
        assert_eq!(
            report::check(&flipped, &baseline, 10.0),
            ["TAPS/corrupt-frames/0.5: ok moved from false to true"]
        );
        // A score outside tolerance is a violation; inside passes.
        let mut drifted = baseline.clone();
        drifted[0].f1 = 0.7;
        assert_eq!(report::check(&drifted, &baseline, 0.3).len(), 0);
        let violations = report::check(&drifted, &baseline, 0.1);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].starts_with("TAPS/none/0: f1 0.7 vs baseline 0.9"));
        // The informational columns are not gated.
        drifted[0].f1 = 0.9;
        drifted[0].f1_drop = 0.5;
        drifted[1].error = "other".to_string();
        assert!(report::check(&drifted, &baseline, 0.0).is_empty());
    }

    #[test]
    fn fraction_lists_without_the_benign_column_are_rejected() {
        let options = ScenarioOptions {
            quick: true,
            fractions: vec![0.3],
            ..ScenarioOptions::default()
        };
        let err = run_scenario(&options).unwrap_err();
        assert!(err.contains("0.0"), "{err}");
    }

    #[test]
    fn quick_sweeps_are_deterministic_and_benign_gated() {
        let options = ScenarioOptions {
            fractions: vec![0.0, 0.5],
            ..ScenarioOptions::quick()
        };
        let a = run_scenario(&options).unwrap();
        let b = run_scenario(&options).unwrap();
        // Byte-identical JSON on a same-options rerun: the acceptance
        // criterion the CI smoke gate cmp's.
        assert_eq!(a.to_json(), b.to_json());
        // One baseline row plus one row per adversary × fraction, for
        // every mechanism.
        let per_mechanism = 1 + ADVERSARIES.len() * options.fractions.len();
        assert_eq!(a.rows.len(), MechanismKind::ALL.len() * per_mechanism);
        // The attacks actually bite somewhere: at half the parties
        // compromised, at least one cell degrades or fails.
        assert!(a
            .rows
            .iter()
            .any(|r| !r.ok || (r.fraction > 0.0 && r.f1_drop > 0.0)));
        // And the sweep itself checks clean against itself.
        assert!(report::check(&a.rows, &b.rows, 0.0).is_empty());
    }
}
