//! The `fedhh-bench scenario` sweep over the scenario plan.
//!
//! `fedhh-bench trial` answers "how accurate is each mechanism?"; this
//! module answers "what does the round policy do to it?".  Every policy a
//! run takes beyond the paper's honest star — an adversary, an aggregation
//! tree, a quorum — is one field of a [`ScenarioPlan`], and this one sweep
//! runs every mechanism through a list of plans:
//!
//! * the benign plan (no adversary, flat star, full quorum), the baseline
//!   every drop is measured from;
//! * each adversary at each compromised fraction, on the flat star at full
//!   quorum;
//! * the flat star and each `tree:F` fanout at each quorum fraction, with
//!   no adversary.
//!
//! It scores each cell with F1/NCR and their
//! [`mod@fedhh_metrics::degradation`] from the benign cell, records uplink
//! traffic and the telemetry plane's root-inbound counters, and emits a
//! machine-readable `BENCH_scenario.json`.  Every plan is checked by
//! [`ScenarioPlan::validate`] before any trial runs.
//!
//! Every cell is one deterministic trial: fixed dataset seed, fixed
//! protocol seed, one fixed plan seed ([`SCENARIO_SEED`]), sequential
//! engine.  The report carries no timings, so
//! **the same options reproduce the same JSON byte for byte** — CI runs
//! the sweep twice and `cmp`s the files.  The gate *inside*
//! [`run_scenario`] checks two things:
//!
//! * **Exactness** — a cell whose plan cannot change the output must
//!   reproduce its anchor's F1, NCR and uplink **bit for bit**: an
//!   adversary at fraction 0 (anchor: the benign cell) and a tree at
//!   quorum q (anchor: the flat star at q).  Quorum exclusion happens
//!   before dispatch, so a tree may reroute frames, never change a bit of
//!   what a mechanism computes.
//! * **Savings** — a tree cell must never put more bytes on the root's
//!   inbound edge than the star would, and at quorum 1.0 (where every
//!   cohort is whole) strictly fewer.
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
//! cells report `ok = false`, `error = "transport"` and zero scores,
//! traffic and counters; the exact wire-error variant can differ between
//! reader death and writer EPIPE, so only the stable class name is
//! recorded.
//!
//! ## `BENCH_scenario.json` schema (version 1)
//!
//! ```json
//! {
//!   "schema": 1,
//!   "suite": "quick",
//!   "dataset": "SYN",
//!   "rows": [
//!     {"mechanism": "TAPS", "adversary": "none", "fraction": 0.000000,
//!      "topology": "tree:4", "quorum": 1.000000, "ok": true, "error": "",
//!      "f1": 0.800000, "ncr": 0.911111, "uplink_kb": 12.500000,
//!      "root_frames": 8, "root_bytes": 4096, "flat_bytes": 9216,
//!      "f1_drop": 0.000000, "ncr_drop": 0.000000}
//!   ]
//! }
//! ```
//!
//! The `none/0/flat/1` row of each mechanism is the benign cell its drops
//! are measured against.  `root_frames`/`root_bytes`/`flat_bytes` are the
//! telemetry plane's `tree.root.frames` / `tree.root.bytes` /
//! `tree.flat.bytes` counters; flat rows report zero for all three (the
//! star never routes through the tree).  Under `--check` (the shared gate,
//! [`crate::report::check`]) a cell is
//! `mechanism/adversary/fraction/topology/quorum`, `ok` and `root_frames`
//! must not move and `f1` / `ncr` / `uplink_kb` must stay within the
//! threshold.

use crate::json::Fmt;
use crate::report::{self, column, Column, Row, Shown, SCHEMA};
use crate::runner::{run_trial, ExperimentScale};
use fedhh_datasets::DatasetKind;
use fedhh_federated::{
    AdversaryModel, EngineConfig, FlipMode, ProtocolError, ScenarioPlan, Topology,
};
use fedhh_mechanisms::MechanismKind;
use fedhh_metrics::degradation;
use fedhh_telemetry::{Counter, Telemetry};

/// The adversary names of the sweep, in column order.
pub const ADVERSARIES: [&str; 5] = [
    "report-flip",
    "report-invert",
    "input-poison",
    "sybil",
    "corrupt-frames",
];

/// The fixed attack targets: poisoning herds items into this prefix, and
/// Sybil cohorts all report this item.  `fedhh-node --scenario` uses the
/// same values, so a distributed run reproduces a sweep cell.
pub const POISON_PREFIX: (u64, u8) = (0xB, 4);
/// See [`POISON_PREFIX`].
pub const SYBIL_TARGET: u64 = 0xBEEF;

/// The plan seed of every cell, and of every plan `fedhh-node coordinator`
/// and `fedhh-bench trial --dropout` run, so a node run reproduces the
/// sweep's cell.
pub const SCENARIO_SEED: u64 = 0xAD5E;

/// Builds the adversary model of a named sweep column at a fraction.  The
/// name matches in any case, like mechanism, dataset, oracle and topology
/// names.
pub fn adversary_by_name(name: &str, fraction: f64) -> Option<AdversaryModel> {
    Some(match name.to_ascii_lowercase().as_str() {
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
    /// The dataset stand-in every cell runs on.  SYN by default: its
    /// eight parties give every fanout in the default sweep at least one
    /// multi-party cohort to merge, where the 2-party RDB stand-in gives a
    /// tree nothing to merge.
    pub dataset: DatasetKind,
    /// Compromised-party fractions swept per adversary.  Must contain
    /// `0.0`: the fraction-0 column is the exactness gate.  A fraction
    /// selects `⌊party_count · fraction⌋` compromised parties, so small
    /// federations need large fractions.
    pub fractions: Vec<f64>,
    /// The tree fanouts swept (each at depth 1), alongside the flat star.
    pub fanouts: Vec<usize>,
    /// Quorum response fractions swept per topology.  Must contain `1.0`:
    /// the full-quorum column anchors the strict-savings gate.
    pub quorums: Vec<f64>,
    /// Dataset-generation seed (the protocol seed is derived from it the
    /// same way [`crate::runner::repeat_trials`] derives it).
    pub seed: u64,
}

impl Default for ScenarioOptions {
    fn default() -> Self {
        Self {
            quick: false,
            dataset: DatasetKind::Syn,
            fractions: vec![0.0, 0.5],
            fanouts: vec![2, 4, 16],
            quorums: vec![1.0, 0.75, 0.5],
            seed: 1000,
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

    /// The engine of every cell with the cell's key columns filled in, in
    /// sweep order (see the module docs), each engine's plan checked by
    /// [`ScenarioPlan::validate`].  The flat star at full quorum without
    /// an adversary is the benign plan, so it is swept once.
    fn cells(&self) -> Result<Vec<(ScenarioRow, EngineConfig)>, String> {
        if !self.fractions.contains(&0.0) {
            return Err("the fraction list must contain 0.0 (the exactness gate)".to_string());
        }
        if !self.quorums.contains(&1.0) {
            return Err(
                "the quorum list must contain 1.0 (the strict-savings gate anchor)".to_string(),
            );
        }
        let benign = ScenarioPlan {
            seed: SCENARIO_SEED,
            ..ScenarioPlan::benign()
        };
        let mut cells = vec![("none", 0.0, benign)];
        for adversary in ADVERSARIES {
            for &fraction in &self.fractions {
                let model = adversary_by_name(adversary, fraction)
                    .expect("ADVERSARIES only lists known names");
                let plan = ScenarioPlan {
                    adversary: model,
                    ..benign
                };
                cells.push((adversary, fraction, plan));
            }
        }
        let trees = self
            .fanouts
            .iter()
            .map(|&fanout| Topology::Tree { fanout, depth: 1 });
        for topology in std::iter::once(Topology::Flat).chain(trees) {
            for &fraction in &self.quorums {
                if topology.is_flat() && fraction == 1.0 {
                    continue;
                }
                let plan = ScenarioPlan {
                    topology,
                    quorum: fraction,
                    ..benign
                };
                cells.push(("none", 0.0, plan));
            }
        }
        cells
            .into_iter()
            .map(|(adversary, fraction, plan)| {
                plan.validate().map_err(|err| err.to_string())?;
                let key = ScenarioRow {
                    adversary: adversary.to_string(),
                    fraction,
                    topology: plan.topology.name(),
                    quorum: plan.quorum,
                    ..ScenarioRow::default()
                };
                Ok((key, EngineConfig::sequential().with_scenario(plan)))
            })
            .collect()
    }
}

/// One cell of the sweep.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScenarioRow {
    /// Mechanism name (`FedPEM`, `GTF`, `TAP`, `TAPS`).
    pub mechanism: String,
    /// Adversary column name, or `none`.
    pub adversary: String,
    /// Compromised fraction of this cell (0 without an adversary).
    pub fraction: f64,
    /// Topology in its canonical CLI spelling (`flat`, `tree:4`).
    pub topology: String,
    /// Quorum response fraction of this cell.
    pub quorum: f64,
    /// Whether the run completed (corrupt-frame cells may fail typed).
    pub ok: bool,
    /// Stable error class when `ok` is false (`"transport"`), else empty.
    pub error: String,
    /// F1 against the exact ground truth (0 when the run failed).
    pub f1: f64,
    /// NCR against the exact ground truth (0 when the run failed).
    pub ncr: f64,
    /// Party → server traffic in kilobits (0 when the run failed).
    pub uplink_kb: f64,
    /// Root-inbound frames over the run (`tree.root.frames`; 0 for flat).
    pub root_frames: u64,
    /// Root-inbound bytes over the run (`tree.root.bytes`; 0 for flat).
    pub root_bytes: u64,
    /// Bytes the same uploads would have cost the star
    /// (`tree.flat.bytes`; 0 for flat).
    pub flat_bytes: u64,
    /// F1 degradation from the mechanism's benign cell.
    pub f1_drop: f64,
    /// NCR degradation from the mechanism's benign cell.
    pub ncr_drop: f64,
}

/// A whole scenario sweep: schema version, suite flavour, dataset and the
/// cells in sweep order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScenarioReport {
    /// Schema version of the JSON serialization (currently 1).
    pub schema: u32,
    /// `"quick"` or `"full"`.
    pub suite: String,
    /// The dataset stand-in the sweep ran on.
    pub dataset: String,
    /// The cells: for each mechanism, one row per plan in sweep order.
    pub rows: Vec<ScenarioRow>,
}

/// Runs the whole sweep: every mechanism through every plan, gating
/// exactness and savings internally (see the module docs).
pub fn run_scenario(options: &ScenarioOptions) -> Result<ScenarioReport, String> {
    let cells = options.cells()?;
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
    let mut rows: Vec<ScenarioRow> = Vec::new();
    for kind in MechanismKind::ALL {
        let mechanism = kind.build();
        let first = rows.len();
        for (key, engine) in &cells {
            let mut row = ScenarioRow {
                mechanism: kind.to_string(),
                ..key.clone()
            };
            let telemetry = Telemetry::new();
            match run_trial(mechanism.as_ref(), &dataset, &config, engine, &telemetry) {
                Ok(metrics) => {
                    let snapshot = telemetry.snapshot();
                    row.ok = true;
                    row.f1 = metrics.f1;
                    row.ncr = metrics.ncr;
                    row.uplink_kb = metrics.uplink_kb;
                    row.root_frames = snapshot.counter(Counter::TreeRootFrames);
                    row.root_bytes = snapshot.counter(Counter::TreeRootBytes);
                    row.flat_bytes = snapshot.counter(Counter::TreeFlatBytes);
                }
                // A corrupted frame kills the transport with a typed
                // error; the cell records the stable class, not the racy
                // exact variant (CRC mismatch at the reader vs broken pipe
                // at the writer).
                Err(ProtocolError::Transport(_)) if row.adversary == "corrupt-frames" => {
                    row.error = "transport".to_string();
                }
                Err(e) => return Err(format!("{} failed: {e}", report::cell_name(&row))),
            }
            // The first cell is the benign one: its drops are zero.
            let (f1, ncr) = rows.get(first).map_or((row.f1, row.ncr), |b| (b.f1, b.ncr));
            row.f1_drop = degradation(f1, row.f1);
            row.ncr_drop = degradation(ncr, row.ncr);
            gate_cell(&row, &rows[first..])?;
            rows.push(row);
        }
    }
    Ok(ScenarioReport {
        schema: SCHEMA,
        suite: if options.quick { "quick" } else { "full" }.to_string(),
        dataset: options.dataset.to_string(),
        rows,
    })
}

/// The in-run gate of one cell, checked against the cells of its
/// mechanism already recorded.  Exact equality, not tolerance: a plan that
/// cannot change the output must not move a single bit of it.
fn gate_cell(row: &ScenarioRow, recorded: &[ScenarioRow]) -> Result<(), String> {
    let cell = report::cell_name(row);
    let tree = row.topology != "flat";
    if tree || (row.adversary != "none" && row.fraction == 0.0) {
        let anchor = recorded
            .iter()
            .find(|r| r.adversary == "none" && r.topology == "flat" && r.quorum == row.quorum)
            .ok_or_else(|| format!("{cell}: no anchor cell recorded"))?;
        let bits = |r: &ScenarioRow| [r.f1.to_bits(), r.ncr.to_bits(), r.uplink_kb.to_bits()];
        if !row.ok || bits(row) != bits(anchor) {
            return Err(format!(
                "divergent cell: {cell} scored f1={}, ncr={}, uplink={} vs {} f1={}, ncr={}, \
                 uplink={}",
                row.f1,
                row.ncr,
                row.uplink_kb,
                report::cell_name(anchor),
                anchor.f1,
                anchor.ncr,
                anchor.uplink_kb
            ));
        }
    }
    if tree && row.root_bytes > row.flat_bytes {
        return Err(format!(
            "inflating tree: {cell} put {} root-inbound bytes on the wire vs {} flat-equivalent",
            row.root_bytes, row.flat_bytes
        ));
    }
    // At full quorum every cohort is intact, so at least one merge must
    // have happened and the root-inbound byte count must strictly drop.
    if tree && row.quorum == 1.0 && row.root_bytes >= row.flat_bytes {
        return Err(format!(
            "stagnant tree: {cell} saved nothing ({} root bytes vs {} flat)",
            row.root_bytes, row.flat_bytes
        ));
    }
    Ok(())
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
        column!(topology, "topology", Key),
        column!(quorum, "quorum", Key, Fmt::Fixed(6), Shown::Fixed(3)),
        column!(ok, "ok", Equal),
        column!(error, "error", Info),
        column!(f1, "f1", Delta, Fmt::Fixed(6), Shown::Fixed(3)),
        column!(ncr, "ncr", Delta, Fmt::Fixed(6), Shown::Fixed(3)),
        column!(
            uplink_kb,
            "uplink_kb",
            Delta,
            Fmt::Fixed(6),
            Shown::Fixed(3)
        ),
        column!(root_frames, "root_frames", Equal),
        column!(root_bytes, "root_bytes", Info),
        column!(flat_bytes, "flat_bytes", Info),
        column!(f1_drop, "f1_drop", Info, Fmt::Fixed(6), Shown::Fixed(3)),
        column!(ncr_drop, "ncr_drop", Info, Fmt::Fixed(6), Shown::Fixed(3)),
    ];
    fn title(report: &ScenarioReport) -> String {
        format!(
            "fedhh scenario sweep ({} suite, {})",
            report.suite, report.dataset
        )
    }
    fn groups(report: &ScenarioReport) -> Vec<(&str, &[Self])> {
        vec![("", &report.rows)]
    }
}

impl ScenarioReport {
    /// Renders the sweep as an aligned plain-text table.
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
    use std::sync::OnceLock;

    fn sample_report() -> ScenarioReport {
        let benign = ScenarioRow {
            mechanism: "TAPS".to_string(),
            adversary: "none".to_string(),
            fraction: 0.0,
            topology: "flat".to_string(),
            quorum: 1.0,
            ok: true,
            error: String::new(),
            f1: 0.9,
            ncr: 0.95,
            uplink_kb: 12.5,
            ..ScenarioRow::default()
        };
        ScenarioReport {
            schema: 1,
            suite: "quick".to_string(),
            dataset: "SYN".to_string(),
            rows: vec![
                benign.clone(),
                ScenarioRow {
                    adversary: "corrupt-frames".to_string(),
                    fraction: 0.5,
                    ok: false,
                    error: "transport".to_string(),
                    f1: 0.0,
                    ncr: 0.0,
                    uplink_kb: 0.0,
                    f1_drop: 0.9,
                    ncr_drop: 0.95,
                    ..benign.clone()
                },
                ScenarioRow {
                    topology: "tree:4".to_string(),
                    quorum: 0.5,
                    f1: 0.8,
                    ncr: 0.9,
                    root_frames: 8,
                    root_bytes: 4096,
                    flat_bytes: 9216,
                    f1_drop: 0.1,
                    ncr_drop: 0.05,
                    ..benign
                },
            ],
        }
    }

    /// Two quick sweeps of the same options, run once for every test that
    /// reads them.
    fn quick_sweeps() -> &'static (ScenarioOptions, [ScenarioReport; 2]) {
        static SWEEPS: OnceLock<(ScenarioOptions, [ScenarioReport; 2])> = OnceLock::new();
        SWEEPS.get_or_init(|| {
            let options = ScenarioOptions {
                fractions: vec![0.0, 0.5],
                fanouts: vec![2, 4],
                quorums: vec![1.0, 0.5],
                ..ScenarioOptions::quick()
            };
            let a = run_scenario(&options).unwrap();
            let b = run_scenario(&options).unwrap();
            (options, [a, b])
        })
    }

    #[test]
    fn every_matrix_column_has_a_named_model() {
        for name in ADVERSARIES {
            let model = adversary_by_name(name, 0.25).unwrap();
            assert_eq!(model.fraction(), 0.25, "{name}");
            let shouted = name.to_ascii_uppercase();
            assert_eq!(adversary_by_name(&shouted, 0.25), Some(model), "{shouted}");
        }
        assert!(adversary_by_name("unheard-of", 0.25).is_none());
    }

    #[test]
    fn to_json_matches_the_pinned_bytes() {
        let mut report = sample_report();
        report.dataset = "S\\Y\"N".to_string();
        report.rows[1].error = "transport: \"reset\"\tby peer".to_string();
        report.rows[1].fraction = 1.0 / 3.0;
        report.rows[2].uplink_kb = 150.4325;
        report.rows[2].root_bytes = u64::MAX;
        assert_eq!(
            report.to_json(),
            r#"{
  "schema": 1,
  "suite": "quick",
  "dataset": "S\\Y\"N",
  "rows": [
    {"mechanism": "TAPS", "adversary": "none", "fraction": 0.000000, "topology": "flat", "quorum": 1.000000, "ok": true, "error": "", "f1": 0.900000, "ncr": 0.950000, "uplink_kb": 12.500000, "root_frames": 0, "root_bytes": 0, "flat_bytes": 0, "f1_drop": 0.000000, "ncr_drop": 0.000000},
    {"mechanism": "TAPS", "adversary": "corrupt-frames", "fraction": 0.333333, "topology": "flat", "quorum": 1.000000, "ok": false, "error": "transport: \"reset\"\tby peer", "f1": 0.000000, "ncr": 0.000000, "uplink_kb": 0.000000, "root_frames": 0, "root_bytes": 0, "flat_bytes": 0, "f1_drop": 0.900000, "ncr_drop": 0.950000},
    {"mechanism": "TAPS", "adversary": "none", "fraction": 0.000000, "topology": "tree:4", "quorum": 0.500000, "ok": true, "error": "", "f1": 0.800000, "ncr": 0.900000, "uplink_kb": 150.432500, "root_frames": 8, "root_bytes": 18446744073709551615, "flat_bytes": 9216, "f1_drop": 0.100000, "ncr_drop": 0.050000}
  ]
}
"#
        );
    }

    #[test]
    fn json_round_trips_including_failed_cells() {
        let mut report = sample_report();
        assert_eq!(
            ScenarioReport::from_json(&report.to_json()),
            Ok(report.clone())
        );
        // Counters past 2^53 come back exact: they are never read as f64.
        report.rows[2].root_frames = (1 << 53) + 1;
        report.rows[2].root_bytes = u64::MAX - 1;
        report.rows[2].flat_bytes = u64::MAX;
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
        // A row in the layout before the topology and quorum columns is a
        // missing column, not a cell with defaults.
        let old = r#"{"schema": 1, "suite": "quick", "dataset": "RDB", "rows": [
            {"mechanism": "TAPS", "adversary": "none", "fraction": 0.000000, "ok": true,
             "error": "", "f1": 0.900000, "ncr": 0.950000, "f1_drop": 0.000000,
             "ncr_drop": 0.000000}]}"#;
        let err = ScenarioReport::from_json(old).unwrap_err();
        assert!(err.contains("\"topology\""), "{err}");
        // So is a row in the layout of the former topology sweep, whose
        // `fraction` was the quorum.
        let old = r#"{"schema": 1, "suite": "quick", "dataset": "SYN", "rows": [
            {"mechanism": "TAPS", "topology": "tree:4", "fraction": 0.500000,
             "f1": 0.900000, "uplink_kb": 12.500000, "root_frames": 8,
             "root_bytes": 4096, "flat_bytes": 9216}]}"#;
        let err = ScenarioReport::from_json(old).unwrap_err();
        assert!(err.contains("\"adversary\""), "{err}");
        report::assert_reader_is_strict::<ScenarioRow>(&sample_report());
    }

    #[test]
    fn check_joins_on_cell_identity_and_flags_every_drift_kind() {
        let baseline = sample_report().rows;
        // Identical runs pass at zero tolerance.
        assert!(report::check(&baseline, &baseline, 0.0).is_empty());
        // A cell missing on either side is a violation naming it: an empty
        // or stale baseline no longer passes.
        let violations = report::check(&baseline[..2], &baseline, 0.1);
        assert_eq!(
            violations,
            ["TAPS/none/0/tree:4/0.5: missing from the current run"]
        );
        let violations = report::check(&baseline, &[], 0.1);
        assert_eq!(violations.len(), 3);
        assert!(violations[0].starts_with("TAPS/none/0/flat/1: new cell missing from the baseline"));
        // The quorum is part of a tree cell's identity.
        let mut requorumed = baseline.clone();
        requorumed[2].quorum = 1.0;
        assert_eq!(
            report::check(&requorumed, &baseline, 10.0),
            [
                "TAPS/none/0/tree:4/0.5: missing from the current run",
                "TAPS/none/0/tree:4/1: new cell missing from the baseline (regenerate it)"
            ]
        );
        // A flipped ok or a moved frame count is a violation even inside
        // the score tolerance.
        let mut flipped = baseline.clone();
        flipped[1].ok = true;
        flipped[2].root_frames = 9;
        assert_eq!(
            report::check(&flipped, &baseline, 10.0),
            [
                "TAPS/corrupt-frames/0.5/flat/1: ok moved from false to true",
                "TAPS/none/0/tree:4/0.5: root_frames moved from 8 to 9"
            ]
        );
        // A score or uplink outside tolerance is a violation; inside
        // passes.
        let mut drifted = baseline.clone();
        drifted[0].f1 = 0.7;
        assert_eq!(report::check(&drifted, &baseline, 0.3).len(), 0);
        let violations = report::check(&drifted, &baseline, 0.1);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].starts_with("TAPS/none/0/flat/1: f1 0.7 vs baseline 0.9"));
        drifted[0].f1 = 0.9;
        drifted[2].uplink_kb += 1.0;
        assert_eq!(report::check(&drifted, &baseline, 0.1).len(), 1);
        // The informational columns are not gated.
        drifted[2].uplink_kb = baseline[2].uplink_kb;
        drifted[0].f1_drop = 0.5;
        drifted[1].error = "other".to_string();
        drifted[2].root_bytes += 1;
        drifted[2].flat_bytes += 1;
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
    fn fraction_lists_without_full_quorum_are_rejected() {
        let options = ScenarioOptions {
            quick: true,
            quorums: vec![0.5],
            ..ScenarioOptions::default()
        };
        let err = run_scenario(&options).unwrap_err();
        assert!(err.contains("1.0"), "{err}");
    }

    #[test]
    fn degenerate_shapes_are_rejected_before_any_trial_runs() {
        // Full scale: a sweep that got as far as a trial would take
        // minutes, not fail at once.
        let cases = [
            (vec![0.0], vec![1], vec![1.0], "fanout >= 2"),
            (
                vec![0.0],
                vec![2],
                vec![1.0, 0.0],
                "quorum fraction must be in (0, 1]",
            ),
            (
                vec![0.0, 1.5],
                vec![2],
                vec![1.0],
                "adversary fraction must be in [0, 1]",
            ),
        ];
        for (fractions, fanouts, quorums, needle) in cases {
            let options = ScenarioOptions {
                fractions,
                fanouts,
                quorums,
                ..ScenarioOptions::default()
            };
            let err = run_scenario(&options).unwrap_err();
            assert!(err.contains(needle), "{err}");
        }
    }

    #[test]
    fn each_in_run_gate_fires_on_a_doctored_row() {
        let benign = sample_report().rows[0].clone();
        let tree = ScenarioRow {
            topology: "tree:4".to_string(),
            root_frames: 4,
            root_bytes: 2984,
            flat_bytes: 3216,
            ..benign.clone()
        };
        let recorded = [benign.clone()];
        assert_eq!(gate_cell(&tree, &recorded), Ok(()));
        let fail = |row: &ScenarioRow| gate_cell(row, &recorded).unwrap_err();

        let lossy = ScenarioRow {
            uplink_kb: tree.uplink_kb + 0.001,
            ..tree.clone()
        };
        let err = fail(&lossy);
        assert!(
            err.starts_with("divergent cell: TAPS/none/0/tree:4/1"),
            "{err}"
        );
        assert!(err.contains("vs TAPS/none/0/flat/1"), "{err}");

        let inflating = ScenarioRow {
            root_bytes: tree.flat_bytes + 1,
            ..tree.clone()
        };
        assert!(fail(&inflating).starts_with("inflating tree"));

        let stagnant = ScenarioRow {
            root_bytes: tree.flat_bytes,
            ..tree.clone()
        };
        assert!(fail(&stagnant).starts_with("stagnant tree"));
        // Below full quorum a cohort may be cut to one party, so equal
        // bytes pass there (against the flat cell at that quorum).
        let partial = ScenarioRow {
            quorum: 0.5,
            ..stagnant
        };
        let flat_partial = ScenarioRow {
            quorum: 0.5,
            ..benign.clone()
        };
        assert_eq!(gate_cell(&partial, &[benign.clone(), flat_partial]), Ok(()));

        let fraction_zero = ScenarioRow {
            adversary: "sybil".to_string(),
            ..benign.clone()
        };
        assert_eq!(gate_cell(&fraction_zero, &recorded), Ok(()));
        let divergent = ScenarioRow {
            ncr: benign.ncr - 0.1,
            ..fraction_zero.clone()
        };
        assert!(fail(&divergent).starts_with("divergent cell: TAPS/sybil/0/flat/1"));
        let failed = ScenarioRow {
            ok: false,
            ..fraction_zero
        };
        assert!(fail(&failed).starts_with("divergent cell"));
        // An active adversary is measured, not gated.
        let attacked = ScenarioRow {
            fraction: 0.5,
            ..divergent
        };
        assert_eq!(gate_cell(&attacked, &recorded), Ok(()));
    }

    #[test]
    fn quick_sweeps_are_deterministic_and_benign_gated() {
        let (options, [a, b]) = quick_sweeps();
        // Byte-identical JSON on a same-options rerun: the acceptance
        // criterion the CI smoke gate cmp's.
        assert_eq!(a.to_json(), b.to_json());
        // Per mechanism: the benign cell, one cell per adversary ×
        // fraction, and one per (flat + fanouts) × quorum less the benign
        // flat cell at full quorum.
        let per_mechanism = 1
            + ADVERSARIES.len() * options.fractions.len()
            + (1 + options.fanouts.len()) * options.quorums.len()
            - 1;
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

    #[test]
    fn quick_sweeps_are_deterministic_and_internally_gated() {
        let (_, [a, b]) = quick_sweeps();
        assert_eq!(a.rows, b.rows);
        // The tree actually bites: every full-quorum tree cell dropped
        // root-inbound bytes strictly below the flat equivalent (the
        // internal gate already enforced this, spot-check the data too).
        let trees: Vec<_> = a.rows.iter().filter(|r| r.topology != "flat").collect();
        assert!(!trees.is_empty());
        for row in trees {
            assert!(
                row.root_frames > 0,
                "{} routed no frames",
                report::cell_name(row)
            );
            assert!(row.root_bytes <= row.flat_bytes);
            if row.quorum == 1.0 {
                assert!(row.root_bytes < row.flat_bytes);
            }
        }
    }
}
