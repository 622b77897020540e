//! The `fedhh-bench topology` aggregation-tree sweep.
//!
//! `fedhh-bench scenario` answers "how robust is each mechanism?"; this
//! module answers "what does the aggregation tree buy?".  It sweeps every
//! mechanism across the flat star and a list of tree fanouts × quorum
//! fractions, records accuracy, uplink traffic and the root-inbound
//! frame/byte counters of the telemetry plane, and emits a
//! machine-readable `BENCH_topology.json`.
//!
//! Every cell is one deterministic trial: fixed dataset seed, fixed
//! protocol seed, fixed quorum seed, sequential engine.  The report
//! carries no timings, so **the same options reproduce the same JSON byte
//! for byte** — CI runs the sweep twice and `cmp`s the files.  Two gates
//! run *inside* [`run_topology`]:
//!
//! * **Losslessness** — for every `(mechanism, fraction)`, every tree cell
//!   must reproduce the flat cell's F1 and uplink **bit for bit**.  Quorum
//!   exclusion happens before dispatch, so the topology may never change
//!   what any mechanism computes — only how the frames travel.
//! * **Savings** — tree cells must never inflate the root-inbound byte
//!   count past the flat equivalent, and at quorum 1.0 (where every
//!   cohort is full) the drop must be strict.
//!
//! ## `BENCH_topology.json` schema (version 1)
//!
//! ```json
//! {
//!   "schema": 1,
//!   "suite": "quick",
//!   "dataset": "SYN",
//!   "rows": [
//!     {"mechanism": "TAPS", "topology": "tree:4", "fraction": 1.000000,
//!      "f1": 0.800000, "uplink_kb": 12.500000,
//!      "root_frames": 8, "root_bytes": 4096, "flat_bytes": 9216}
//!   ]
//! }
//! ```
//!
//! `root_frames`/`root_bytes`/`flat_bytes` are the telemetry plane's
//! `tree.root.frames` / `tree.root.bytes` / `tree.flat.bytes` counters;
//! flat rows report zero for all three (the star never routes through the
//! tree).  Under `--check` (the shared gate, [`crate::report::check`]) a
//! cell is `mechanism/topology/fraction`, `root_frames` must match exactly
//! and `f1` / `uplink_kb` must stay within the threshold.

use crate::json::Fmt;
use crate::report::{self, column, Column, Row, Shown, SCHEMA};
use crate::runner::{run_trial, ExperimentScale};
use fedhh_datasets::DatasetKind;
use fedhh_federated::{EngineConfig, QuorumPolicy, Topology};
use fedhh_mechanisms::MechanismKind;
use fedhh_telemetry::{Counter, Telemetry};

/// The seed of every quorum draw in the sweep, and `fedhh-node
/// --quorum`'s default, so a node run at one fraction reproduces the
/// sweep's cell at that fraction.
pub const QUORUM_SEED: u64 = 0x70B0;

/// What `fedhh-bench topology` sweeps.
#[derive(Debug, Clone)]
pub struct TopologyOptions {
    /// Use the quick experiment scale (the default full scale takes
    /// minutes).
    pub quick: bool,
    /// The dataset stand-in every cell runs on.  SYN by default: its
    /// eight parties give every fanout in the default sweep at least one
    /// multi-party cohort to merge.
    pub dataset: DatasetKind,
    /// The tree fanouts swept (each at depth 1), alongside the implicit
    /// flat baseline column.
    pub fanouts: Vec<usize>,
    /// Quorum response fractions swept per topology.  Must contain `1.0`:
    /// the full-quorum column anchors the strict-savings gate.
    pub fractions: Vec<f64>,
    /// Dataset-generation seed (the protocol seed is derived from it the
    /// same way the scenario sweep derives it).
    pub seed: u64,
    /// The seed of every [`QuorumPolicy`]'s per-round on-time draw.
    pub quorum_seed: u64,
}

impl Default for TopologyOptions {
    fn default() -> Self {
        Self {
            quick: false,
            dataset: DatasetKind::Syn,
            fanouts: vec![2, 4, 16],
            fractions: vec![1.0, 0.75, 0.5],
            seed: 1000,
            quorum_seed: QUORUM_SEED,
        }
    }
}

impl TopologyOptions {
    /// The quick-scale options the CI smoke gate runs.
    pub fn quick() -> Self {
        Self {
            quick: true,
            ..Self::default()
        }
    }

    /// The topology column list: the flat star, then one tree per fanout.
    fn topologies(&self) -> Vec<Topology> {
        let mut columns = vec![Topology::Flat];
        columns.extend(
            self.fanouts
                .iter()
                .map(|&fanout| Topology::Tree { fanout, depth: 1 }),
        );
        columns
    }
}

/// One cell of the topology sweep.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TopologyRow {
    /// Mechanism name (`FedPEM`, `GTF`, `TAP`, `TAPS`).
    pub mechanism: String,
    /// Topology column in its canonical CLI spelling (`flat`, `tree:4`).
    pub topology: String,
    /// Quorum response fraction of this cell.
    pub fraction: f64,
    /// F1 against the exact ground truth.
    pub f1: f64,
    /// Party → server traffic in kilobits.
    pub uplink_kb: f64,
    /// Root-inbound frames over the run (`tree.root.frames`; 0 for flat).
    pub root_frames: u64,
    /// Root-inbound bytes over the run (`tree.root.bytes`; 0 for flat).
    pub root_bytes: u64,
    /// Bytes the same uploads would have cost the star
    /// (`tree.flat.bytes`; 0 for flat).
    pub flat_bytes: u64,
}

/// A whole topology sweep: schema version, suite flavour, dataset and the
/// cells in sweep order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TopologyReport {
    /// Schema version of the JSON serialization (currently 1).
    pub schema: u32,
    /// `"quick"` or `"full"`.
    pub suite: String,
    /// The dataset stand-in the sweep ran on.
    pub dataset: String,
    /// The cells: for each mechanism, the flat column then every tree
    /// column, each over every quorum fraction.
    pub rows: Vec<TopologyRow>,
}

/// Runs the full sweep: every mechanism × (flat + every fanout) × every
/// quorum fraction, gating losslessness and savings internally (see the
/// module docs).
pub fn run_topology(options: &TopologyOptions) -> Result<TopologyReport, String> {
    if !options.fractions.contains(&1.0) {
        return Err(
            "the fraction list must contain 1.0 (the strict-savings gate anchor)".to_string(),
        );
    }
    for &fraction in &options.fractions {
        let quorum = QuorumPolicy {
            fraction,
            seed: options.quorum_seed,
        };
        if !quorum.is_valid() {
            return Err(format!("quorum fraction {fraction} is outside (0, 1]"));
        }
    }
    let topologies = options.topologies();
    for topology in &topologies {
        topology.validate().map_err(|err| err.to_string())?;
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
        for topology in &topologies {
            for &fraction in &options.fractions {
                let quorum = QuorumPolicy {
                    fraction,
                    seed: options.quorum_seed,
                };
                let engine = EngineConfig::sequential()
                    .with_topology(*topology)
                    .with_quorum(quorum);
                let telemetry = Telemetry::new();
                let metrics = run_trial(mechanism.as_ref(), &dataset, &config, &engine, &telemetry)
                    .map_err(|e| format!("{name} under {topology}@{fraction} failed: {e}"))?;
                let snapshot = telemetry.snapshot();
                let row = TopologyRow {
                    mechanism: name.clone(),
                    topology: topology.name(),
                    fraction,
                    f1: metrics.f1,
                    uplink_kb: metrics.uplink_kb,
                    root_frames: snapshot.counter(Counter::TreeRootFrames),
                    root_bytes: snapshot.counter(Counter::TreeRootBytes),
                    flat_bytes: snapshot.counter(Counter::TreeFlatBytes),
                };
                if !topology.is_flat() {
                    gate_tree_cell(&row, &rows, fraction)?;
                }
                rows.push(row);
            }
        }
    }
    Ok(TopologyReport {
        schema: SCHEMA,
        suite: if options.quick { "quick" } else { "full" }.to_string(),
        dataset: options.dataset.to_string(),
        rows,
    })
}

/// The internal losslessness + savings gates of one tree cell, checked
/// against the already-recorded flat cell of the same mechanism and
/// fraction.  Exact equality, not tolerance: the topology may reroute
/// frames, never change a bit of what a mechanism computes.
fn gate_tree_cell(row: &TopologyRow, rows: &[TopologyRow], fraction: f64) -> Result<(), String> {
    let flat = rows
        .iter()
        .find(|r| r.mechanism == row.mechanism && r.topology == "flat" && r.fraction == fraction)
        .ok_or_else(|| format!("no flat baseline recorded for {}@{fraction}", row.mechanism))?;
    if row.f1.to_bits() != flat.f1.to_bits() || row.uplink_kb.to_bits() != flat.uplink_kb.to_bits()
    {
        return Err(format!(
            "lossy tree: {} under {}@{fraction} scored f1={}, uplink={} vs flat \
             f1={}, uplink={}",
            row.mechanism, row.topology, row.f1, row.uplink_kb, flat.f1, flat.uplink_kb
        ));
    }
    if row.root_bytes > row.flat_bytes {
        return Err(format!(
            "inflating tree: {} under {}@{fraction} put {} root-inbound bytes on \
             the wire vs {} flat-equivalent",
            row.mechanism, row.topology, row.root_bytes, row.flat_bytes
        ));
    }
    // At full quorum every cohort is intact, so at least one merge must
    // have happened and the root-inbound byte count must strictly drop.
    if fraction == 1.0 && row.root_bytes >= row.flat_bytes {
        return Err(format!(
            "stagnant tree: {} under {}@1.0 saved nothing ({} root bytes vs {} flat)",
            row.mechanism, row.topology, row.root_bytes, row.flat_bytes
        ));
    }
    Ok(())
}

impl Row for TopologyRow {
    type Report = TopologyReport;
    const NAME: &'static str = "topology";
    const HEAD: &'static [Column<TopologyReport>] =
        &[column!(suite, "", Info), column!(dataset, "", Info)];
    const ROWS: &'static str = "rows";
    const COLUMNS: &'static [Column<Self>] = &[
        column!(mechanism, "mech", Key),
        column!(topology, "topology", Key),
        column!(fraction, "fraction", Key, Fmt::Fixed(6), Shown::Fixed(3)),
        column!(f1, "f1", Delta, Fmt::Fixed(6), Shown::Fixed(3)),
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
    ];
    fn title(report: &TopologyReport) -> String {
        format!(
            "fedhh aggregation topology ({} suite, {})",
            report.suite, report.dataset
        )
    }
    fn groups(report: &TopologyReport) -> Vec<(&str, &[Self])> {
        vec![("", &report.rows)]
    }
}

impl TopologyReport {
    /// Renders the sweep as an aligned plain-text table.
    pub fn to_table(&self) -> String {
        report::to_table::<TopologyRow>(self)
    }

    /// Serializes the report as schema-1 JSON.  Deterministic: fixed key
    /// order, fixed float formatting, no timings — the same sweep options
    /// produce the same bytes.
    pub fn to_json(&self) -> String {
        report::to_json::<TopologyRow>(self)
    }

    /// Parses a schema-1 JSON report (the inverse of
    /// [`TopologyReport::to_json`], tolerant of whitespace and key order).
    pub fn from_json(text: &str) -> Result<Self, String> {
        let (head, rows) = report::from_json::<TopologyRow>(text)?;
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

    fn sample_report() -> TopologyReport {
        TopologyReport {
            schema: 1,
            suite: "quick".to_string(),
            dataset: "SYN".to_string(),
            rows: vec![
                TopologyRow {
                    mechanism: "TAPS".to_string(),
                    topology: "flat".to_string(),
                    fraction: 1.0,
                    f1: 0.9,
                    uplink_kb: 12.5,
                    root_frames: 0,
                    root_bytes: 0,
                    flat_bytes: 0,
                },
                TopologyRow {
                    mechanism: "TAPS".to_string(),
                    topology: "tree:4".to_string(),
                    fraction: 0.5,
                    f1: 0.9,
                    uplink_kb: 12.5,
                    root_frames: 8,
                    root_bytes: 4096,
                    flat_bytes: 9216,
                },
            ],
        }
    }

    #[test]
    fn to_json_matches_the_pinned_bytes() {
        let mut report = sample_report();
        report.dataset = "S\\Y\"N".to_string();
        report.rows[1].uplink_kb = 150.4325;
        report.rows[1].root_bytes = u64::MAX;
        assert_eq!(
            report.to_json(),
            r#"{
  "schema": 1,
  "suite": "quick",
  "dataset": "S\\Y\"N",
  "rows": [
    {"mechanism": "TAPS", "topology": "flat", "fraction": 1.000000, "f1": 0.900000, "uplink_kb": 12.500000, "root_frames": 0, "root_bytes": 0, "flat_bytes": 0},
    {"mechanism": "TAPS", "topology": "tree:4", "fraction": 0.500000, "f1": 0.900000, "uplink_kb": 150.432500, "root_frames": 8, "root_bytes": 18446744073709551615, "flat_bytes": 9216}
  ]
}
"#
        );
    }

    #[test]
    fn json_round_trips_including_counter_columns() {
        let report = sample_report();
        assert_eq!(TopologyReport::from_json(&report.to_json()), Ok(report));
    }

    #[test]
    fn from_json_rejects_malformed_documents() {
        assert!(TopologyReport::from_json("").is_err());
        assert!(TopologyReport::from_json("{\"schema\": 1}").is_err());
        assert!(TopologyReport::from_json(
            "{\"schema\": 9, \"suite\": \"x\", \"dataset\": \"y\", \"rows\": []}"
        )
        .is_err());
        report::assert_reader_is_strict::<TopologyRow>(&sample_report());
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
            ["TAPS/tree:4/0.5: missing from the current run"]
        );
        let violations = report::check(&baseline, &baseline[..1], 0.1);
        assert_eq!(
            violations,
            ["TAPS/tree:4/0.5: new cell missing from the baseline (regenerate it)"]
        );
        // A moved frame count is a violation even inside the tolerance.
        let mut reframed = baseline.clone();
        reframed[1].root_frames = 9;
        assert_eq!(
            report::check(&reframed, &baseline, 10.0),
            ["TAPS/tree:4/0.5: root_frames moved from 8 to 9"]
        );
        // A score outside tolerance is a violation; inside passes.
        let mut drifted = baseline.clone();
        drifted[0].f1 = 0.7;
        assert_eq!(report::check(&drifted, &baseline, 0.3).len(), 0);
        assert_eq!(report::check(&drifted, &baseline, 0.1).len(), 1);
        drifted[0].f1 = 0.9;
        drifted[0].uplink_kb += 1.0;
        assert_eq!(report::check(&drifted, &baseline, 0.1).len(), 1);
    }

    #[test]
    fn fraction_lists_without_full_quorum_are_rejected() {
        let options = TopologyOptions {
            quick: true,
            fractions: vec![0.5],
            ..TopologyOptions::default()
        };
        let err = run_topology(&options).unwrap_err();
        assert!(err.contains("1.0"), "{err}");
    }

    #[test]
    fn degenerate_shapes_are_rejected_before_any_trial_runs() {
        let bad_fanout = TopologyOptions {
            quick: true,
            fanouts: vec![1],
            ..TopologyOptions::default()
        };
        let err = run_topology(&bad_fanout).unwrap_err();
        assert!(err.contains("fanout >= 2"), "{err}");
        let bad_fraction = TopologyOptions {
            quick: true,
            fractions: vec![1.0, 0.0],
            ..TopologyOptions::default()
        };
        assert!(run_topology(&bad_fraction).unwrap_err().contains("outside"));
    }

    #[test]
    fn quick_sweeps_are_deterministic_and_internally_gated() {
        let options = TopologyOptions {
            fanouts: vec![2, 4],
            fractions: vec![1.0, 0.5],
            ..TopologyOptions::quick()
        };
        let a = run_topology(&options).unwrap();
        let b = run_topology(&options).unwrap();
        // Byte-identical JSON on a same-options rerun: the acceptance
        // criterion the CI smoke gate cmp's.
        assert_eq!(a.to_json(), b.to_json());
        // One cell per mechanism × (flat + fanouts) × fraction.
        let per_mechanism = (1 + options.fanouts.len()) * options.fractions.len();
        assert_eq!(a.rows.len(), MechanismKind::ALL.len() * per_mechanism);
        // The tree actually bites: every full-quorum tree cell dropped
        // root-inbound bytes strictly below the flat equivalent (the
        // internal gate already enforced this, spot-check the data too).
        for row in a.rows.iter().filter(|r| r.topology != "flat") {
            assert!(
                row.root_frames > 0,
                "{}/{} routed no frames",
                row.mechanism,
                row.topology
            );
            assert!(row.root_bytes <= row.flat_bytes);
            if row.fraction == 1.0 {
                assert!(row.root_bytes < row.flat_bytes);
            }
        }
        // And the sweep itself checks clean against itself.
        assert!(report::check(&a.rows, &b.rows, 0.0).is_empty());
    }
}
