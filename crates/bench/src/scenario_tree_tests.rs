//! The tree cells of [`crate::scenario`]'s report: the `topology`,
//! `quorum` and root-inbound counter columns, on a sweep that varies only
//! the topology (no adversary, one quorum below 1.0).

mod tests {
    use crate::report;
    use crate::scenario::{ScenarioReport, ScenarioRow};

    fn sample_report() -> ScenarioReport {
        let flat = ScenarioRow {
            mechanism: "TAPS".to_string(),
            adversary: "none".to_string(),
            fraction: 0.0,
            topology: "flat".to_string(),
            quorum: 0.5,
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
                flat.clone(),
                ScenarioRow {
                    topology: "tree:4".to_string(),
                    root_frames: 8,
                    root_bytes: 4096,
                    flat_bytes: 9216,
                    ..flat
                },
            ],
        }
    }

    #[test]
    fn to_json_matches_the_pinned_bytes() {
        let mut report = sample_report();
        report.rows[1].uplink_kb = 150.4325;
        report.rows[1].root_bytes = u64::MAX;
        assert_eq!(
            report.to_json(),
            r#"{
  "schema": 1,
  "suite": "quick",
  "dataset": "SYN",
  "rows": [
    {"mechanism": "TAPS", "adversary": "none", "fraction": 0.000000, "topology": "flat", "quorum": 0.500000, "ok": true, "error": "", "f1": 0.900000, "ncr": 0.950000, "uplink_kb": 12.500000, "root_frames": 0, "root_bytes": 0, "flat_bytes": 0, "f1_drop": 0.000000, "ncr_drop": 0.000000},
    {"mechanism": "TAPS", "adversary": "none", "fraction": 0.000000, "topology": "tree:4", "quorum": 0.500000, "ok": true, "error": "", "f1": 0.900000, "ncr": 0.950000, "uplink_kb": 150.432500, "root_frames": 8, "root_bytes": 18446744073709551615, "flat_bytes": 9216, "f1_drop": 0.000000, "ncr_drop": 0.000000}
  ]
}
"#
        );
    }

    #[test]
    fn json_round_trips_including_counter_columns() {
        let mut report = sample_report();
        assert_eq!(
            ScenarioReport::from_json(&report.to_json()),
            Ok(report.clone())
        );
        // Counters past 2^53 come back exact: they are never read as f64.
        report.rows[1].root_frames = (1 << 53) + 1;
        report.rows[1].root_bytes = u64::MAX - 1;
        report.rows[1].flat_bytes = u64::MAX;
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
        // A row in the layout of the former topology sweep (its `fraction`
        // was the quorum) is a missing column, not a cell with defaults.
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
        let violations = report::check(&baseline[..1], &baseline, 0.1);
        assert_eq!(
            violations,
            ["TAPS/none/0/tree:4/0.5: missing from the current run"]
        );
        let violations = report::check(&baseline, &baseline[..1], 0.1);
        assert_eq!(
            violations,
            ["TAPS/none/0/tree:4/0.5: new cell missing from the baseline (regenerate it)"]
        );
        // The quorum is part of a tree cell's identity.
        let mut requorumed = baseline.clone();
        requorumed[1].quorum = 1.0;
        assert_eq!(
            report::check(&requorumed, &baseline, 10.0),
            [
                "TAPS/none/0/tree:4/0.5: missing from the current run",
                "TAPS/none/0/tree:4/1: new cell missing from the baseline (regenerate it)"
            ]
        );
        // A moved frame count is a violation even inside the tolerance.
        let mut reframed = baseline.clone();
        reframed[1].root_frames = 9;
        assert_eq!(
            report::check(&reframed, &baseline, 10.0),
            ["TAPS/none/0/tree:4/0.5: root_frames moved from 8 to 9"]
        );
        // A score or uplink outside tolerance is a violation; inside passes.
        let mut drifted = baseline.clone();
        drifted[0].f1 = 0.7;
        assert_eq!(report::check(&drifted, &baseline, 0.3).len(), 0);
        assert_eq!(report::check(&drifted, &baseline, 0.1).len(), 1);
        drifted[0].f1 = 0.9;
        drifted[1].uplink_kb += 1.0;
        assert_eq!(report::check(&drifted, &baseline, 0.1).len(), 1);
        // The byte counters are informational.
        drifted[1].uplink_kb = baseline[1].uplink_kb;
        drifted[1].root_bytes += 1;
        drifted[1].flat_bytes += 1;
        assert!(report::check(&drifted, &baseline, 0.0).is_empty());
    }
}
