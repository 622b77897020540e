//! The `fedhh-bench scale` subsystem: user-population sweeps with memory
//! accounting.
//!
//! The ROADMAP's north star is "heavy traffic from millions of users";
//! this module measures how the system approaches it.  A scale run sweeps
//! `user_scale` up through the paper's full populations
//! (`DatasetConfig::paper_scale`, `user_scale = 1.0`), builds each dataset,
//! executes one mechanism end-to-end per point with the chunked report
//! pipeline, and records throughput, uplink traffic and the process's peak
//! resident set size, which the dataset and the parties' group stores (8
//! bytes per user each) dominate.
//!
//! ## `BENCH_scale.json` schema (version 1)
//!
//! ```json
//! {
//!   "schema": 1,
//!   "dataset": "RDB",
//!   "mechanism": "TAPS",
//!   "points": [
//!     {
//!       "user_scale": 1.0,
//!       "users": 352830,
//!       "elapsed_ms": 1250.5,
//!       "reports_per_sec": 282152.2,
//!       "uplink_bits": 1234567,
//!       "peak_rss_kb": 51200
//!     }
//!   ]
//! }
//! ```
//!
//! * `schema` — format version (currently 1).
//! * `dataset` / `mechanism` — the swept workload.
//! * `user_scale` — multiplier on the paper's Table 2 populations.
//! * `users` — total federation population at that point.
//! * `elapsed_ms` — mechanism wall-clock (dataset build excluded).
//! * `reports_per_sec` — end-to-end user-report throughput (every user
//!   reports exactly once in the main pipeline).
//! * `uplink_bits` — party → server traffic of the run.
//! * `peak_rss_kb` — the process's peak resident set (`VmHWM` from
//!   `/proc/self/status`).  **Best-effort:** on platforms without procfs
//!   (non-Linux) the field is `null`, never a silent `0` — a zero reading
//!   from the kernel is also reported as `null` so downstream tooling can
//!   distinguish "no measurement" from a real value.  The value is a
//!   process-lifetime high-water mark, so within one sweep it is
//!   non-decreasing; the final point is the sweep's peak.
//!
//! The file carries each point as one inline object on its own line, an
//! unavailable RSS reading as `null`:
//!
//! ```
//! use fedhh_bench::scale::{ScalePoint, ScaleReport};
//!
//! let point = ScalePoint {
//!     users: 176_415,
//!     ..ScalePoint::default()
//! };
//! let report = ScaleReport {
//!     points: vec![point],
//!     ..ScaleReport::default()
//! };
//! assert!(report.to_json().contains(
//!     r#"    {"user_scale": 0.000000, "users": 176415, "elapsed_ms": 0.000, "reports_per_sec": 0.0, "uplink_bits": 0, "peak_rss_kb": null}"#
//! ));
//! assert_eq!(report.peak_rss_kb(), None);
//! ```
//!
//! ## The CI `scale-smoke` gate
//!
//! `fedhh-bench scale --quick --max-rss-mb N` runs a reduced sweep and
//! exits non-zero when the sweep's peak RSS exceeds the ceiling — CI's
//! guard that a run keeps no more resident copies of the dataset than it
//! needs as populations grow.

use crate::json::Fmt;
use crate::report::{self, column, Column, Row, Shown, SCHEMA};
use fedhh_datasets::{DatasetConfig, DatasetKind};
use fedhh_federated::{EngineConfig, ProtocolConfig};
use fedhh_mechanisms::{MechanismKind, Run};
use fedhh_telemetry::{Telemetry, TraceLine};

/// One measured point of a scale sweep.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScalePoint {
    /// Multiplier on the paper's user populations.
    pub user_scale: f64,
    /// Total federation population at this point.
    pub users: u64,
    /// Mechanism wall-clock in milliseconds (dataset build excluded).
    pub elapsed_ms: f64,
    /// End-to-end user-report throughput.
    pub reports_per_sec: f64,
    /// Party → server traffic, in bits.
    pub uplink_bits: u64,
    /// Peak resident set size of the process in kilobytes.  Best-effort:
    /// `None` where `/proc/self/status` is unavailable (non-Linux) or the
    /// kernel reports a zero high-water mark; serialized as JSON `null`,
    /// never a silent `0`.
    pub peak_rss_kb: Option<u64>,
}

/// A whole scale sweep: schema version, workload identity and points in
/// ascending `user_scale` order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScaleReport {
    /// Schema version of the JSON serialization (currently 1).
    pub schema: u32,
    /// The swept dataset group.
    pub dataset: String,
    /// The executed mechanism.
    pub mechanism: String,
    /// The measured points, ascending by `user_scale`.
    pub points: Vec<ScalePoint>,
}

impl ScaleReport {
    /// The sweep's peak resident set size in kilobytes (the maximum over
    /// its points; `None` when the platform exposes no RSS).
    pub fn peak_rss_kb(&self) -> Option<u64> {
        self.points.iter().filter_map(|p| p.peak_rss_kb).max()
    }

    /// Renders the report as an aligned plain-text table.
    pub fn to_table(&self) -> String {
        report::to_table::<ScalePoint>(self)
    }

    /// Serializes the report as schema-1 JSON.
    pub fn to_json(&self) -> String {
        report::to_json::<ScalePoint>(self)
    }
}

impl Row for ScalePoint {
    type Report = ScaleReport;
    const NAME: &'static str = "scale";
    const HEAD: &'static [Column<ScaleReport>] =
        &[column!(dataset, "", Info), column!(mechanism, "", Info)];
    const ROWS: &'static str = "points";
    const COLUMNS: &'static [Column<Self>] = &[
        column!(
            user_scale,
            "user_scale",
            Key,
            Fmt::Fixed(6),
            Shown::Fixed(3)
        ),
        column!(users, "users", Info),
        column!(
            elapsed_ms,
            "elapsed ms",
            Info,
            Fmt::Fixed(3),
            Shown::Fixed(1)
        ),
        column!(
            reports_per_sec,
            "reports/sec",
            Info,
            Fmt::Fixed(1),
            Shown::Fixed(0)
        ),
        column!(
            uplink_bits,
            "uplink kb",
            Info,
            Fmt::Shortest,
            Shown::Per(1000.0, 1)
        ),
        column!(
            peak_rss_kb,
            "peak rss mb",
            Info,
            Fmt::Shortest,
            Shown::Per(1024.0, 1)
        ),
    ];
    fn title(report: &ScaleReport) -> String {
        format!(
            "fedhh scale sweep ({} on {})",
            report.mechanism, report.dataset
        )
    }
    fn groups(report: &ScaleReport) -> Vec<(&str, &[Self])> {
        vec![("", &report.points)]
    }
}

/// What a scale sweep runs.
#[derive(Debug, Clone)]
pub struct ScaleOptions {
    /// The dataset group to sweep (default RDB — the smallest full-scale
    /// group, so a `user_scale = 1.0` point stays laptop-sized).
    pub dataset: DatasetKind,
    /// The mechanism to execute per point (default TAPS).
    pub mechanism: MechanismKind,
    /// The `user_scale` points, ascending.
    pub user_scales: Vec<f64>,
    /// Use the reduced quick shape (16-bit codes, 8 levels, small scales).
    pub quick: bool,
    /// Engine worker threads per round.
    pub parallelism: usize,
}

impl ScaleOptions {
    /// The default full sweep: TAPS on RDB up through `user_scale = 1.0`.
    pub fn full() -> Self {
        Self {
            dataset: DatasetKind::Rdb,
            mechanism: MechanismKind::Taps,
            user_scales: vec![0.05, 0.1, 0.25, 0.5, 1.0],
            quick: false,
            parallelism: 1,
        }
    }

    /// The reduced sweep CI's `scale-smoke` job runs.
    pub fn quick() -> Self {
        Self {
            user_scales: vec![0.02, 0.05, 0.1],
            quick: true,
            ..Self::full()
        }
    }

    fn dataset_config(&self, user_scale: f64) -> DatasetConfig {
        if self.quick {
            DatasetConfig {
                user_scale,
                item_scale: 0.02,
                code_bits: 16,
                syn_beta: 0.5,
                seed: 42,
            }
        } else {
            DatasetConfig {
                user_scale,
                ..DatasetConfig::paper_scale()
            }
        }
    }

    fn protocol_config(&self) -> ProtocolConfig {
        let base = if self.quick {
            ProtocolConfig::test_default()
        } else {
            ProtocolConfig::default()
        };
        base.with_epsilon(4.0)
    }
}

/// Reads the process's peak resident set size (`VmHWM`) in kilobytes from
/// `/proc/self/status`.  Best-effort: returns `None` on platforms without
/// procfs, when the field is missing, or when the kernel reports a zero
/// high-water mark (a zero reading carries no information and must not be
/// mistaken for "the sweep used no memory").
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm(&status).filter(|&kb| kb > 0)
}

/// Parses the `VmHWM` line of a `/proc/self/status` document.
fn parse_vm_hwm(status: &str) -> Option<u64> {
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb);
        }
    }
    None
}

/// Runs one scale sweep and returns the measured report.
///
/// Points are swept — and therefore emitted — in ascending `user_scale`
/// order regardless of the order the options listed them in, keeping the
/// schema's ordering invariant (and the "last point is the peak
/// population" reading) true for any CLI input.
pub fn run_scale(options: &ScaleOptions) -> Result<ScaleReport, String> {
    run_scale_traced(options, None)
}

/// Like [`run_scale`] but with an optional JSONL trace sink
/// (`fedhh-bench scale --trace`).  Each sweep point runs with a fresh
/// [`Telemetry`] sink flushed as one mark-delimited section named
/// `scale/<user_scale>` with `runs = 1`, so the section's `uplink.bits`
/// counter must equal the point's `uplink_bits` field exactly.
pub fn run_scale_traced(
    options: &ScaleOptions,
    mut trace: Option<&mut dyn std::io::Write>,
) -> Result<ScaleReport, String> {
    let mut user_scales = options.user_scales.clone();
    user_scales.sort_by(f64::total_cmp);
    let mut points = Vec::with_capacity(user_scales.len());
    for &user_scale in &user_scales {
        let dataset = options.dataset_config(user_scale).build(options.dataset);
        let users = dataset.total_users();
        let config = options.protocol_config();
        let telemetry = if trace.is_some() {
            Telemetry::new()
        } else {
            Telemetry::disabled()
        };
        let output = Run::mechanism(options.mechanism)
            .dataset(&dataset)
            .config(config)
            .engine(EngineConfig::parallel(options.parallelism))
            .telemetry(&telemetry)
            .execute()
            .map_err(|e| format!("scale point user_scale={user_scale}: {e}"))?;
        if let Some(w) = trace.as_deref_mut() {
            let mark = TraceLine::Mark {
                name: format!("scale/{user_scale}"),
                runs: 1,
            };
            writeln!(w, "{}", mark.to_json()).map_err(|e| e.to_string())?;
            telemetry.write_jsonl(w).map_err(|e| e.to_string())?;
        }
        let secs = output.elapsed.as_secs_f64().max(1e-9);
        points.push(ScalePoint {
            user_scale,
            users: users as u64,
            elapsed_ms: secs * 1e3,
            reports_per_sec: users as f64 / secs,
            uplink_bits: output.comm.total_uplink_bits() as u64,
            peak_rss_kb: peak_rss_kb(),
        });
        eprintln!(
            "[fedhh-bench] scale point user_scale={user_scale}: {users} users, {:.1} ms, \
             peak rss {}",
            secs * 1e3,
            points
                .last()
                .and_then(|p| p.peak_rss_kb)
                .map(|kb| format!("{:.1} mb", kb as f64 / 1024.0))
                .unwrap_or_else(|| "n/a".to_string()),
        );
    }
    Ok(ScaleReport {
        schema: SCHEMA,
        dataset: options.dataset.name().to_string(),
        mechanism: options.mechanism.name().to_string(),
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> ScaleReport {
        ScaleReport {
            schema: 1,
            dataset: "RDB".to_string(),
            mechanism: "TAPS".to_string(),
            points: vec![
                ScalePoint {
                    user_scale: 0.05,
                    users: 17_642,
                    elapsed_ms: 64.25,
                    reports_per_sec: 274_583.0,
                    uplink_bits: 98_304,
                    peak_rss_kb: Some(30_720),
                },
                ScalePoint {
                    user_scale: 1.0,
                    users: 352_830,
                    elapsed_ms: 1_250.5,
                    reports_per_sec: 282_152.2,
                    uplink_bits: 123_456,
                    peak_rss_kb: None,
                },
            ],
        }
    }

    #[test]
    fn to_json_matches_the_pinned_bytes() {
        let mut report = sample_report();
        report.dataset = "R\"D\\B\n".to_string();
        assert_eq!(
            report.to_json(),
            r#"{
  "schema": 1,
  "dataset": "R\"D\\B\n",
  "mechanism": "TAPS",
  "points": [
    {"user_scale": 0.050000, "users": 17642, "elapsed_ms": 64.250, "reports_per_sec": 274583.0, "uplink_bits": 98304, "peak_rss_kb": 30720},
    {"user_scale": 1.000000, "users": 352830, "elapsed_ms": 1250.500, "reports_per_sec": 282152.2, "uplink_bits": 123456, "peak_rss_kb": null}
  ]
}
"#
        );
        crate::json::parse(&report.to_json()).expect("the pinned bytes re-parse");
    }

    #[test]
    fn a_zero_rss_reading_is_reported_as_unavailable() {
        // `peak_rss_kb()` filters a zero `VmHWM` to `None`: the JSON field
        // is documented as best-effort, and a silent 0 would read as "the
        // sweep used no memory".
        assert_eq!(parse_vm_hwm("VmHWM:\t       0 kB\n"), Some(0));
        assert_eq!(
            parse_vm_hwm("VmHWM:\t       0 kB\n").filter(|&kb| kb > 0),
            None
        );
    }

    #[test]
    fn vm_hwm_parses_the_procfs_format() {
        let status = "Name:\tfedhh\nVmPeak:\t  123 kB\nVmHWM:\t   51200 kB\nThreads: 1\n";
        assert_eq!(parse_vm_hwm(status), Some(51_200));
        assert_eq!(parse_vm_hwm("Name: x\n"), None);
        // On Linux the live reading is present and positive.
        if cfg!(target_os = "linux") {
            assert!(peak_rss_kb().unwrap() > 0);
        }
    }

    #[test]
    fn tiny_sweep_produces_monotone_points() {
        // A minimal end-to-end sweep: two tiny points.  The scales are
        // listed descending on purpose — the sweep must still emit
        // ascending points (the schema invariant).
        let options = ScaleOptions {
            user_scales: vec![0.004, 0.002],
            ..ScaleOptions::quick()
        };
        let report = run_scale(&options).unwrap();
        assert_eq!(report.points.len(), 2);
        assert!(report.points[0].user_scale < report.points[1].user_scale);
        assert!(report.points[0].users < report.points[1].users);
        for p in &report.points {
            assert!(p.elapsed_ms > 0.0);
            assert!(p.reports_per_sec > 0.0);
            assert!(p.uplink_bits > 0);
        }
        let table = report.to_table();
        assert!(table.contains("TAPS"));
        assert!(table.contains("user_scale"));
    }
}
