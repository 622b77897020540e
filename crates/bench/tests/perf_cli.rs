//! Integration tests of the `fedhh-bench perf` regression gate: the CLI
//! must emit `BENCH_perf.json` and exit non-zero when a baseline entry
//! regressed or vanished.
//!
//! Kept to two measured suite runs (the missing-baseline probe fails before
//! any measurement): the pass/fail split of the gate logic itself is
//! unit-tested on the shared `check`, so this test only needs to prove the CLI
//! wiring — emit, parse, gate, exit code.

use fedhh_bench::PerfReport;
use std::path::PathBuf;
use std::process::Command;

fn bench_bin() -> &'static str {
    env!("CARGO_BIN_EXE_fedhh-bench")
}

fn temp_path(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("fedhh-perf-cli-{}-{name}", std::process::id()));
    path
}

#[test]
fn perf_emits_json_and_check_gates_regressions() {
    let out = temp_path("out.json");
    let baseline = temp_path("baseline.json");

    // 1. A plain run writes a parseable BENCH_perf.json.
    let status = Command::new(bench_bin())
        .args(["perf", "--quick", "--out"])
        .arg(&out)
        .status()
        .expect("failed to spawn fedhh-bench");
    assert!(status.success(), "perf run failed");
    let text = std::fs::read_to_string(&out).expect("BENCH_perf.json missing");
    let report = PerfReport::from_json(&text).expect("emitted JSON must parse");
    assert_eq!(report.schema, 1);
    for name in [
        "fo_perturb/krr/vectorized",
        "assign/weighted",
        "estimate/level/krr",
        "mech_e2e/fedpem/vectorized",
        "mech_e2e/tap/vectorized/p2",
        "mech_e2e/taps/vectorized/p2",
    ] {
        assert!(
            report.entries.iter().any(|e| e.name == name),
            "missing {name}"
        );
    }

    // 2. A doctored baseline with an injected slowdown (one entry claiming
    //    to have run 1000x faster) AND a vanished workload (one entry
    //    renamed to something the suite no longer produces) must make
    //    --check exit non-zero.  One invocation covers both failure modes;
    //    their individual classification is unit-tested on the shared check.
    let mut doctored = report.clone();
    doctored.entries[0].ns_per_report /= 1000.0;
    doctored.entries[0].reports_per_sec *= 1000.0;
    let last = doctored.entries.len() - 1;
    doctored.entries[last].name = "workload/that/no/longer/exists".to_string();
    std::fs::write(&baseline, doctored.to_json()).unwrap();
    let status = Command::new(bench_bin())
        .args(["perf", "--quick", "--out"])
        .arg(&out)
        .arg("--check")
        .arg(&baseline)
        .args(["--threshold", "2.0"])
        .status()
        .unwrap();
    assert!(
        !status.success(),
        "--check must fail on an injected slowdown / vanished workload"
    );
    // The fresh run overwrote --out and still parses.
    let rerun = std::fs::read_to_string(&out).unwrap();
    assert!(PerfReport::from_json(&rerun).is_ok());

    // 3. An unreadable baseline fails fast, before any measurement.
    let status = Command::new(bench_bin())
        .args(["perf", "--quick", "--check", "/nonexistent/baseline.json"])
        .status()
        .unwrap();
    assert!(!status.success(), "--check must fail on a missing baseline");

    // 4. A baseline recorded by a differently sized suite is rejected
    //    (also before any measurement): quick and full workloads share
    //    entry names but not workload sizes.
    let mut full_suite = report.clone();
    full_suite.suite = "full".to_string();
    std::fs::write(&baseline, full_suite.to_json()).unwrap();
    let status = Command::new(bench_bin())
        .args(["perf", "--quick", "--check"])
        .arg(&baseline)
        .status()
        .unwrap();
    assert!(!status.success(), "--check must reject a suite mismatch");

    let _ = std::fs::remove_file(&out);
    let _ = std::fs::remove_file(&baseline);
}
