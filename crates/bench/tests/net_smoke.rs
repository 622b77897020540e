//! The multi-process acceptance test: a coordinator plus four `fedhh-node`
//! party processes run each mechanism over loopback TCP, and the
//! coordinator's `--check-inmemory` gate verifies the distributed
//! `MechanismOutput` (top-k, estimates, uplink bits) is bit-identical to
//! the in-memory engine at the same seed.

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, Stdio};

const NODE_BIN: &str = env!("CARGO_BIN_EXE_fedhh-node");

struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns a coordinator + 4 parties for one mechanism and returns the
/// coordinator's stdout lines.
fn run_distributed(mechanism: &str, extra: &[&str]) -> Vec<String> {
    let mut coordinator = Command::new(NODE_BIN)
        .args([
            "coordinator",
            "--mechanism",
            mechanism,
            "--dataset",
            "ycm",
            "--parties",
            "4",
            "--quick",
            "--seed",
            "42",
            "--timeout-secs",
            "120",
            "--check-inmemory",
        ])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn coordinator");
    let mut stdout = BufReader::new(coordinator.stdout.take().expect("coordinator stdout"));
    let mut coordinator = KillOnDrop(coordinator);

    // The first line advertises the bound port.
    let mut listen = String::new();
    stdout.read_line(&mut listen).expect("read LISTEN line");
    let addr = listen
        .strip_prefix("LISTEN ")
        .unwrap_or_else(|| panic!("expected LISTEN line, got {listen:?}"))
        .trim()
        .to_string();

    let parties: Vec<KillOnDrop> = (0..4)
        .map(|rank| {
            KillOnDrop(
                Command::new(NODE_BIN)
                    .args(["party", "--connect", &addr, "--timeout-secs", "120"])
                    .stdout(Stdio::null())
                    .stderr(Stdio::null())
                    .spawn()
                    .unwrap_or_else(|e| panic!("spawn party {rank}: {e}")),
            )
        })
        .collect();

    let mut rest = String::new();
    stdout
        .read_to_string(&mut rest)
        .expect("read coordinator output");
    let status = coordinator.0.wait().expect("wait coordinator");
    assert!(
        status.success(),
        "{mechanism}: coordinator failed (status {status:?}); output:\n{rest}"
    );
    for (rank, mut party) in parties.into_iter().enumerate() {
        let status = party.0.wait().expect("wait party");
        assert!(status.success(), "{mechanism}: party {rank} failed");
    }
    rest.lines().map(str::to_string).collect()
}

fn assert_bit_identical(mechanism: &str, lines: &[String]) {
    assert!(
        lines
            .iter()
            .any(|line| line.starts_with("CHECK bit-identical")),
        "{mechanism}: coordinator did not confirm bit-identity; output:\n{}",
        lines.join("\n")
    );
    let topk = lines
        .iter()
        .find(|line| line.starts_with("TOPK "))
        .unwrap_or_else(|| panic!("{mechanism}: no TOPK line"));
    assert!(
        topk.split_whitespace().count() > 1,
        "{mechanism}: empty top-k"
    );
    let uplink: usize = lines
        .iter()
        .find_map(|line| line.strip_prefix("UPLINK "))
        .unwrap_or_else(|| panic!("{mechanism}: no UPLINK line"))
        .trim()
        .parse()
        .expect("uplink bits parse");
    assert!(uplink > 0, "{mechanism}: no uplink traffic recorded");
}

#[test]
fn four_process_fedpem_matches_the_in_memory_engine() {
    let lines = run_distributed("fedpem", &[]);
    assert_bit_identical("FedPEM", &lines);
}

#[test]
fn four_process_gtf_matches_the_in_memory_engine() {
    let lines = run_distributed("gtf", &[]);
    assert_bit_identical("GTF", &lines);
}

#[test]
fn four_process_tap_matches_the_in_memory_engine() {
    let lines = run_distributed("tap", &[]);
    assert_bit_identical("TAP", &lines);
}

#[test]
fn four_process_taps_matches_the_in_memory_engine() {
    let lines = run_distributed("taps", &[]);
    assert_bit_identical("TAPS", &lines);
}

#[test]
fn four_process_gtf_under_stragglers_matches_the_in_memory_engine() {
    // GTF's server filter depends on report order, so the coordinator's
    // straggler permutation must reorder exactly as the in-memory engine.
    let lines = run_distributed("gtf", &["--stragglers"]);
    assert_bit_identical("GTF+stragglers", &lines);
}

#[test]
fn distributed_runs_survive_engine_parallelism_and_dropout() {
    // Each party process runs its local drivers on 2 workers while half the
    // parties drop out; the coordinator still matches the in-memory engine
    // under the same scenario plan.
    let lines = run_distributed("taps", &["--parallelism", "2", "--dropout", "0.5"]);
    assert_bit_identical("TAPS+faults", &lines);
}
