//! The option grammar of both binaries, exercised through the real
//! executables: every rejected command line exits non-zero, names what it
//! rejected, and fails *before* any sweep starts or any file is written.
//! One table per binary; none of the rejected lines measures anything.

use std::path::PathBuf;
use std::process::{Command, Output};

fn temp_path(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("fedhh-cli-grammar-{}-{name}", std::process::id()));
    path
}

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .expect("failed to spawn the binary")
}

/// Asserts every `(command line, needles)` case is rejected: non-zero
/// exit, every needle on stderr, and no sign that a sweep ran.
fn assert_all_rejected(bin: &str, cases: &[(&str, &[&str])]) {
    for (line, needles) in cases {
        let args: Vec<&str> = line.split_whitespace().collect();
        let output = run(bin, &args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!output.status.success(), "`{line}` must fail");
        for needle in *needles {
            assert!(
                stderr.contains(needle),
                "`{line}`: no {needle:?} in:\n{stderr}"
            );
        }
        assert!(
            !stderr.contains("finished in") && !stderr.contains("wrote"),
            "`{line}` ran a sweep before failing:\n{stderr}"
        );
    }
}

#[test]
fn fedhh_bench_rejects_malformed_command_lines_before_running_anything() {
    assert_all_rejected(
        env!("CARGO_BIN_EXE_fedhh-bench"),
        &[
            // An unknown option names the subcommand that rejected it.
            ("run fig4 --bogus", &["--bogus", "fedhh-bench run"]),
            ("trial taps rdb --bogus", &["--bogus", "fedhh-bench trial"]),
            ("perf --bogus", &["--bogus", "fedhh-bench perf"]),
            ("scale --dropout 0.5", &["--dropout", "fedhh-bench scale"]),
            ("epochs --bogus", &["--bogus", "fedhh-bench epochs"]),
            ("scenario --bogus", &["--bogus", "fedhh-bench scenario"]),
            // The tree sweep is part of `scenario`.
            ("topology --quick", &["unknown subcommand \"topology\""]),
            ("trace-check x --bogus", &["fedhh-bench trace-check"]),
            // Reports without a baseline gate do not take its options.
            ("scale --check x.json", &["unknown option --check"]),
            ("epochs --threshold 1", &["unknown option --threshold"]),
            // A missing value names the option.
            ("scenario --seed", &["--seed requires a value"]),
            ("perf --out", &["--out requires a value"]),
            ("trial taps rdb --reps", &["--reps requires a value"]),
            // An unparsable or out-of-range value names the option.
            ("epochs --epochs many", &["--epochs", "\"many\""]),
            ("epochs --epochs 0", &["--epochs must be at least 1"]),
            ("epochs --churn 1.5", &["--churn must be in [0, 1]"]),
            ("scenario --fanouts 2,x", &["--fanouts", "\"2,x\""]),
            // A plan rule is checked by the plan, before any trial runs.
            ("scenario --fanouts 1", &["fanout >= 2"]),
            (
                "scenario --quorums 1,0",
                &["quorum fraction must be in (0, 1]"],
            ),
            (
                "scenario --fractions 0,1.5",
                &["adversary fraction must be in [0, 1], got 1.5"],
            ),
            ("scale --user-scales 0.1,-1", &["--user-scales"]),
            // The report pipeline's chunk size is not a setting.
            ("scale --chunk 64", &["unknown option --chunk"]),
            ("scale --max-rss-mb 0", &["--max-rss-mb must be positive"]),
            ("perf --threshold 0", &["--threshold must be positive"]),
            ("scenario --threshold -1", &["must be non-negative"]),
            ("perf --overhead-gate 0.5", &["must be at least 1.0"]),
            ("trial taps rdb --transport udp", &["memory or tcp"]),
            // Zero repetitions used to print an all-zero table and exit 0.
            ("run fig4 --reps 0", &["--reps must be at least 1"]),
            ("trial taps rdb --reps 0", &["--reps must be at least 1"]),
            // An unusable population used to be accepted (0, NaN, negative)
            // or to panic with a capacity overflow (inf).
            (
                "run fig4 --user-scale inf",
                &["--user-scale must be positive and finite"],
            ),
            (
                "trial taps rdb --user-scale NaN",
                &["--user-scale must be positive"],
            ),
            (
                "epochs --user-scale 0",
                &["--user-scale must be positive and finite"],
            ),
            ("run nope", &["unknown experiment \"nope\""]),
            ("run fig4 --json x.json", &["unknown option --json"]),
        ],
    );
}

#[test]
fn a_check_baseline_is_vetted_before_the_sweep_starts() {
    // Unreadable, recorded by the other suite, carrying a number that does
    // not fit its field, and nested 200 000 brackets deep (which used to
    // overflow the stack): each fails before anything runs or is written.
    let out = temp_path("out.json");
    let baselines = [
        ("full", "{\"schema\": 1, \"suite\": \"full\", \"dataset\": \"RDB\", \"rows\": []}".to_string()),
        ("schema", "{\"schema\": 1.9, \"suite\": \"quick\", \"dataset\": \"SYN\", \"rows\": []}".to_string()),
        (
            "negative",
            "{\"schema\": 1, \"suite\": \"quick\", \"entries\": [{\"name\": \"x\", \"reports\": -5, \
             \"ns_per_report\": 1.0, \"reports_per_sec\": 1.0, \"uplink_bits\": 0}]}"
                .to_string(),
        ),
        ("deep", "[".repeat(200_000)),
    ];
    let path = |tag: &str| temp_path(&format!("{tag}.json")).display().to_string();
    for (tag, text) in &baselines {
        std::fs::write(path(tag), text).unwrap();
    }
    let line = |subcommand: &str, baseline: &str| {
        format!(
            "{subcommand} --quick --out {} --check {baseline}",
            out.display()
        )
    };
    let cases = [
        (
            line("perf", "/nonexistent/b.json"),
            &["failed to read baseline /nonexistent/b.json"][..],
        ),
        (
            line("scenario", &path("full")),
            &["recorded by the \"full\" suite", "\"quick\""][..],
        ),
        (
            line("run fig4", &path("full")),
            &["recorded by the \"full\" suite", "\"fig4 at user scale"][..],
        ),
        (
            line("scenario", &path("schema")),
            &["failed to parse baseline", "\"schema\""][..],
        ),
        (
            line("perf", &path("negative")),
            &["failed to parse baseline", "\"reports\""][..],
        ),
        (
            line("scenario", &path("deep")),
            &["failed to parse baseline", "nesting deeper"][..],
        ),
    ];
    let cases: Vec<(&str, &[&str])> = cases.iter().map(|(l, n)| (l.as_str(), *n)).collect();
    assert_all_rejected(env!("CARGO_BIN_EXE_fedhh-bench"), &cases);
    assert!(!out.exists(), "a rejected command line wrote --out");
    for (tag, _) in &baselines {
        let _ = std::fs::remove_file(path(tag));
    }
}

#[test]
fn fedhh_node_rejects_malformed_command_lines_before_running_anything() {
    assert_all_rejected(
        env!("CARGO_BIN_EXE_fedhh-node"),
        &[
            ("", &["usage: fedhh-node"]),
            (
                "coordinator --bogus",
                &["--bogus", "fedhh-node coordinator"],
            ),
            ("party --bogus", &["--bogus", "fedhh-node party"]),
            ("service --bogus", &["--bogus", "fedhh-node service"]),
            ("coordinator --parties", &["--parties requires a value"]),
            ("party --connect", &["--connect requires a value"]),
            ("service --checkpoint", &["--checkpoint requires a value"]),
            ("coordinator --parties 0", &["--parties must be at least 1"]),
            ("coordinator --k ten", &["--k", "\"ten\""]),
            ("coordinator --mechanism bogus", &["--mechanism:"]),
            ("coordinator --topology tree:1", &["fanout >= 2"]),
            ("coordinator --quorum 1.5", &["must be in (0, 1]"]),
            // The plan has one seed, and it is not an option.
            ("coordinator --quorum 0.75:9", &["--quorum", "\"0.75:9\""]),
            (
                "coordinator --scenario sybil:0.5:7",
                &["--scenario", "invalid fraction"],
            ),
            ("coordinator --scenario sybil", &["missing a fraction"]),
            ("coordinator --scenario nope:0.5", &["unknown adversary"]),
            ("coordinator --dataset rdb", &["--mechanism is required"]),
            ("party --timeout-secs soon", &["--timeout-secs", "\"soon\""]),
            ("party", &["usage: fedhh-node party --connect"]),
            // The options shared with `fedhh-bench epochs` go through the
            // same function, so the two commands agree on every range.
            ("service --epochs 0", &["--epochs must be at least 1"]),
            ("service --churn 1.5", &["--churn must be in [0, 1]"]),
            ("service --warm tepid", &["must be cold or previous"]),
            ("service --mechanism taps", &["--dataset are required"]),
            (
                "coordinator --user-scale inf",
                &["--user-scale must be positive and finite"],
            ),
            (
                "service --user-scale -1",
                &["--user-scale must be positive"],
            ),
        ],
    );
}

#[test]
fn fedhh_node_accepts_adversary_names_in_any_case() {
    // Without `--mechanism` the coordinator stops right after parsing, so
    // the error it names is that one: the adversary was accepted.
    for name in ["Sybil", "SYBIL", "Report-Flip", "input-POISON"] {
        let spec = format!("{name}:0.5");
        let output = run(
            env!("CARGO_BIN_EXE_fedhh-node"),
            &["coordinator", "--scenario", &spec, "--dataset", "rdb"],
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!output.status.success(), "{spec}: must stop before running");
        assert!(
            stderr.contains("--mechanism is required") && !stderr.contains("unknown adversary"),
            "{spec}: the name was not accepted:\n{stderr}"
        );
    }
}

#[test]
fn quick_is_order_independent_on_epochs_and_service() {
    // `fedhh-bench epochs`: an explicit --epochs survives a later --quick.
    let bench = env!("CARGO_BIN_EXE_fedhh-bench");
    let mut files = Vec::new();
    for (tag, order) in [
        ("after", ["--epochs", "5", "--quick"]),
        ("before", ["--quick", "--epochs", "5"]),
    ] {
        let out = temp_path(&format!("epochs-{tag}.json"));
        let output = Command::new(bench)
            .arg("epochs")
            .args(order)
            .args(["--user-scale", "0.005", "--out"])
            .arg(&out)
            .output()
            .unwrap();
        assert!(output.status.success(), "{order:?} failed");
        let text = std::fs::read_to_string(&out).unwrap();
        assert!(text.contains("\"epochs\": 5,"), "{order:?}:\n{text}");
        assert_eq!(text.matches("{\"epoch\": 4,").count(), 2, "{order:?}");
        let _ = std::fs::remove_file(&out);
        files.push(text);
    }
    assert_eq!(files[0], files[1]);

    // `fedhh-node service`: an explicit --k / --user-scale survives too.
    let node = env!("CARGO_BIN_EXE_fedhh-node");
    let base = [
        "service",
        "--mechanism",
        "taps",
        "--dataset",
        "rdb",
        "--epochs",
        "1",
    ];
    let explicit = ["--k", "3", "--user-scale", "0.004"];
    let early = run(node, &[&base[..], &["--quick"], &explicit].concat());
    let late = run(node, &[&base[..], &explicit, &["--quick"]].concat());
    assert!(early.status.success() && late.status.success());
    assert!(!early.stdout.is_empty());
    assert_eq!(
        early.stdout, late.stdout,
        "--quick overwrote --k / --user-scale"
    );
}

#[test]
fn a_baseline_missing_current_cells_fails_the_gate_on_scenario_and_topology() {
    // An empty (or stale) baseline used to pass: "0 cells within 0.05".
    // One sweep holds both the adversary cells and the tree cells, and
    // every one of them is named.
    let bench = env!("CARGO_BIN_EXE_fedhh-bench");
    let baseline = temp_path("scenario-empty.json");
    let out = temp_path("scenario-out.json");
    std::fs::write(
        &baseline,
        "{\"schema\": 1, \"suite\": \"quick\", \"dataset\": \"SYN\", \"rows\": []}",
    )
    .unwrap();
    let output = Command::new(bench)
        .args(["scenario", "--quick", "--out"])
        .arg(&out)
        .arg("--check")
        .arg(&baseline)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "{stderr}");
    for cell in ["TAPS/sybil/0.5/flat/1", "TAPS/none/0/tree:4/0.5"] {
        assert!(
            stderr.contains(&format!(
                "{cell}: new cell missing from the baseline (regenerate it)"
            )),
            "{cell}:\n{stderr}"
        );
    }
    // The fresh report was still written, and gates clean against itself
    // at zero tolerance.
    let status = Command::new(bench)
        .args(["scenario", "--quick", "--out"])
        .arg(&baseline)
        .arg("--check")
        .arg(&out)
        .args(["--threshold", "0"])
        .output()
        .unwrap()
        .status;
    assert!(status.success(), "self-check failed");
    let _ = std::fs::remove_file(&baseline);
    let _ = std::fs::remove_file(&out);
}
