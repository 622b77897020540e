//! The benchmark binary end to end, at `--smoke` size: the contract's
//! result line, the failure accounting, and `run` + `compare`.

use fedhh_benchmark::catalog::{MetricDef, END_TO_END, PER_LAYER};
use fedhh_benchmark::json::Json;
use fedhh_benchmark::out_dir;
use std::process::{Command, Output};

fn benchmark(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fedhh-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

/// The last line of standard output, parsed.
fn result_line(output: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().expect("a result line");
    Json::parse(line).unwrap_or_else(|err| panic!("{err}: {line}"))
}

fn assert_metrics(result: &Json, defs: &[MetricDef]) {
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics");
    let mut expected: Vec<&str> = defs.iter().map(|def| def.name).collect();
    expected.sort_unstable();
    assert_eq!(
        metrics.keys().map(String::as_str).collect::<Vec<_>>(),
        expected
    );
    for def in defs {
        let metric = &metrics[def.name];
        assert_eq!(metric.get("unit").and_then(Json::as_str), Some(def.unit));
        let value = metric.get("value").and_then(Json::as_f64);
        assert!(value.is_some_and(f64::is_finite), "{}: {value:?}", def.name);
    }
}

#[test]
fn an_untraced_run_prints_every_end_to_end_metric_and_exits_zero() {
    let output = benchmark(&[
        "--workload",
        "kernel-ycm-tap-olh",
        "--seed",
        "7",
        "--seconds",
        "5",
        "--trace",
        "0",
        "--smoke",
    ]);
    assert!(output.status.success(), "{output:?}");
    let result = result_line(&output);
    let keys: Vec<&str> = result
        .as_obj()
        .unwrap()
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    assert_metrics(&result, &END_TO_END);
    let value = |name: &str| {
        result
            .get("metrics")
            .unwrap()
            .get(name)
            .unwrap()
            .get("value")
            .and_then(Json::as_f64)
    };
    for def in &END_TO_END {
        assert!(
            value(def.name).unwrap() > 0.0,
            "{} must never be 0",
            def.name
        );
    }
    // Every metric is also printed by name with its unit.
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("run_s_p10") && stdout.contains("samples"));

    // The same seed gives the same inputs: exact metrics repeat exactly.
    let again = result_line(&benchmark(&[
        "--workload",
        "kernel-ycm-tap-olh",
        "--seed",
        "7",
        "--seconds",
        "5",
        "--trace",
        "0",
        "--smoke",
    ]));
    for exact in ["uplink_bits", "f1", "ncr"] {
        let repeated = again
            .get("metrics")
            .unwrap()
            .get(exact)
            .unwrap()
            .get("value");
        assert_eq!(repeated.and_then(Json::as_f64), value(exact), "{exact}");
    }
}

#[test]
fn a_traced_run_prints_every_per_layer_metric_and_writes_the_span_buffer() {
    let trace = out_dir().join(format!("cli-test-{}.jsonl", std::process::id()));
    let output = benchmark(&[
        "--workload",
        "epochs-rdb-taps-ckpt",
        "--seed",
        "3",
        "--seconds",
        "5",
        "--trace",
        "1",
        "--smoke",
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    assert!(output.status.success(), "{output:?}");
    let result = result_line(&output);
    assert_metrics(&result, &PER_LAYER);
    let text = std::fs::read_to_string(&trace).expect("the span buffer was written");
    std::fs::remove_file(&trace).unwrap();
    let spans: Vec<Json> = text
        .lines()
        .map(|line| Json::parse(line).unwrap())
        .collect();
    let named = |name: &str| {
        spans
            .iter()
            .filter(|s| s.get("name").and_then(Json::as_str) == Some(name))
            .count()
    };
    // Probes, operations, and the program's own spans as their descendants.
    assert!(named("scheduler.assign") > 0 && named("checkpoint.save") > 0);
    assert!(named("op") > 0 && named("round") > 0 && named("checkpoint.write") > 0);
    let run = spans
        .iter()
        .find(|s| s.get("name").and_then(Json::as_str) == Some("run"))
        .expect("a program `run` span was imported");
    assert!(
        run.get("parent").and_then(Json::as_f64).is_some(),
        "imported spans have parents"
    );
}

#[test]
fn a_wrong_reference_counts_every_operation_as_failed_and_exits_one() {
    let output = benchmark(&[
        "--workload",
        "rounds-syn-gtf-tree",
        "--seed",
        "1",
        "--seconds",
        "5",
        "--trace",
        "0",
        "--smoke",
        "--corrupt-reference",
    ]);
    assert_eq!(output.status.code(), Some(1), "{output:?}");
    let result = result_line(&output);
    assert_eq!(result.get("correct"), Some(&Json::Bool(false)));
    let failed = result.get("failed").and_then(Json::as_f64).unwrap();
    assert!(failed > 0.0);
    assert_eq!(result.get("attempted").and_then(Json::as_f64), Some(failed));
    assert!(String::from_utf8_lossy(&output.stdout).contains("differs from the reference"));
}

#[test]
fn bad_arguments_exit_two_without_a_result_line() {
    for args in [
        &[
            "--workload",
            "no-such-workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "rounds-syn-gtf-tree",
            "--seed",
            "1",
            "--seconds",
            "1",
        ],
        &[
            "--workload",
            "rounds-syn-gtf-tree",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        &[
            "--workload",
            "rounds-syn-gtf-tree",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ],
        &[
            "--workload",
            "rounds-syn-gtf-tree",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
        &["compare", "only-one.json"],
        &["--bogus"],
    ] {
        let output = benchmark(args);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {output:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}

#[test]
fn run_writes_a_result_set_that_compares_within_bounds_against_itself() {
    let pid = std::process::id();
    let set = out_dir().join(format!("cli-test-set-{pid}.json"));
    let trace = out_dir().join(format!("cli-test-set-{pid}.jsonl"));
    let output = benchmark(&[
        "run",
        "--smoke",
        "--seed",
        "11",
        "--seconds",
        "5",
        "--out",
        set.to_str().unwrap(),
        "--trace",
        trace.to_str().unwrap(),
    ]);
    assert!(output.status.success(), "{output:?}");
    let doc = Json::parse(&std::fs::read_to_string(&set).unwrap()).unwrap();
    // Five workloads, one untraced and one traced run each.
    assert_eq!(
        doc.get("runs").and_then(Json::as_arr).map(<[Json]>::len),
        Some(10)
    );
    let spans = std::fs::read_to_string(&trace).unwrap();
    for workload in fedhh_benchmark::workload::WORKLOADS {
        assert!(spans.contains(workload.name), "{} has spans", workload.name);
    }

    let compared = benchmark(&["compare", set.to_str().unwrap(), set.to_str().unwrap()]);
    let table = String::from_utf8_lossy(&compared.stdout).to_string();
    std::fs::remove_file(&set).unwrap();
    std::fs::remove_file(&trace).unwrap();
    assert!(compared.status.success(), "{table}");
    assert!(table.contains("0 regressed, 0 unresolved"), "{table}");
}
