//! The `fedhh-bench` command-line harness.
//!
//! ```text
//! fedhh-bench list
//! fedhh-bench run <experiment|all> [--quick] [--reps N] [--user-scale F]
//!                 [--markdown] [--json PATH]
//! fedhh-bench trial <mechanism> <dataset> [--fo KIND] [--epsilon F] [--k N]
//!                   [--quick] [--reps N] [--user-scale F]
//!                   [--parallelism N] [--dropout F] [--transport {memory,tcp}]
//!                   [--trace PATH]
//! fedhh-bench perf [--quick] [--out PATH] [--check BASELINE] [--threshold F]
//!                  [--trace PATH] | perf --overhead-gate RATIO [--quick]
//! fedhh-bench scale [--quick] [--dataset KIND] [--mechanism KIND] [--eager]
//!                   [--chunk N] [--parallelism N] [--user-scales F,F,...]
//!                   [--out PATH] [--max-rss-mb N] [--trace PATH]
//! fedhh-bench epochs [--quick] [--dataset KIND] [--mechanism KIND]
//!                    [--epochs N] [--churn F] [--drift N] [--epsilon F]
//!                    [--cap F] [--k N] [--seed N] [--user-scale F]
//!                    [--parallelism N] [--out PATH]
//! fedhh-bench scenario [--quick] [--dataset KIND] [--fractions F,F,...]
//!                      [--seed N] [--scenario-seed N] [--out PATH]
//!                      [--check BASELINE] [--threshold F]
//! fedhh-bench topology [--quick] [--dataset KIND] [--fanouts N,N,...]
//!                      [--fractions F,F,...] [--seed N] [--quorum-seed N]
//!                      [--out PATH] [--check BASELINE] [--threshold F]
//! fedhh-bench trace-check <trace.jsonl> [--perf BENCH_perf.json]
//! ```
//!
//! `run all` reproduces every table and figure of the paper's evaluation and
//! prints them to stdout; `--json PATH` additionally writes the structured
//! results so EXPERIMENTS.md can be regenerated from them.  `trial` runs a
//! single mechanism/dataset/FO combination through the `Run` builder —
//! mechanism, dataset and FO names are parsed with their `FromStr` impls, so
//! any case works (`taps`, `TAPS`, `k-RR`, ...).  `--parallelism N` executes
//! party work on N engine workers (bit-identical results, lower wall-clock);
//! `--dropout F` makes a fraction F of the parties drop out for the run;
//! `--transport tcp` routes every upload across a real loopback TCP socket
//! in the `fedhh-wire` frame format (still bit-identical to `memory`).
//!
//! `perf` runs the pinned performance-baseline suite (see the
//! `fedhh_bench::perf` module for the workload list and the
//! `BENCH_perf.json` schema), writes the JSON report to `--out` (default
//! `BENCH_perf.json`), and — when `--check BASELINE` is given — exits
//! non-zero if any baseline workload regressed beyond `--threshold`
//! (default 2.0x) or disappeared from the suite.  `perf --overhead-gate
//! RATIO` is a standalone mode: it re-runs the mechanism end-to-end legs
//! with traced and untraced runs interleaved rep by rep in this one
//! process (the only arrangement that resolves a few-percent effect
//! through scheduler noise) and exits non-zero if any leg's traced
//! minimum exceeds `RATIO ×` its untraced minimum — CI pins the
//! telemetry plane's ≤ 3% overhead contract with `--overhead-gate 1.03`.
//!
//! `scale` sweeps `user_scale` up through the paper's full populations
//! (default: TAPS on RDB, streamed chunked data plane) and writes
//! `BENCH_scale.json` (see the `fedhh_bench::scale` module for the
//! schema).  `--quick` runs CI's reduced sweep, `--eager` measures the
//! materializing baseline instead, and `--max-rss-mb N` exits non-zero
//! when the sweep's peak resident set exceeds the ceiling — the CI
//! `scale-smoke` gate that memory stays bounded as populations grow.
//!
//! `epochs` runs the epoch service over a churning, drifting population
//! through both warm-start arms (cold rebuild vs incremental trie) and
//! writes `BENCH_epochs.json` with per-epoch F1/NCR/uplink and the budget
//! ledger's enrolled/refused split (see the `fedhh_bench::epochs` module
//! for the schema).  `--cap F` sets the lifetime per-user ε cap the
//! ledger enforces.
//!
//! `scenario` sweeps every mechanism against every adversary model of the
//! scenario plane over the `--fractions` list of compromised-party
//! fractions and writes the robustness matrix `BENCH_scenario.json` (see
//! the `fedhh_bench::scenario` module for the schema).  The sweep is
//! fully deterministic — a same-options rerun reproduces the JSON byte
//! for byte — and internally gates the fraction-0 column bit-for-bit
//! against the fault-free baseline.  `--check BASELINE` exits non-zero
//! when any committed cell vanished, flipped its `ok` flag, or moved by
//! more than `--threshold` (default 0.05) on F1/NCR.
//!
//! `topology` sweeps every mechanism across the flat star and the
//! `--fanouts` list of aggregation trees × the `--fractions` list of
//! quorum closures, and writes `BENCH_topology.json` (see the
//! `fedhh_bench::topology` module for the schema).  Like `scenario` the
//! sweep reproduces its JSON byte for byte on a rerun, and it internally
//! gates every tree cell bit-for-bit against its flat equivalent plus the
//! strict root-inbound byte savings at full quorum.  `--check BASELINE`
//! exits non-zero when any committed cell vanished, changed its root
//! frame count, or moved by more than `--threshold` (default 0.05) on
//! F1/uplink.
//!
//! `--trace PATH` (on `trial`, `perf` and `scale`) attaches the telemetry
//! plane and writes a schema-versioned JSONL trace — spans, uplink funnel
//! events and the metric registry snapshot, one mark-delimited section per
//! workload (see `fedhh_telemetry::trace` for the line grammar).  Tracing
//! never changes results: a traced run is bit-identical to an untraced
//! one.  `trace-check` re-parses a trace strictly, verifies the internal
//! reconciliation invariant (per section, the `uplink.bits` counter equals
//! the sum of the `uplink` events), and — with `--perf BENCH_perf.json` —
//! cross-checks every `mech_e2e/*` section against the perf report: the
//! section's uplink counter must equal `runs ×` the entry's `uplink_bits`,
//! because every run in a perf leg uses identical seeds.

use fedhh_bench::experiments::{run_by_name, ALL_EXPERIMENTS};
use fedhh_bench::report::reports_to_json;
use fedhh_bench::runner::averaged_engine_trial_traced;
use fedhh_bench::{ExperimentReport, ExperimentScale};
use fedhh_datasets::DatasetKind;
use fedhh_federated::{EngineConfig, FaultPlan, TransportKind};
use fedhh_fo::FoKind;
use fedhh_mechanisms::MechanismKind;
use fedhh_telemetry::{Telemetry, TraceLine, TraceStats};
use std::io::Write as _;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("list") => {
            println!("available experiments:");
            for name in ALL_EXPERIMENTS {
                println!("  {name}");
            }
            return ExitCode::SUCCESS;
        }
        Some("run") => run_command(&args[1..]),
        Some("trial") => trial_command(&args[1..]),
        Some("perf") => perf_command(&args[1..]),
        Some("scale") => scale_command(&args[1..]),
        Some("epochs") => epochs_command(&args[1..]),
        Some("scenario") => scenario_command(&args[1..]),
        Some("topology") => topology_command(&args[1..]),
        Some("trace-check") => trace_check_command(&args[1..]),
        Some(other) => {
            eprintln!("unknown subcommand {other:?}; valid subcommands: {SUBCOMMANDS}");
            usage();
            return ExitCode::FAILURE;
        }
        None => {
            usage();
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(code) => code,
        Err(err) => {
            eprintln!("{err}");
            ExitCode::FAILURE
        }
    }
}

/// Every subcommand the harness understands, in usage order — the list an
/// unknown-subcommand error names.
const SUBCOMMANDS: &str = "list, run, trial, perf, scale, epochs, scenario, topology, trace-check";

fn usage() {
    eprintln!(
        "usage: fedhh-bench <list|run|trial|perf|scale|epochs|scenario|topology|trace-check> \
         [args] [options]"
    );
    eprintln!("  list");
    eprintln!(
        "  run <experiment|all> [--quick] [--reps N] [--user-scale F] [--markdown] [--json PATH]"
    );
    eprintln!(
        "  trial <mechanism> <dataset> [--fo KIND] [--epsilon F] [--k N] [--quick] [--reps N]"
    );
    eprintln!(
        "        [--parallelism N] [--dropout F] [--transport {{memory,tcp}}] [--trace PATH]"
    );
    eprintln!("  perf [--quick] [--out PATH] [--check BASELINE] [--threshold F] [--trace PATH]");
    eprintln!("  perf --overhead-gate RATIO [--quick]");
    eprintln!("  scale [--quick] [--dataset KIND] [--mechanism KIND] [--eager] [--chunk N]");
    eprintln!("        [--parallelism N] [--user-scales F,F,...] [--out PATH] [--max-rss-mb N]");
    eprintln!("        [--trace PATH]");
    eprintln!("  epochs [--quick] [--dataset KIND] [--mechanism KIND] [--epochs N] [--churn F]");
    eprintln!("         [--drift N] [--epsilon F] [--cap F] [--k N] [--seed N] [--user-scale F]");
    eprintln!("         [--parallelism N] [--out PATH]");
    eprintln!("  scenario [--quick] [--dataset KIND] [--fractions F,F,...] [--seed N]");
    eprintln!("           [--scenario-seed N] [--out PATH] [--check BASELINE] [--threshold F]");
    eprintln!("  topology [--quick] [--dataset KIND] [--fanouts N,N,...] [--fractions F,F,...]");
    eprintln!("           [--seed N] [--quorum-seed N] [--out PATH] [--check BASELINE]");
    eprintln!("           [--threshold F]");
    eprintln!("  trace-check <trace.jsonl> [--perf BENCH_perf.json]");
}

/// A cursor over one subcommand's option list.  Every error it produces
/// names the subcommand, so `fedhh-bench scale --dropout 0.5` says which
/// command rejected the option instead of a bare "unknown option".
struct ArgCursor<'a> {
    subcommand: &'static str,
    args: &'a [String],
    next: usize,
}

impl<'a> ArgCursor<'a> {
    fn new(subcommand: &'static str, args: &'a [String]) -> Self {
        Self {
            subcommand,
            args,
            next: 0,
        }
    }

    /// The next option token, advancing past it; `None` at the end.
    fn next_option(&mut self) -> Option<&'a str> {
        let arg = self.args.get(self.next)?;
        self.next += 1;
        Some(arg.as_str())
    }

    /// Consumes `option`'s raw value (a typo must never silently fall back
    /// to a default).
    fn raw_value(&mut self, option: &str) -> Result<&'a str, String> {
        match self.args.get(self.next) {
            Some(raw) => {
                self.next += 1;
                Ok(raw.as_str())
            }
            None => Err(format!(
                "{option} requires a value (fedhh-bench {})",
                self.subcommand
            )),
        }
    }

    /// Consumes and parses `option`'s value with its `FromStr`, masking the
    /// parse error behind a uniform message (for plain numerics).
    fn value<T: std::str::FromStr>(&mut self, option: &str) -> Result<T, String> {
        let raw = self.raw_value(option)?;
        raw.parse().map_err(|_| {
            format!(
                "{option} got an invalid value {raw:?} (fedhh-bench {})",
                self.subcommand
            )
        })
    }

    /// Like [`ArgCursor::value`] but surfaces the type's own parse error —
    /// for kinds whose `FromStr` errors already explain the valid names
    /// (mechanisms, datasets, frequency oracles).
    fn parsed<T>(&mut self, option: &str) -> Result<T, String>
    where
        T: std::str::FromStr,
        T::Err: std::fmt::Display,
    {
        let raw = self.raw_value(option)?;
        raw.parse().map_err(|e| format!("{option}: {e}"))
    }

    /// The error for an option this subcommand does not understand.
    fn unknown(&self, option: &str) -> String {
        format!(
            "unknown option {option} for `fedhh-bench {}`",
            self.subcommand
        )
    }
}

/// How a subcommand's `--threshold` is floored.
enum ThresholdRule {
    /// Ratios (perf): must be strictly positive.
    Positive,
    /// Deltas (scenario): zero means "byte-equal" and is allowed.
    NonNegative,
}

/// The `--out PATH` / `--check BASELINE` / `--threshold F` trio shared by
/// the report-writing subcommands, parsed in one place instead of once per
/// command.  Subcommands without a gate (`scale`, `epochs`) pass
/// `gate: None` and only `--out` is accepted.
struct CheckedOutput {
    out_path: String,
    check_path: Option<String>,
    threshold: f64,
    gate: Option<ThresholdRule>,
}

impl CheckedOutput {
    fn new(default_out: &str, default_threshold: f64, gate: Option<ThresholdRule>) -> Self {
        Self {
            out_path: default_out.to_string(),
            check_path: None,
            threshold: default_threshold,
            gate,
        }
    }

    /// Consumes the option when it belongs to the trio; `Ok(false)` hands
    /// it back to the caller's match.
    fn consume(&mut self, option: &str, cursor: &mut ArgCursor<'_>) -> Result<bool, String> {
        match option {
            "--out" => {
                self.out_path = cursor.raw_value("--out")?.to_string();
                Ok(true)
            }
            "--check" if self.gate.is_some() => {
                self.check_path = Some(cursor.raw_value("--check")?.to_string());
                Ok(true)
            }
            "--threshold" => {
                let Some(rule) = &self.gate else {
                    return Ok(false);
                };
                let v: f64 = cursor.value("--threshold")?;
                match rule {
                    ThresholdRule::Positive if v.is_nan() || v <= 0.0 => {
                        return Err(format!("--threshold must be positive, got {v}"));
                    }
                    ThresholdRule::NonNegative if v.is_nan() || v < 0.0 => {
                        return Err(format!("--threshold must be non-negative, got {v}"));
                    }
                    _ => {}
                }
                self.threshold = v;
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// Writes the serialized report to `--out` and reports the path.
    fn write_report(&self, json: &str) -> Result<(), String> {
        std::fs::write(&self.out_path, json)
            .map_err(|err| format!("failed to write {}: {err}", self.out_path))?;
        eprintln!("[fedhh-bench] wrote {}", self.out_path);
        Ok(())
    }
}

/// Reads and parses a `--check` baseline **before** the run spends minutes
/// measuring (a bad path must fail fast), rejecting a suite mismatch —
/// quick and full suites size their workloads differently under the same
/// entry names, so comparing across them would gate on apples vs oranges.
fn load_baseline<R>(
    check_path: Option<&str>,
    suite: &str,
    parse: impl Fn(&str) -> Result<R, String>,
    suite_of: impl Fn(&R) -> String,
) -> Result<Option<R>, String> {
    let Some(path) = check_path else {
        return Ok(None);
    };
    let text = std::fs::read_to_string(path)
        .map_err(|err| format!("failed to read baseline {path}: {err}"))?;
    let report = parse(&text).map_err(|err| format!("failed to parse baseline {path}: {err}"))?;
    let recorded = suite_of(&report);
    if recorded != suite {
        return Err(format!(
            "baseline {path} was recorded by the {recorded:?} suite but this is a {suite:?} \
             run; regenerate the baseline with the matching suite"
        ));
    }
    Ok(Some(report))
}

/// Parses the scale-related options shared by `run` and `trial`; returns
/// the remaining unconsumed options.
fn parse_scale_options(
    args: &[String],
    scale: &mut ExperimentScale,
) -> Result<Vec<String>, String> {
    let mut rest = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => *scale = ExperimentScale::quick(),
            "--reps" => {
                i += 1;
                scale.repetitions = parse_value("--reps", args.get(i))?;
            }
            "--user-scale" => {
                i += 1;
                scale.user_scale = parse_value("--user-scale", args.get(i))?;
            }
            other => rest.push(other.to_string()),
        }
        i += 1;
    }
    Ok(rest)
}

/// Parses one required numeric option value (the pre-cursor helper kept for
/// [`parse_scale_options`], which runs before a subcommand cursor exists).
fn parse_value<T: std::str::FromStr>(option: &str, value: Option<&String>) -> Result<T, String> {
    let Some(raw) = value else {
        return Err(format!("{option} requires a value"));
    };
    raw.parse()
        .map_err(|_| format!("{option} got an invalid value {raw:?}"))
}

fn run_command(args: &[String]) -> Result<ExitCode, String> {
    let Some(target) = args.first() else {
        return Err("usage: fedhh-bench run <experiment|all> [options]".to_string());
    };
    let target = target.clone();

    let mut scale = ExperimentScale::default();
    let rest = parse_scale_options(&args[1..], &mut scale)?;
    let mut markdown = false;
    let mut json_path: Option<String> = None;
    let mut cursor = ArgCursor::new("run", &rest);
    while let Some(arg) = cursor.next_option() {
        match arg {
            "--markdown" => markdown = true,
            "--json" => json_path = Some(cursor.raw_value("--json")?.to_string()),
            other => return Err(cursor.unknown(other)),
        }
    }

    let names: Vec<&str> = if target == "all" {
        ALL_EXPERIMENTS.to_vec()
    } else if ALL_EXPERIMENTS.contains(&target.as_str()) {
        vec![target.as_str()]
    } else {
        return Err(format!(
            "unknown experiment {target}; run `fedhh-bench list`"
        ));
    };

    let mut reports: Vec<ExperimentReport> = Vec::new();
    for name in names {
        eprintln!("[fedhh-bench] running {name} ...");
        let start = std::time::Instant::now();
        let report = run_by_name(name, &scale).map_err(|err| format!("{name} failed: {err}"))?;
        eprintln!(
            "[fedhh-bench] {name} finished in {:.1}s",
            start.elapsed().as_secs_f64()
        );
        if markdown {
            println!("{}", report.to_markdown());
        } else {
            println!("{}", report.to_table());
        }
        reports.push(report);
    }

    if let Some(path) = json_path {
        let json = reports_to_json(&reports);
        std::fs::write(&path, json).map_err(|err| format!("failed to write {path}: {err}"))?;
        eprintln!("[fedhh-bench] wrote {path}");
    }
    Ok(ExitCode::SUCCESS)
}

fn perf_command(args: &[String]) -> Result<ExitCode, String> {
    let mut quick = false;
    let mut output = CheckedOutput::new("BENCH_perf.json", 2.0, Some(ThresholdRule::Positive));
    let mut trace_path: Option<String> = None;
    let mut overhead_gate: Option<f64> = None;
    let mut checked_opts = false;
    let mut cursor = ArgCursor::new("perf", args);
    while let Some(arg) = cursor.next_option() {
        if output.consume(arg, &mut cursor)? {
            checked_opts = true;
            continue;
        }
        match arg {
            "--quick" => quick = true,
            "--trace" => trace_path = Some(cursor.raw_value("--trace")?.to_string()),
            "--overhead-gate" => {
                let ratio: f64 = cursor.value("--overhead-gate")?;
                if ratio.is_nan() || ratio < 1.0 {
                    return Err(format!("--overhead-gate must be at least 1.0, got {ratio}"));
                }
                overhead_gate = Some(ratio);
            }
            other => return Err(cursor.unknown(other)),
        }
    }

    // The overhead gate is a standalone mode: it measures traced vs
    // untraced interleaved in this one process (the only arrangement that
    // can resolve a few-percent effect through scheduler noise) and emits
    // no report artifact, so the artifact/baseline options don't apply.
    if let Some(threshold) = overhead_gate {
        if checked_opts || trace_path.is_some() {
            return Err(
                "--overhead-gate combines only with --quick (fedhh-bench perf)".to_string(),
            );
        }
        return perf_overhead_gate(quick, threshold);
    }

    let suite = if quick { "quick" } else { "full" };
    let baseline = load_baseline(
        output.check_path.as_deref(),
        suite,
        fedhh_bench::PerfReport::from_json,
        |r: &fedhh_bench::PerfReport| r.suite.clone(),
    )?;

    eprintln!("[fedhh-bench] running the {suite} perf suite ...");
    let start = std::time::Instant::now();
    let report = match &trace_path {
        Some(path) => {
            let file = std::fs::File::create(path)
                .map_err(|err| format!("failed to create trace file {path}: {err}"))?;
            let mut writer = std::io::BufWriter::new(file);
            let report = fedhh_bench::run_suite_traced(quick, &mut writer)
                .map_err(|err| format!("perf suite failed: {err}"))?;
            writer
                .flush()
                .map_err(|err| format!("failed to write trace file {path}: {err}"))?;
            eprintln!("[fedhh-bench] wrote trace {path}");
            report
        }
        None => fedhh_bench::run_suite(quick).map_err(|err| format!("perf suite failed: {err}"))?,
    };
    eprintln!(
        "[fedhh-bench] perf suite finished in {:.1}s",
        start.elapsed().as_secs_f64()
    );
    print!("{}", report.to_table());
    output.write_report(&report.to_json())?;

    if let Some(baseline) = baseline {
        let threshold = output.threshold;
        let violations = fedhh_bench::check_report(&report, &baseline, threshold);
        if violations.is_empty() {
            eprintln!(
                "[fedhh-bench] perf check passed: {} workloads within {threshold}x of baseline",
                baseline.entries.len()
            );
        } else {
            eprintln!(
                "[fedhh-bench] perf check FAILED ({} regression(s) beyond {threshold}x):",
                violations.len()
            );
            for violation in &violations {
                eprintln!("  {violation}");
            }
            return Ok(ExitCode::FAILURE);
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// `fedhh-bench perf --overhead-gate RATIO`: the telemetry plane's ≤ N%
/// overhead contract, measured rep-interleaved so both sides share the same
/// scheduler and thermal conditions, then gated through the same
/// `check_report` machinery as ordinary perf regressions.
fn perf_overhead_gate(quick: bool, threshold: f64) -> Result<ExitCode, String> {
    let suite = if quick { "quick" } else { "full" };
    eprintln!("[fedhh-bench] measuring telemetry overhead ({suite} suite, interleaved) ...");
    let start = std::time::Instant::now();
    let (untraced, traced) = fedhh_bench::run_overhead_suite(quick)
        .map_err(|err| format!("overhead suite failed: {err}"))?;
    eprintln!(
        "[fedhh-bench] overhead suite finished in {:.1}s",
        start.elapsed().as_secs_f64()
    );
    println!("# fedhh telemetry overhead ({suite} suite)");
    println!(
        "{:<28} {:>14} {:>14} {:>8}",
        "workload", "off ns/rpt", "on ns/rpt", "ratio"
    );
    for (off, on) in untraced.entries.iter().zip(&traced.entries) {
        println!(
            "{:<28} {:>14.1} {:>14.1} {:>8.3}",
            off.name,
            off.ns_per_report,
            on.ns_per_report,
            on.ns_per_report / off.ns_per_report
        );
    }
    let violations = fedhh_bench::check_report(&traced, &untraced, threshold);
    if violations.is_empty() {
        eprintln!(
            "[fedhh-bench] telemetry overhead within {threshold}x on all {} e2e legs",
            untraced.entries.len()
        );
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!(
            "[fedhh-bench] telemetry overhead gate FAILED ({} leg(s) beyond {threshold}x):",
            violations.len()
        );
        for violation in &violations {
            eprintln!("  {violation}");
        }
        Ok(ExitCode::FAILURE)
    }
}

fn scale_command(args: &[String]) -> Result<ExitCode, String> {
    let mut options = fedhh_bench::ScaleOptions::full();
    let mut output = CheckedOutput::new("BENCH_scale.json", 0.0, None);
    let mut max_rss_mb: Option<u64> = None;
    let mut explicit_scales: Option<Vec<f64>> = None;
    let mut trace_path: Option<String> = None;
    let mut cursor = ArgCursor::new("scale", args);
    while let Some(arg) = cursor.next_option() {
        if output.consume(arg, &mut cursor)? {
            continue;
        }
        match arg {
            "--quick" => {
                // Only the sweep shape changes; every other option the
                // user set stays as parsed.
                options.user_scales = fedhh_bench::ScaleOptions::quick().user_scales;
                options.quick = true;
            }
            "--eager" => options.eager = true,
            "--dataset" => options.dataset = cursor.parsed("--dataset")?,
            "--mechanism" => options.mechanism = cursor.parsed("--mechanism")?,
            "--chunk" => match std::num::NonZeroUsize::new(cursor.value("--chunk")?) {
                Some(chunk) => options.chunk = Some(chunk),
                None => return Err("--chunk must be at least 1".to_string()),
            },
            "--parallelism" => options.parallelism = cursor.value("--parallelism")?,
            "--user-scales" => {
                let raw = cursor.raw_value("--user-scales")?;
                let parsed: Result<Vec<f64>, _> =
                    raw.split(',').map(|s| s.trim().parse::<f64>()).collect();
                match parsed {
                    Ok(scales)
                        if !scales.is_empty()
                            && scales.iter().all(|s| *s > 0.0 && s.is_finite()) =>
                    {
                        explicit_scales = Some(scales)
                    }
                    _ => return Err(format!("--user-scales got an invalid list {raw:?}")),
                }
            }
            "--max-rss-mb" => match cursor.value::<u64>("--max-rss-mb")? {
                v if v > 0 => max_rss_mb = Some(v),
                v => return Err(format!("--max-rss-mb must be positive, got {v}")),
            },
            "--trace" => trace_path = Some(cursor.raw_value("--trace")?.to_string()),
            other => return Err(cursor.unknown(other)),
        }
    }
    if let Some(scales) = explicit_scales {
        options.user_scales = scales;
    }
    if options.eager && options.chunk.is_some() {
        return Err(
            "--chunk selects the streamed pipeline's chunk size and conflicts with --eager"
                .to_string(),
        );
    }

    eprintln!(
        "[fedhh-bench] scale sweep: {} on {} ({} data plane, user scales {:?})",
        options.mechanism,
        options.dataset,
        if options.eager { "eager" } else { "streamed" },
        options.user_scales
    );
    let start = std::time::Instant::now();
    let report = match &trace_path {
        Some(path) => {
            let file = std::fs::File::create(path)
                .map_err(|err| format!("failed to create trace file {path}: {err}"))?;
            let mut writer = std::io::BufWriter::new(file);
            let report = fedhh_bench::run_scale_traced(&options, Some(&mut writer))
                .map_err(|err| format!("scale sweep failed: {err}"))?;
            writer
                .flush()
                .map_err(|err| format!("failed to write trace file {path}: {err}"))?;
            eprintln!("[fedhh-bench] wrote trace {path}");
            report
        }
        None => {
            fedhh_bench::run_scale(&options).map_err(|err| format!("scale sweep failed: {err}"))?
        }
    };
    eprintln!(
        "[fedhh-bench] scale sweep finished in {:.1}s",
        start.elapsed().as_secs_f64()
    );
    print!("{}", report.to_table());
    output.write_report(&report.to_json())?;

    if let Some(ceiling_mb) = max_rss_mb {
        match report.peak_rss_kb() {
            Some(peak_kb) => {
                let peak_mb = peak_kb as f64 / 1024.0;
                if peak_kb > ceiling_mb * 1024 {
                    eprintln!(
                        "[fedhh-bench] scale check FAILED: peak rss {peak_mb:.1} mb exceeds \
                         the {ceiling_mb} mb ceiling"
                    );
                    return Ok(ExitCode::FAILURE);
                }
                eprintln!(
                    "[fedhh-bench] scale check passed: peak rss {peak_mb:.1} mb within the \
                     {ceiling_mb} mb ceiling"
                );
            }
            None => {
                eprintln!(
                    "[fedhh-bench] scale check skipped: no rss reading on this platform \
                     (--max-rss-mb needs /proc/self/status)"
                );
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn epochs_command(args: &[String]) -> Result<ExitCode, String> {
    let mut options = fedhh_bench::EpochsOptions::full();
    let mut output = CheckedOutput::new("BENCH_epochs.json", 0.0, None);
    let mut cursor = ArgCursor::new("epochs", args);
    while let Some(arg) = cursor.next_option() {
        if output.consume(arg, &mut cursor)? {
            continue;
        }
        match arg {
            "--quick" => {
                // Only the shape changes; every other option the user set
                // stays as parsed.
                let quick = fedhh_bench::EpochsOptions::quick();
                options.quick = true;
                options.epochs = quick.epochs;
                options.k = quick.k;
                options.user_scale = quick.user_scale;
            }
            "--dataset" => options.dataset = cursor.parsed("--dataset")?,
            "--mechanism" => options.mechanism = cursor.parsed("--mechanism")?,
            "--epochs" => match cursor.value::<u32>("--epochs")? {
                v if v > 0 => options.epochs = v,
                v => return Err(format!("--epochs must be positive, got {v}")),
            },
            "--churn" => match cursor.value::<f64>("--churn")? {
                v if (0.0..=1.0).contains(&v) => options.churn_fraction = v,
                v => return Err(format!("--churn must be in [0, 1], got {v}")),
            },
            "--drift" => options.drift_stride = cursor.value("--drift")?,
            "--epsilon" => options.epsilon = cursor.value("--epsilon")?,
            "--cap" => options.epsilon_cap = Some(cursor.value("--cap")?),
            "--k" => options.k = cursor.value("--k")?,
            "--seed" => options.seed = cursor.value("--seed")?,
            "--user-scale" => options.user_scale = cursor.value("--user-scale")?,
            "--parallelism" => options.parallelism = cursor.value("--parallelism")?,
            other => return Err(cursor.unknown(other)),
        }
    }

    eprintln!(
        "[fedhh-bench] epoch sweep: {} on {} ({} epochs, churn {}, drift {}, cap {:?})",
        options.mechanism,
        options.dataset,
        options.epochs,
        options.churn_fraction,
        options.drift_stride,
        options.epsilon_cap
    );
    let start = std::time::Instant::now();
    let report =
        fedhh_bench::run_epochs(&options).map_err(|err| format!("epoch sweep failed: {err}"))?;
    eprintln!(
        "[fedhh-bench] epoch sweep finished in {:.1}s",
        start.elapsed().as_secs_f64()
    );
    print!("{}", report.to_table());
    output.write_report(&report.to_json())?;
    Ok(ExitCode::SUCCESS)
}

fn scenario_command(args: &[String]) -> Result<ExitCode, String> {
    let mut options = fedhh_bench::ScenarioOptions::default();
    let mut output = CheckedOutput::new(
        "BENCH_scenario.json",
        0.05,
        Some(ThresholdRule::NonNegative),
    );
    let mut cursor = ArgCursor::new("scenario", args);
    while let Some(arg) = cursor.next_option() {
        if output.consume(arg, &mut cursor)? {
            continue;
        }
        match arg {
            "--quick" => options.quick = true,
            "--dataset" => options.dataset = cursor.parsed("--dataset")?,
            "--fractions" => {
                let raw = cursor.raw_value("--fractions")?;
                let parsed: Result<Vec<f64>, _> =
                    raw.split(',').map(|s| s.trim().parse::<f64>()).collect();
                match parsed {
                    Ok(fractions)
                        if !fractions.is_empty()
                            && fractions.iter().all(|f| (0.0..=1.0).contains(f)) =>
                    {
                        options.fractions = fractions;
                    }
                    _ => {
                        return Err(format!(
                            "--fractions got an invalid list {raw:?} (each must be in [0, 1])"
                        ))
                    }
                }
            }
            "--seed" => options.seed = cursor.value("--seed")?,
            "--scenario-seed" => options.scenario_seed = cursor.value("--scenario-seed")?,
            other => return Err(cursor.unknown(other)),
        }
    }
    // The benign column is the determinism gate; sweep it even when the
    // user's list omits it.
    if !options.fractions.contains(&0.0) {
        options.fractions.insert(0, 0.0);
    }

    let suite = if options.quick { "quick" } else { "full" };
    let baseline = load_baseline(
        output.check_path.as_deref(),
        suite,
        fedhh_bench::ScenarioReport::from_json,
        |r: &fedhh_bench::ScenarioReport| r.suite.clone(),
    )?;

    eprintln!(
        "[fedhh-bench] scenario sweep: {} suite on {} (fractions {:?}, adversary seed {:#x})",
        suite, options.dataset, options.fractions, options.scenario_seed
    );
    let start = std::time::Instant::now();
    let report = fedhh_bench::run_scenario(&options)
        .map_err(|err| format!("scenario sweep failed: {err}"))?;
    eprintln!(
        "[fedhh-bench] scenario sweep finished in {:.1}s",
        start.elapsed().as_secs_f64()
    );
    print!("{}", report.to_table());
    output.write_report(&report.to_json())?;

    if let Some(baseline) = baseline {
        // Compare artifact against artifact: round-trip the fresh report
        // through its own JSON so both sides carry the serialized float
        // precision, making `--threshold 0` mean "byte-equal files".
        let current = fedhh_bench::ScenarioReport::from_json(&report.to_json())
            .map_err(|err| format!("internal error: fresh report does not re-parse: {err}"))?;
        let threshold = output.threshold;
        let violations = fedhh_bench::check_scenario(&current, &baseline, threshold);
        if violations.is_empty() {
            eprintln!(
                "[fedhh-bench] scenario check passed: {} cells within {threshold} of baseline",
                baseline.rows.len()
            );
        } else {
            eprintln!(
                "[fedhh-bench] scenario check FAILED ({} drifted cell(s)):",
                violations.len()
            );
            for violation in &violations {
                eprintln!("  {violation}");
            }
            return Ok(ExitCode::FAILURE);
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn topology_command(args: &[String]) -> Result<ExitCode, String> {
    let mut options = fedhh_bench::TopologyOptions::default();
    let mut output = CheckedOutput::new(
        "BENCH_topology.json",
        0.05,
        Some(ThresholdRule::NonNegative),
    );
    let mut cursor = ArgCursor::new("topology", args);
    while let Some(arg) = cursor.next_option() {
        if output.consume(arg, &mut cursor)? {
            continue;
        }
        match arg {
            "--quick" => options.quick = true,
            "--dataset" => options.dataset = cursor.parsed("--dataset")?,
            "--fanouts" => {
                let raw = cursor.raw_value("--fanouts")?;
                let parsed: Result<Vec<usize>, _> =
                    raw.split(',').map(|s| s.trim().parse::<usize>()).collect();
                match parsed {
                    Ok(fanouts) if !fanouts.is_empty() && fanouts.iter().all(|&f| f >= 2) => {
                        options.fanouts = fanouts;
                    }
                    _ => {
                        return Err(format!(
                            "--fanouts got an invalid list {raw:?} (each must be at least 2)"
                        ))
                    }
                }
            }
            "--fractions" => {
                let raw = cursor.raw_value("--fractions")?;
                let parsed: Result<Vec<f64>, _> =
                    raw.split(',').map(|s| s.trim().parse::<f64>()).collect();
                match parsed {
                    Ok(fractions)
                        if !fractions.is_empty()
                            && fractions.iter().all(|f| *f > 0.0 && *f <= 1.0) =>
                    {
                        options.fractions = fractions;
                    }
                    _ => {
                        return Err(format!(
                            "--fractions got an invalid list {raw:?} (each must be in (0, 1])"
                        ))
                    }
                }
            }
            "--seed" => options.seed = cursor.value("--seed")?,
            "--quorum-seed" => options.quorum_seed = cursor.value("--quorum-seed")?,
            other => return Err(cursor.unknown(other)),
        }
    }
    // The full-quorum column anchors the strict-savings gate; sweep it
    // even when the user's list omits it.
    if !options.fractions.contains(&1.0) {
        options.fractions.insert(0, 1.0);
    }

    let suite = if options.quick { "quick" } else { "full" };
    let baseline = load_baseline(
        output.check_path.as_deref(),
        suite,
        fedhh_bench::TopologyReport::from_json,
        |r: &fedhh_bench::TopologyReport| r.suite.clone(),
    )?;

    eprintln!(
        "[fedhh-bench] topology sweep: {} suite on {} (fanouts {:?}, fractions {:?}, \
         quorum seed {:#x})",
        suite, options.dataset, options.fanouts, options.fractions, options.quorum_seed
    );
    let start = std::time::Instant::now();
    let report = fedhh_bench::run_topology(&options)
        .map_err(|err| format!("topology sweep failed: {err}"))?;
    eprintln!(
        "[fedhh-bench] topology sweep finished in {:.1}s",
        start.elapsed().as_secs_f64()
    );
    print!("{}", report.to_table());
    output.write_report(&report.to_json())?;

    if let Some(baseline) = baseline {
        // Compare artifact against artifact: round-trip the fresh report
        // through its own JSON so both sides carry the serialized float
        // precision, making `--threshold 0` mean "byte-equal files".
        let current = fedhh_bench::TopologyReport::from_json(&report.to_json())
            .map_err(|err| format!("internal error: fresh report does not re-parse: {err}"))?;
        let threshold = output.threshold;
        let violations = fedhh_bench::check_topology(&current, &baseline, threshold);
        if violations.is_empty() {
            eprintln!(
                "[fedhh-bench] topology check passed: {} cells within {threshold} of baseline",
                baseline.rows.len()
            );
        } else {
            eprintln!(
                "[fedhh-bench] topology check FAILED ({} drifted cell(s)):",
                violations.len()
            );
            for violation in &violations {
                eprintln!("  {violation}");
            }
            return Ok(ExitCode::FAILURE);
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn trial_command(args: &[String]) -> Result<ExitCode, String> {
    let (Some(mechanism_arg), Some(dataset_arg)) = (args.first(), args.get(1)) else {
        return Err("usage: fedhh-bench trial <mechanism> <dataset> [options]".to_string());
    };

    // `FromStr` gives typed, case-insensitive parsing with real error
    // messages for free.
    let mechanism: MechanismKind = mechanism_arg.parse().map_err(|e| format!("{e}"))?;
    let dataset: DatasetKind = dataset_arg.parse().map_err(|e| format!("{e}"))?;

    let mut scale = ExperimentScale::default();
    let rest = parse_scale_options(&args[2..], &mut scale)?;
    let mut fo: Option<FoKind> = None;
    let mut epsilon = 4.0f64;
    let mut k = 10usize;
    let mut parallelism = 1usize;
    let mut dropout = 0.0f64;
    let mut transport = TransportKind::InProcess;
    let mut trace_path: Option<String> = None;
    let mut cursor = ArgCursor::new("trial", &rest);
    while let Some(arg) = cursor.next_option() {
        match arg {
            "--transport" => match cursor.raw_value("--transport")? {
                "memory" => transport = TransportKind::InProcess,
                "tcp" => transport = TransportKind::Tcp,
                other => return Err(format!("--transport must be memory or tcp, got {other:?}")),
            },
            "--parallelism" => parallelism = cursor.value("--parallelism")?,
            "--dropout" => dropout = cursor.value("--dropout")?,
            "--fo" => fo = Some(cursor.parsed("--fo")?),
            "--epsilon" => epsilon = cursor.value("--epsilon")?,
            "--k" => k = cursor.value("--k")?,
            "--trace" => trace_path = Some(cursor.raw_value("--trace")?.to_string()),
            other => return Err(cursor.unknown(other)),
        }
    }

    // Invalid values surface as typed `ProtocolError`s from the engine
    // (`--parallelism 0`, `--dropout 1.5`) rather than being clamped.
    let engine = EngineConfig::parallel(parallelism)
        .with_faults(FaultPlan::dropout(dropout, 0xFA_u64))
        .transport(transport);
    // Tracing never changes results: the sink is inert, so a traced trial
    // is bit-identical to an untraced one.
    let telemetry = if trace_path.is_some() {
        Telemetry::new()
    } else {
        Telemetry::disabled()
    };
    eprintln!(
        "[fedhh-bench] {mechanism} on {dataset} (eps = {epsilon}, k = {k}, reps = {}, \
         parallelism = {}, dropout = {dropout}, transport = {:?})",
        scale.repetitions, engine.parallelism, engine.transport
    );
    let metrics =
        averaged_engine_trial_traced(mechanism, dataset, &scale, &engine, &telemetry, |c| {
            let c = c.with_epsilon(epsilon).with_k(k);
            match fo {
                Some(fo) => c.with_fo(fo),
                None => c,
            }
        })
        .map_err(|err| format!("trial failed: {err}"))?;
    if let Some(path) = &trace_path {
        let file = std::fs::File::create(path)
            .map_err(|err| format!("failed to create trace file {path}: {err}"))?;
        let mut writer = std::io::BufWriter::new(file);
        // The repetitions use different seeds, so unlike a perf section the
        // counter is not runs × a per-run constant — but the section still
        // reconciles: counter == sum of its uplink events, exactly.
        let mark = TraceLine::Mark {
            name: format!("trial/{mechanism}"),
            runs: scale.repetitions,
        };
        writeln!(writer, "{}", mark.to_json())
            .map_err(|err| format!("failed to write trace file {path}: {err}"))?;
        telemetry
            .write_jsonl(&mut writer)
            .map_err(|err| format!("failed to write trace file {path}: {err}"))?;
        writer
            .flush()
            .map_err(|err| format!("failed to write trace file {path}: {err}"))?;
        eprintln!("[fedhh-bench] wrote trace {path}");
        print!("{}", telemetry.summary().to_table());
    }
    println!("mechanism        {mechanism}");
    println!("dataset          {dataset}");
    println!("parallelism      {}", engine.parallelism);
    if engine.transport != TransportKind::InProcess {
        println!("transport        {:?}", engine.transport);
    }
    if dropout > 0.0 {
        println!("dropout          {dropout}");
    }
    println!("F1               {:.3}", metrics.f1);
    println!("NCR              {:.3}", metrics.ncr);
    println!("avg local recall {:.3}", metrics.avg_local_recall);
    println!("uplink           {:.1} kb", metrics.uplink_kb);
    println!("server traffic   {:.1} kb", metrics.server_traffic_kb);
    println!("running time     {:.1} ms", metrics.elapsed_ms);
    Ok(ExitCode::SUCCESS)
}

fn trace_check_command(args: &[String]) -> Result<ExitCode, String> {
    let Some(trace_path) = args.first() else {
        return Err(
            "usage: fedhh-bench trace-check <trace.jsonl> [--perf BENCH_perf.json]".to_string(),
        );
    };
    let mut perf_path: Option<String> = None;
    let mut cursor = ArgCursor::new("trace-check", &args[1..]);
    while let Some(arg) = cursor.next_option() {
        match arg {
            "--perf" => perf_path = Some(cursor.raw_value("--perf")?.to_string()),
            other => return Err(cursor.unknown(other)),
        }
    }

    let text = std::fs::read_to_string(trace_path)
        .map_err(|err| format!("failed to read {trace_path}: {err}"))?;
    // Strict schema validation: any line outside the grammar names itself
    // (1-based) in the error.
    let stats = TraceStats::from_str(&text).map_err(|err| format!("{trace_path}: {err}"))?;
    stats
        .verify_reconciled()
        .map_err(|err| format!("{trace_path}: {err}"))?;
    stats
        .verify_tree_savings()
        .map_err(|err| format!("{trace_path}: {err}"))?;
    println!(
        "trace-check {trace_path}: {} lines, {} section(s), {} uplink bits, reconciled",
        stats.lines,
        stats.sections.len(),
        stats.total_uplink_bits()
    );

    if let Some(perf_path) = perf_path {
        let perf_text = std::fs::read_to_string(&perf_path)
            .map_err(|err| format!("failed to read {perf_path}: {err}"))?;
        let report = fedhh_bench::PerfReport::from_json(&perf_text)
            .map_err(|err| format!("failed to parse {perf_path}: {err}"))?;
        let mut checked = 0usize;
        for section in &stats.sections {
            if !section.name.starts_with("mech_e2e/") {
                continue;
            }
            let entry = report
                .entries
                .iter()
                .find(|e| e.name == section.name)
                .ok_or_else(|| {
                    format!(
                        "trace section {:?} has no matching entry in {perf_path}",
                        section.name
                    )
                })?;
            // Every run in a perf leg uses identical seeds, so the
            // section's counter must be exactly runs × the per-run uplink
            // the perf report recorded.
            let want = section.runs * entry.uplink_bits;
            let got = section.uplink_counter_bits();
            if got != want {
                return Err(format!(
                    "section {:?}: trace uplink.bits {got} != {} runs × {} perf uplink_bits \
                     = {want}",
                    section.name, section.runs, entry.uplink_bits
                ));
            }
            checked += 1;
        }
        if checked == 0 {
            return Err(format!(
                "{trace_path} has no mech_e2e/* sections to cross-check against {perf_path}"
            ));
        }
        println!(
            "trace-check {trace_path}: {checked} mech_e2e section(s) reconcile with {perf_path}"
        );
    }
    Ok(ExitCode::SUCCESS)
}
