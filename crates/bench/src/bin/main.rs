//! The `fedhh-bench` command-line harness.
//!
//! Run it without arguments for the synopsis (`USAGE` below): every
//! subcommand with exactly the options it accepts.
//!
//! `run <experiment|all>` regenerates the paper's tables and figures from
//! their declarations (`fedhh_bench::experiments`; `list` names them), and
//! `run all --out results/experiments.json` at the default scale rewrites
//! the committed results EXPERIMENTS.md reads.  `trial` runs one
//! mechanism/dataset/FO combination through the same repetition loop;
//! names parse case-insensitively through their `FromStr` impls (`taps`,
//! `TAPS`, `k-RR`, ...).  `--parallelism N` spreads party work over N
//! engine workers and `--transport tcp` routes every upload over a real
//! loopback socket in the `fedhh-wire` frame format (both bit-identical);
//! `--dropout F` makes a fraction F of the parties drop out.
//!
//! `run`, `perf`, `scale`, `epochs` and `scenario` each write
//! one report (`BENCH_<subcommand>.json`, `run`'s `BENCH_experiments.json`,
//! unless `--out` says otherwise) through one command body
//! (`fedhh_bench::cli::run_report`) over one report layer, described once
//! in the crate docs: a `--check BASELINE` is suite-matched before the
//! sweep starts, `--threshold 0` means "byte-equal files", and a cell
//! present on only one side fails the gate.  What each report gates is its
//! own column declaration — `run`: `mean` as a delta (default 0.05);
//! `perf`: `ns_per_report` as a ratio (default 2.0x); `scenario`: `ok`
//! and `root_frames` exactly, F1/NCR/uplink as a delta (default 0.05).
//!
//! The subcommand-specific gates: `perf --overhead-gate RATIO` is a
//! standalone mode that re-runs the mechanism end-to-end legs with traced
//! and untraced runs interleaved rep by rep in this one process (the only
//! arrangement that resolves a few-percent effect through scheduler noise)
//! and gates the traced minima against the untraced ones — CI pins the
//! telemetry plane's ≤ 3% overhead contract with `--overhead-gate 1.03`;
//! `scale --max-rss-mb N` exits non-zero when the sweep's peak resident
//! set exceeds the ceiling (CI's `scale-smoke`).  On `scale` and `epochs`,
//! `--quick` selects the reduced defaults only for what the user did not
//! set, wherever it appears on the command line.
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

use fedhh_bench::cli::{self, ArgCursor, CheckedOutput};
use fedhh_bench::experiments::{self, ExperimentRow, EXPERIMENTS};
use fedhh_bench::runner::{repeat_trials, run_trial};
use fedhh_bench::scenario::SCENARIO_SEED;
use fedhh_bench::{
    EpochPoint, EpochsOptions, ExperimentScale, PerfEntry, PerfReport, ScaleOptions, ScalePoint,
    ScenarioOptions, ScenarioRow, TrialMetrics,
};
use fedhh_datasets::{DatasetKind, FederatedDataset};
use fedhh_federated::{EngineConfig, ProtocolConfig, ScenarioPlan, TransportKind};
use fedhh_fo::FoKind;
use fedhh_mechanisms::MechanismKind;
use fedhh_telemetry::{Telemetry, TraceStats};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("list") => {
            println!("available experiments:");
            for experiment in &EXPERIMENTS {
                println!("  {:<7} {}", experiment.id, experiment.title);
            }
            return ExitCode::SUCCESS;
        }
        Some("run") => run_command(&args[1..]),
        Some("trial") => trial_command(&args[1..]),
        Some("perf") => perf_command(&args[1..]),
        Some("scale") => scale_command(&args[1..]),
        Some("epochs") => epochs_command(&args[1..]),
        Some("scenario") => scenario_command(&args[1..]),
        Some("trace-check") => trace_check_command(&args[1..]),
        Some(other) => {
            eprintln!("unknown subcommand {other:?}; valid subcommands: {SUBCOMMANDS}");
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
        None => {
            eprint!("{USAGE}");
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
const SUBCOMMANDS: &str = "list, run, trial, perf, scale, epochs, scenario, trace-check";

/// The synopsis: every subcommand with exactly the options it accepts.
const USAGE: &str = "\
usage: fedhh-bench <list|run|trial|perf|scale|epochs|scenario|trace-check> [args] [options]
  list
  run <experiment|all> [--quick] [--reps N] [--user-scale F] [--out PATH]
      [--check BASELINE] [--threshold F]
  trial <mechanism> <dataset> [--fo KIND] [--epsilon F] [--k N] [--quick] [--reps N]
        [--user-scale F] [--parallelism N] [--dropout F] [--transport {memory,tcp}]
        [--trace PATH]
  perf [--quick] [--out PATH] [--check BASELINE] [--threshold F] [--trace PATH]
  perf --overhead-gate RATIO [--quick]
  scale [--quick] [--dataset KIND] [--mechanism KIND] [--parallelism N]
        [--user-scales F,F,...] [--out PATH] [--max-rss-mb N] [--trace PATH]
  epochs [--quick] [--dataset KIND] [--mechanism KIND] [--epochs N] [--churn F]
         [--drift N] [--epsilon F] [--cap F] [--k N] [--seed N] [--user-scale F]
         [--parallelism N] [--out PATH]
  scenario [--quick] [--dataset KIND] [--fractions F,F,...] [--fanouts N,N,...]
           [--quorums F,F,...] [--seed N] [--out PATH] [--check BASELINE]
           [--threshold F]
  trace-check <trace.jsonl> [--perf BENCH_perf.json]
";

/// Consumes one of the scale options `run` and `trial` share; `Ok(false)`
/// hands the option back to the caller's match.
fn scale_option(
    option: &str,
    cursor: &mut ArgCursor<'_>,
    scale: &mut ExperimentScale,
) -> Result<bool, String> {
    match option {
        "--quick" => *scale = ExperimentScale::quick(),
        "--reps" => scale.repetitions = cursor.value_where(option, |v| *v > 0, "be at least 1")?,
        "--user-scale" => scale.user_scale = cursor.user_scale(option)?,
        _ => return Ok(false),
    }
    Ok(true)
}

/// `quick` / `full`: the suite flavour a report records and a `--check`
/// baseline must match.
fn suite_name(quick: bool) -> &'static str {
    if quick {
        "quick"
    } else {
        "full"
    }
}

/// The exit status of a gated command.
fn exit_code(passed: bool) -> ExitCode {
    if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_command(args: &[String]) -> Result<ExitCode, String> {
    let Some(selection) = args.first() else {
        return Err("usage: fedhh-bench run <experiment|all> [options]".to_string());
    };
    experiments::select(selection)?;
    let mut scale = ExperimentScale::default();
    let mut output = CheckedOutput::new::<ExperimentRow>(0.05);
    let mut cursor = ArgCursor::new("fedhh-bench run", &args[1..]);
    while let Some(arg) = cursor.next_option() {
        let known =
            output.consume(arg, &mut cursor)? || scale_option(arg, &mut cursor, &mut scale)?;
        if !known {
            return Err(cursor.unknown(arg));
        }
    }

    // The suite names the selection and the scale: a baseline recorded on
    // another of either is refused before the sweep starts.
    let suite = experiments::suite(selection, &scale);
    let run = || experiments::run_experiments(selection, &scale);
    let passed =
        cli::run_report::<ExperimentRow>(&output, &suite, "paper evaluation", run)?.is_some();
    Ok(exit_code(passed))
}

fn perf_command(args: &[String]) -> Result<ExitCode, String> {
    let mut quick = false;
    let mut output = CheckedOutput::new::<PerfEntry>(2.0);
    let mut trace_path: Option<String> = None;
    let mut overhead_gate: Option<f64> = None;
    let mut checked_opts = false;
    let mut cursor = ArgCursor::new("fedhh-bench perf", args);
    while let Some(arg) = cursor.next_option() {
        if output.consume(arg, &mut cursor)? {
            checked_opts = true;
            continue;
        }
        match arg {
            "--quick" => quick = true,
            "--trace" => trace_path = Some(cursor.raw_value("--trace")?.to_string()),
            "--overhead-gate" => {
                let at_least_one = |ratio: &f64| *ratio >= 1.0;
                overhead_gate =
                    Some(cursor.value_where("--overhead-gate", at_least_one, "be at least 1.0")?);
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

    let suite = suite_name(quick);
    eprintln!("[fedhh-bench] running the {suite} perf suite ...");
    let run = || match &trace_path {
        Some(path) => cli::write_trace(path, |writer| fedhh_bench::run_suite_traced(quick, writer)),
        None => fedhh_bench::run_suite(quick),
    };
    let passed = cli::run_report::<PerfEntry>(&output, suite, "perf suite", run)?.is_some();
    Ok(exit_code(passed))
}

/// `fedhh-bench perf --overhead-gate RATIO`: the telemetry plane's ≤ N%
/// overhead contract, measured rep-interleaved so both sides share the same
/// scheduler and thermal conditions, then gated through the same
/// `check` as ordinary perf regressions.
fn perf_overhead_gate(quick: bool, threshold: f64) -> Result<ExitCode, String> {
    let suite = suite_name(quick);
    eprintln!("[fedhh-bench] measuring telemetry overhead ({suite} suite, interleaved) ...");
    let start = std::time::Instant::now();
    let (untraced, traced) = fedhh_bench::run_overhead_suite(quick)
        .map_err(|err| format!("overhead suite failed: {err}"))?;
    eprintln!(
        "[fedhh-bench] overhead suite finished in {:.1}s",
        start.elapsed().as_secs_f64()
    );
    print!("{}", fedhh_bench::perf::overhead_table(&untraced, &traced));
    let violations = fedhh_bench::check(&traced.entries, &untraced.entries, threshold);
    let legs = untraced.entries.len();
    let passed = cli::gate_passed("telemetry overhead", legs, threshold, &violations);
    Ok(exit_code(passed))
}

fn scale_command(args: &[String]) -> Result<ExitCode, String> {
    let mut options = ScaleOptions::full();
    let mut output = CheckedOutput::new::<ScalePoint>(0.0);
    let mut max_rss_mb: Option<u64> = None;
    let mut explicit_scales: Option<Vec<f64>> = None;
    let mut trace_path: Option<String> = None;
    let mut cursor = ArgCursor::new("fedhh-bench scale", args);
    while let Some(arg) = cursor.next_option() {
        if output.consume(arg, &mut cursor)? {
            continue;
        }
        match arg {
            "--quick" => options.quick = true,
            "--dataset" => options.dataset = cursor.parsed("--dataset")?,
            "--mechanism" => options.mechanism = cursor.parsed("--mechanism")?,
            "--parallelism" => options.parallelism = cursor.value("--parallelism")?,
            "--user-scales" => explicit_scales = Some(cursor.user_scales("--user-scales")?),
            "--max-rss-mb" => {
                max_rss_mb = Some(cursor.value_where("--max-rss-mb", |v| *v > 0, "be positive")?)
            }
            "--trace" => trace_path = Some(cursor.raw_value("--trace")?.to_string()),
            other => return Err(cursor.unknown(other)),
        }
    }
    // `--quick` only reshapes the sweep the user did not spell out.
    if options.quick {
        options.user_scales = ScaleOptions::quick().user_scales;
    }
    if let Some(scales) = explicit_scales {
        options.user_scales = scales;
    }

    eprintln!(
        "[fedhh-bench] scale sweep: {} on {} (user scales {:?})",
        options.mechanism, options.dataset, options.user_scales
    );
    let run = || match &trace_path {
        Some(path) => cli::write_trace(path, |writer| {
            fedhh_bench::run_scale_traced(&options, Some(writer))
        }),
        None => fedhh_bench::run_scale(&options),
    };
    let suite = suite_name(options.quick);
    let Some(report) = cli::run_report::<ScalePoint>(&output, suite, "scale sweep", run)? else {
        return Ok(ExitCode::FAILURE);
    };

    let (Some(ceiling_mb), peak) = (max_rss_mb, report.peak_rss_kb()) else {
        return Ok(ExitCode::SUCCESS);
    };
    let Some(peak_kb) = peak else {
        eprintln!(
            "[fedhh-bench] scale check skipped: no rss reading on this platform \
             (--max-rss-mb needs /proc/self/status)"
        );
        return Ok(ExitCode::SUCCESS);
    };
    let peak_mb = peak_kb as f64 / 1024.0;
    let within = peak_kb <= ceiling_mb * 1024;
    if within {
        eprintln!(
            "[fedhh-bench] scale check passed: peak rss {peak_mb:.1} mb within the \
             {ceiling_mb} mb ceiling"
        );
    } else {
        eprintln!(
            "[fedhh-bench] scale check FAILED: peak rss {peak_mb:.1} mb exceeds the \
             {ceiling_mb} mb ceiling"
        );
    }
    Ok(exit_code(within))
}

fn epochs_command(args: &[String]) -> Result<ExitCode, String> {
    let mut output = CheckedOutput::new::<EpochPoint>(0.0);
    let parse = |mut options: EpochsOptions| {
        let mut cursor = ArgCursor::new("fedhh-bench epochs", args);
        while let Some(arg) = cursor.next_option() {
            let known = output.consume(arg, &mut cursor)?
                || cli::epoch_option(arg, &mut cursor, &mut options)?;
            if !known {
                return Err(cursor.unknown(arg));
            }
        }
        Ok(options)
    };
    let options = cli::parse_with_quick(EpochsOptions::full(), EpochsOptions::quick(), parse)?;

    eprintln!(
        "[fedhh-bench] epoch sweep: {} on {} ({} epochs, churn {}, drift {}, cap {:?})",
        options.mechanism,
        options.dataset,
        options.epochs,
        options.churn_fraction,
        options.drift_stride,
        options.epsilon_cap
    );
    let run = || fedhh_bench::run_epochs(&options);
    let suite = suite_name(options.quick);
    let passed = cli::run_report::<EpochPoint>(&output, suite, "epoch sweep", run)?.is_some();
    Ok(exit_code(passed))
}

fn scenario_command(args: &[String]) -> Result<ExitCode, String> {
    let mut options = ScenarioOptions::default();
    let mut output = CheckedOutput::new::<ScenarioRow>(0.05);
    let mut cursor = ArgCursor::new("fedhh-bench scenario", args);
    while let Some(arg) = cursor.next_option() {
        if output.consume(arg, &mut cursor)? {
            continue;
        }
        match arg {
            "--quick" => options.quick = true,
            "--dataset" => options.dataset = cursor.parsed("--dataset")?,
            // The plan rules (adversary fraction in [0, 1], fanout >= 2,
            // quorum in (0, 1]) are checked once, by
            // `ScenarioPlan::validate` inside the sweep.
            "--fractions" => {
                options.fractions = cursor.list("--fractions", |_| true, "be a number")?
            }
            "--fanouts" => options.fanouts = cursor.list("--fanouts", |_| true, "be an integer")?,
            "--quorums" => options.quorums = cursor.list("--quorums", |_| true, "be a number")?,
            "--seed" => options.seed = cursor.value("--seed")?,
            other => return Err(cursor.unknown(other)),
        }
    }
    // The fraction-0 column and the full-quorum column anchor the in-run
    // gates; sweep them even when the user's lists omit them.
    if !options.fractions.contains(&0.0) {
        options.fractions.insert(0, 0.0);
    }
    if !options.quorums.contains(&1.0) {
        options.quorums.insert(0, 1.0);
    }

    let suite = suite_name(options.quick);
    eprintln!(
        "[fedhh-bench] scenario sweep: {} suite on {} (fractions {:?}, fanouts {:?}, \
         quorums {:?})",
        suite, options.dataset, options.fractions, options.fanouts, options.quorums
    );
    let run = || fedhh_bench::run_scenario(&options);
    let passed = cli::run_report::<ScenarioRow>(&output, suite, "scenario sweep", run)?.is_some();
    Ok(exit_code(passed))
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
    let mut fo: Option<FoKind> = None;
    let mut epsilon = 4.0f64;
    let mut k = 10usize;
    let mut parallelism = 1usize;
    let mut dropout = 0.0f64;
    let mut transport = TransportKind::InProcess;
    let mut trace_path: Option<String> = None;
    let mut cursor = ArgCursor::new("fedhh-bench trial", &args[2..]);
    while let Some(arg) = cursor.next_option() {
        if scale_option(arg, &mut cursor, &mut scale)? {
            continue;
        }
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
        .with_scenario(ScenarioPlan {
            dropout,
            seed: SCENARIO_SEED,
            ..ScenarioPlan::benign()
        })
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
    let mut protocol = scale.protocol_config(0).with_epsilon(epsilon).with_k(k);
    protocol.fo = fo.unwrap_or(protocol.fo);
    let built = mechanism.build();
    let trial = |data: &FederatedDataset, config: &ProtocolConfig| {
        run_trial(built.as_ref(), data, config, &engine, &telemetry)
    };
    let (reps, data) = (scale.repetitions, scale.dataset_config(0));
    let trials = repeat_trials(reps, dataset, data, protocol, trial)
        .map_err(|err| format!("trial failed: {err}"))?;
    let metrics = TrialMetrics::mean(&trials);
    if let Some(path) = &trace_path {
        // The repetitions use different seeds, so unlike a perf section the
        // counter is not runs × a per-run constant — but the section still
        // reconciles: counter == sum of its uplink events, exactly.
        let section = format!("trial/{mechanism}");
        cli::write_trace_section(path, section, scale.repetitions, &telemetry)?;
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
    let mut cursor = ArgCursor::new("fedhh-bench trace-check", &args[1..]);
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
        let report = PerfReport::from_json(&perf_text)
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
