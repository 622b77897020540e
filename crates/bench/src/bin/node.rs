//! The `fedhh-node` process harness: one federation, N real OS processes.
//!
//! Three modes — `coordinator`, `party`, `service`; run it without
//! arguments for the synopsis (`USAGE` below).
//!
//! ## Machine-readable line grammar
//!
//! stdout carries **only** machine-readable lines; every human-readable
//! note goes to stderr.  Each line is emitted through one helper
//! ([`emit`]) that flushes stdout immediately, so a script reading the
//! pipe never races a truncated line.  The complete grammar:
//!
//! ```text
//! LISTEN <host:port>                      coordinator is accepting parties
//! TOPK <value>...                         discovered heavy hitters, ranked
//! COUNT <value> <f64-bits>                estimate, IEEE-754 bits (sorted)
//! UPLINK <bits>                           total party→coordinator traffic
//! DOWNLINK <bits>                         total coordinator→party traffic
//! CHECK bit-identical to the in-memory engine     (--check-inmemory only)
//! EPOCH <e> enrolled=<n> refused=<n> uplink=<bits> topk=<v,v,...>
//! FINAL <e> TOPK <value>...               per-epoch summary, stable order
//! FINAL <e> COUNT <code> <f64-bits>
//! FINAL <e> UPLINK <bits> DOWNLINK <bits> ENROLLED <n> REFUSED <n>
//! ```
//!
//! The coordinator binds its listener first and prints a machine-readable
//! `LISTEN <addr>` line, so scripts can spawn the party processes against
//! the advertised port.  Parties need nothing but the address: the
//! Hello/Welcome handshake ships the full run description (protocol
//! configuration, scenario plan — deployment faults plus any adversary
//! model — party partition, mechanism + dataset spec) in the `fedhh-wire`
//! format, and every process rebuilds the same dataset deterministically
//! from it.  `--scenario NAME:FRACTION` (names: `report-flip`,
//! `report-invert`, `input-poison`, `sybil`, `corrupt-frames`) arms an
//! adversary on the coordinator; the welcome ships it to every party, so
//! the whole federation replays the same deterministic attack.
//!
//! `--topology tree:FANOUT` arms the aggregation tree: party
//! processes are grouped into cohorts of FANOUT consecutive ranks, each
//! cohort's first rank plays sub-aggregator (it merges the cohort's
//! reports into one lossless frame), and the coordinator receives one
//! uplink frame per cohort instead of one per rank.  The tree has one
//! level: `tree:FANOUT:1` is the same tree, and any other depth is
//! refused (a deeper tree is a wider one).  `--quorum FRACTION`
//! closes every round at the configured response fraction; which parties
//! count as on time is a pure function of the plan seed and round number,
//! never of socket timing, so a quorum run is reproducible bit-for-bit.
//! Both axes travel in the welcome's scenario plan, next to the faults and
//! the adversary, and leave the result bit-identical to the flat
//! full-quorum star only when `--quorum 1.0` (partial quorums change which
//! reports exist).  Every draw of the plan (dropout, stragglers, adversary,
//! quorum) uses one seed, `fedhh_bench::scenario::SCENARIO_SEED`, the seed
//! of every `fedhh-bench scenario` cell, so a node run reproduces the
//! sweep's cell.  Each party runs the plan its welcome ships and nothing
//! else.
//!
//! When the run finishes, the coordinator prints the result as stable
//! machine-readable lines (`TOPK`, `COUNT`, `UPLINK`, `DOWNLINK`).  With
//! `--check-inmemory` it then re-runs the mechanism in-process at the same
//! seed and exits non-zero unless the distributed output is bit-identical
//! — the net-smoke gate in CI is exactly this flag.
//!
//! `service` runs the persistent epoch service: successive discoveries over
//! a churning, drifting population with a per-user lifetime budget ledger
//! (see `fedhh_federated::epoch`).  After every completed epoch it prints a
//! live `EPOCH <e> ...` line and — when `--checkpoint PATH` is given —
//! atomically writes the full service state to `PATH`.  Killing the
//! process at any point and restarting with `--resume PATH` (same flags)
//! continues from the last completed epoch and produces `FINAL` lines
//! bit-identical to an uninterrupted run — the `epoch-smoke` gate in CI
//! SIGKILLs the service mid-run and asserts exactly that.
//! `--epoch-delay-ms N` sleeps between epochs so harnesses can time the
//! kill reliably.
//!
//! `--telemetry PATH` attaches the telemetry plane (spans, uplink funnel,
//! metric registry — see `fedhh_telemetry`) and writes a schema-versioned
//! JSONL trace to PATH when the run completes, plus a human summary table
//! on stderr.  Telemetry is inert: a run with a sink attached prints
//! machine-readable lines bit-identical to an unobserved run's.

use fedhh_bench::cli::{self, ArgCursor};
use fedhh_bench::scenario::SCENARIO_SEED;
use fedhh_bench::{adversary_by_name, partition_parties, ExperimentScale, NodeRunSpec};
use fedhh_datasets::DatasetKind;
use fedhh_federated::{
    connect_party_with_timeout, AdversaryModel, EngineConfig, NodeServer, NodeWelcome,
    ScenarioPlan, SessionLink, Topology,
};
use fedhh_fo::FoKind;
use fedhh_mechanisms::{MechanismKind, MechanismOutput, Run};
use fedhh_telemetry::Telemetry;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::Duration;

/// Prints one machine-readable stdout line and flushes it immediately.
///
/// Every stdout line of every mode goes through here — the module docs
/// define the grammar — so scripts reading the pipe see each line the
/// moment it is complete and never race a truncated one.
fn emit(line: std::fmt::Arguments<'_>) {
    let mut stdout = std::io::stdout().lock();
    let _ = writeln!(stdout, "{line}");
    let _ = stdout.flush();
}

/// Writes the run's telemetry as one mark-delimited JSONL trace section
/// to `path` and prints the human summary table on stderr (stdout stays
/// machine-readable).
fn write_trace(path: &str, section: String, telemetry: &Telemetry) -> Result<(), String> {
    cli::write_trace_section(path, section, 1, telemetry)?;
    eprint!("{}", telemetry.summary().to_table());
    Ok(())
}

/// The telemetry handle for a mode: recording when `--telemetry PATH` was
/// given, disabled (and free) otherwise.
fn telemetry_for(path: &Option<String>) -> Telemetry {
    if path.is_some() {
        Telemetry::new()
    } else {
        Telemetry::disabled()
    }
}

/// The synopsis: every mode with exactly the options it accepts.
const USAGE: &str = "\
usage: fedhh-node <coordinator|party|service> [options]
  coordinator --mechanism <name> --dataset <name> --parties N [--listen HOST:PORT]
              [--seed S] [--quick] [--user-scale F] [--k N] [--epsilon F] [--fo KIND]
              [--parallelism N] [--dropout F] [--stragglers]
              [--scenario NAME:FRACTION]
              [--topology flat|tree:FANOUT] [--quorum FRACTION]
              [--timeout-secs N] [--check-inmemory] [--telemetry PATH]
  party --connect HOST:PORT [--timeout-secs N] [--telemetry PATH]
  service --mechanism <name> --dataset <name> [--epochs N] [--churn F] [--drift N]
          [--warm {cold,previous}] [--epsilon F] [--cap F] [--k N] [--seed S]
          [--quick] [--user-scale F] [--parallelism N] [--checkpoint PATH]
          [--resume PATH] [--epoch-delay-ms N] [--telemetry PATH]
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("coordinator") => coordinator_command(&args[1..]),
        Some("party") => party_command(&args[1..]),
        Some("service") => service_command(&args[1..]),
        _ => {
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    result.unwrap_or_else(|err| {
        eprintln!("{err}");
        ExitCode::FAILURE
    })
}

struct CoordinatorOptions {
    mechanism: MechanismKind,
    dataset: DatasetKind,
    parties: usize,
    listen: String,
    seed: u64,
    quick: bool,
    user_scale: Option<f64>,
    k: usize,
    epsilon: f64,
    fo: Option<FoKind>,
    parallelism: usize,
    /// The round policy the welcome ships: `--dropout`, `--stragglers`,
    /// `--scenario`, `--topology` and `--quorum` each set their part.
    plan: ScenarioPlan,
    timeout: Option<Duration>,
    check_inmemory: bool,
    telemetry_path: Option<String>,
}

/// Parses a `--scenario` argument: `NAME:FRACTION`, where `NAME` is one
/// of `report-flip`, `report-invert`, `input-poison`, `sybil` or
/// `corrupt-frames`, in any case.  The poison/Sybil targets are the fixed
/// values the `fedhh-bench scenario` sweep uses, so a node run reproduces
/// the same attack the sweep measures.  The fraction's range is a plan
/// rule, checked with the rest of the plan.
fn parse_scenario_spec(raw: &str) -> Result<AdversaryModel, String> {
    let (name, fraction) = raw
        .split_once(':')
        .ok_or(format!("--scenario {raw:?} is missing a fraction"))?;
    let fraction = fraction
        .parse()
        .map_err(|_| format!("--scenario {raw:?} has an invalid fraction"))?;
    adversary_by_name(name, fraction).ok_or_else(|| {
        format!(
            "--scenario got unknown adversary {name:?} (valid: {})",
            fedhh_bench::scenario::ADVERSARIES.join(", ")
        )
    })
}

fn parse_coordinator_options(args: &[String]) -> Result<CoordinatorOptions, String> {
    let mut mechanism: Option<MechanismKind> = None;
    let mut dataset: Option<DatasetKind> = None;
    let mut options = CoordinatorOptions {
        mechanism: MechanismKind::Taps,
        dataset: DatasetKind::Ycm,
        parties: 1,
        listen: "127.0.0.1:0".to_string(),
        seed: 42,
        quick: false,
        user_scale: None,
        k: 10,
        epsilon: 4.0,
        fo: None,
        parallelism: 1,
        plan: ScenarioPlan {
            seed: SCENARIO_SEED,
            ..ScenarioPlan::benign()
        },
        timeout: Some(Duration::from_secs(120)),
        check_inmemory: false,
        telemetry_path: None,
    };
    let mut cursor = ArgCursor::new("fedhh-node coordinator", args);
    while let Some(arg) = cursor.next_option() {
        match arg {
            "--mechanism" => mechanism = Some(cursor.parsed(arg)?),
            "--dataset" => dataset = Some(cursor.parsed(arg)?),
            "--parties" => {
                options.parties = cursor.value_where(arg, |n| *n > 0, "be at least 1")?
            }
            "--listen" => options.listen = cursor.raw_value(arg)?.to_string(),
            "--seed" => options.seed = cursor.value(arg)?,
            "--quick" => options.quick = true,
            "--user-scale" => options.user_scale = Some(cursor.user_scale(arg)?),
            "--k" => options.k = cursor.value(arg)?,
            "--epsilon" => options.epsilon = cursor.value(arg)?,
            "--fo" => options.fo = Some(cursor.parsed(arg)?),
            "--parallelism" => options.parallelism = cursor.value(arg)?,
            "--dropout" => options.plan.dropout = cursor.value(arg)?,
            "--stragglers" => options.plan.stragglers = true,
            "--scenario" => options.plan.adversary = parse_scenario_spec(cursor.raw_value(arg)?)?,
            "--topology" => {
                let raw = cursor.raw_value(arg)?;
                options.plan.topology = Topology::parse(raw)
                    .ok_or_else(|| format!("--topology got an invalid spec {raw:?}"))?;
            }
            "--quorum" => options.plan.quorum = cursor.value(arg)?,
            "--timeout-secs" => options.timeout = timeout_secs(cursor.value(arg)?),
            "--check-inmemory" => options.check_inmemory = true,
            "--telemetry" => options.telemetry_path = Some(cursor.raw_value(arg)?.to_string()),
            other => return Err(cursor.unknown(other)),
        }
    }
    // The one check of the plan the welcome ships: every rule of every
    // part (fanout, quorum, fractions) lives in `ScenarioPlan::validate`.
    options
        .plan
        .validate()
        .map_err(|err| format!("[fedhh-node] invalid scenario: {err}"))?;
    options.mechanism = mechanism.ok_or("--mechanism is required")?;
    options.dataset = dataset.ok_or("--dataset is required")?;
    Ok(options)
}

/// `--timeout-secs N`: `0` disables the socket timeout.
fn timeout_secs(secs: u64) -> Option<Duration> {
    (secs > 0).then(|| Duration::from_secs(secs))
}

/// The scale/config derivation shared with `fedhh-bench trial`: the run
/// seed drives both the dataset generation and the protocol randomness.
fn scale_of(options: &CoordinatorOptions) -> ExperimentScale {
    let mut scale = if options.quick {
        ExperimentScale::quick()
    } else {
        ExperimentScale::default()
    };
    if let Some(user_scale) = options.user_scale {
        scale.user_scale = user_scale;
    }
    scale
}

fn print_result(output: &MechanismOutput) {
    let topk: Vec<String> = output.heavy_hitters.iter().map(u64::to_string).collect();
    emit(format_args!("TOPK {}", topk.join(" ")));
    let mut counts: Vec<(u64, u64)> = output
        .counts
        .iter()
        .map(|(value, count)| (*value, count.to_bits()))
        .collect();
    counts.sort_unstable();
    for (value, bits) in counts {
        emit(format_args!("COUNT {value} {bits}"));
    }
    emit(format_args!("UPLINK {}", output.comm.total_uplink_bits()));
    emit(format_args!(
        "DOWNLINK {}",
        output.comm.total_downlink_bits()
    ));
}

/// The bit-exact comparison used by `--check-inmemory`: top-k (order
/// included), counts (to the f64 bit) and uplink traffic.
fn outputs_match(a: &MechanismOutput, b: &MechanismOutput) -> bool {
    let counts = |output: &MechanismOutput| {
        let mut counts: Vec<(u64, u64)> = output
            .counts
            .iter()
            .map(|(value, count)| (*value, count.to_bits()))
            .collect();
        counts.sort_unstable();
        counts
    };
    a.heavy_hitters == b.heavy_hitters
        && counts(a) == counts(b)
        && a.comm.total_uplink_bits() == b.comm.total_uplink_bits()
        && a.comm.total_downlink_bits() == b.comm.total_downlink_bits()
}

fn coordinator_command(args: &[String]) -> Result<ExitCode, String> {
    let options = parse_coordinator_options(args)?;
    let scenario = options.plan;
    let scale = scale_of(&options);
    let spec = NodeRunSpec {
        mechanism: options.mechanism,
        dataset: options.dataset,
        dataset_config: scale.dataset_config(options.seed),
    };
    let dataset = spec.build_dataset();
    let mut config = scale
        .protocol_config(options.seed ^ 0xBEEF)
        .with_epsilon(options.epsilon)
        .with_k(options.k);
    if let Some(fo) = options.fo {
        config = config.with_fo(fo);
    }
    let engine = EngineConfig::parallel(options.parallelism).with_scenario(scenario);
    let welcome = NodeWelcome {
        config,
        scenario,
        parallelism: options.parallelism,
        assignments: partition_parties(dataset.party_count(), options.parties),
        app: spec.to_app_bytes(),
    };

    let server = NodeServer::bind(options.listen.as_str())
        .map_err(|err| format!("[fedhh-node] failed to bind {}: {err}", options.listen))?
        .with_timeout(options.timeout);
    let addr = server
        .local_addr()
        .map_err(|err| format!("[fedhh-node] failed to read bound address: {err}"))?;
    // The machine-readable line scripts wait for before spawning the party
    // processes.
    emit(format_args!("LISTEN {addr}"));
    eprintln!(
        "[fedhh-node] coordinator: {} on {} ({} parties over {} processes, seed {})",
        options.mechanism,
        options.dataset,
        dataset.party_count(),
        options.parties,
        options.seed
    );
    let link = server
        .accept_parties(&welcome)
        .map_err(|err| format!("[fedhh-node] handshake failed: {err}"))?;

    // Inert by construction: the traced run's machine-readable lines are
    // bit-identical to an unobserved run's (and `--check-inmemory` runs
    // its untraced reference against this output to prove it).
    let telemetry = telemetry_for(&options.telemetry_path);
    let output = Run::mechanism(options.mechanism)
        .dataset(&dataset)
        .config(config)
        .engine(engine)
        .link(SessionLink::Coordinator(link))
        .telemetry(&telemetry)
        .execute()
        .map_err(|err| format!("[fedhh-node] distributed run failed: {err}"))?;
    print_result(&output);
    if let Some(path) = &options.telemetry_path {
        write_trace(path, format!("node/{}", options.mechanism), &telemetry)?;
    }

    if options.check_inmemory {
        let reference = Run::mechanism(options.mechanism)
            .dataset(&dataset)
            .config(config)
            .engine(engine)
            .execute()
            .map_err(|err| format!("[fedhh-node] in-memory reference run failed: {err}"))?;
        if !outputs_match(&output, &reference) {
            return Err(format!(
                "[fedhh-node] MISMATCH vs the in-memory engine:\n  \
                 distributed: topk {:?}, uplink {}\n  in-memory:   topk {:?}, uplink {}",
                output.heavy_hitters,
                output.comm.total_uplink_bits(),
                reference.heavy_hitters,
                reference.comm.total_uplink_bits()
            ));
        }
        emit(format_args!("CHECK bit-identical to the in-memory engine"));
    }
    Ok(ExitCode::SUCCESS)
}

fn service_command(args: &[String]) -> Result<ExitCode, String> {
    use fedhh_bench::{EpochsOptions, MechanismExecutor};
    use fedhh_federated::{checkpoint, EpochRunner, WarmStart};

    let mut warm = WarmStart::Previous;
    let mut checkpoint_path: Option<String> = None;
    let mut resume_path: Option<String> = None;
    let mut epoch_delay_ms: u64 = 0;
    let mut telemetry_path: Option<String> = None;
    let parse = |mut options: EpochsOptions| {
        let mut cursor = ArgCursor::new("fedhh-node service", args);
        while let Some(arg) = cursor.next_option() {
            if cli::epoch_option(arg, &mut cursor, &mut options)? {
                continue;
            }
            match arg {
                "--warm" => {
                    let raw = cursor.raw_value(arg)?;
                    warm = WarmStart::parse(raw)
                        .ok_or(format!("--warm must be cold or previous, got {raw:?}"))?;
                }
                "--checkpoint" => checkpoint_path = Some(cursor.raw_value(arg)?.to_string()),
                "--resume" => resume_path = Some(cursor.raw_value(arg)?.to_string()),
                "--epoch-delay-ms" => epoch_delay_ms = cursor.value(arg)?,
                "--telemetry" => telemetry_path = Some(cursor.raw_value(arg)?.to_string()),
                other => return Err(cursor.unknown(other)),
            }
        }
        Ok(options)
    };
    // A service runs as long as it is told to: `--quick` shrinks the
    // protocol shape and the population, never the epoch count.
    let full = EpochsOptions::full();
    let quick = EpochsOptions {
        epochs: full.epochs,
        ..EpochsOptions::quick()
    };
    let options = cli::parse_with_quick(full, quick, parse)?;
    if ["--mechanism", "--dataset"]
        .iter()
        .any(|required| !args.iter().any(|arg| arg == required))
    {
        return Err("--mechanism and --dataset are required".to_string());
    }

    // The spec is derived from the flags alone; a checkpoint written under
    // different flags carries different spec bytes and is refused.
    let spec = options.spec(warm);
    let spec_bytes = spec.to_spec_bytes();
    let epoch_config = spec.epoch_config();
    // A plan no population can evolve under is refused here, before the
    // base dataset is built or a checkpoint read.
    let mut exec = MechanismExecutor::new(spec)
        .map_err(|err| format!("[fedhh-node] {err}"))?
        .with_engine(EngineConfig::parallel(options.parallelism.max(1)));
    let mut runner = match &resume_path {
        Some(path) => {
            let ckpt = checkpoint::load(std::path::Path::new(path))
                .map_err(|err| format!("[fedhh-node] failed to load checkpoint {path}: {err}"))?;
            let runner = EpochRunner::resume(epoch_config, spec_bytes, ckpt)
                .map_err(|err| format!("[fedhh-node] cannot resume from {path}: {err}"))?;
            eprintln!(
                "[fedhh-node] resumed from {path}: {} of {} epochs already complete",
                runner.state().next_epoch,
                epoch_config.epochs
            );
            runner
        }
        None => EpochRunner::new(epoch_config, spec_bytes),
    };
    if let Some(path) = &checkpoint_path {
        runner.checkpoint_to(path);
    }
    // Each epoch runs under an `epoch` span; checkpoint writes land in the
    // `checkpoint.write` span and the ledger's enrolled/refused gauges.
    let telemetry = telemetry_for(&telemetry_path);
    runner.set_telemetry(&telemetry);

    eprintln!(
        "[fedhh-node] service: {} on {} ({} epochs, churn {}, drift {}, warm {}, cap {:?})",
        options.mechanism,
        options.dataset,
        options.epochs,
        options.churn_fraction,
        options.drift_stride,
        warm.name(),
        options.epsilon_cap
    );
    while let Some(record) = runner
        .step(&mut exec)
        .map_err(|err| format!("[fedhh-node] service failed: {err}"))?
    {
        // Live progress, one line per completed epoch.
        emit(format_args!(
            "EPOCH {} enrolled={} refused={} uplink={} topk={}",
            record.epoch,
            record.enrolled_users,
            record.refused_users,
            record.uplink_bits,
            record
                .heavy_hitters
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(",")
        ));
        if epoch_delay_ms > 0 && !runner.is_complete() {
            std::thread::sleep(Duration::from_millis(epoch_delay_ms));
        }
    }

    // The stable machine-readable summary the epoch-smoke gate compares
    // bit-for-bit between an interrupted+resumed run and a reference run.
    for record in runner.records() {
        let topk: Vec<String> = record.heavy_hitters.iter().map(u64::to_string).collect();
        emit(format_args!(
            "FINAL {} TOPK {}",
            record.epoch,
            topk.join(" ")
        ));
        for (code, bits) in &record.count_bits {
            emit(format_args!("FINAL {} COUNT {code} {bits}", record.epoch));
        }
        emit(format_args!(
            "FINAL {} UPLINK {} DOWNLINK {} ENROLLED {} REFUSED {}",
            record.epoch,
            record.uplink_bits,
            record.downlink_bits,
            record.enrolled_users,
            record.refused_users
        ));
    }
    if let Some(path) = &telemetry_path {
        write_trace(path, format!("service/{}", options.mechanism), &telemetry)?;
    }
    Ok(ExitCode::SUCCESS)
}

fn party_command(args: &[String]) -> Result<ExitCode, String> {
    let mut connect: Option<String> = None;
    let mut timeout = Some(Duration::from_secs(120));
    let mut telemetry_path: Option<String> = None;
    let mut cursor = ArgCursor::new("fedhh-node party", args);
    while let Some(arg) = cursor.next_option() {
        match arg {
            "--connect" => connect = Some(cursor.raw_value(arg)?.to_string()),
            "--timeout-secs" => timeout = timeout_secs(cursor.value(arg)?),
            "--telemetry" => telemetry_path = Some(cursor.raw_value(arg)?.to_string()),
            other => return Err(cursor.unknown(other)),
        }
    }
    let addr = connect.ok_or(
        "usage: fedhh-node party --connect HOST:PORT [--timeout-secs N] [--telemetry PATH]",
    )?;

    let (link, welcome) = connect_party_with_timeout(addr.as_str(), timeout)
        .map_err(|err| format!("[fedhh-node] failed to join {addr}: {err}"))?;
    let spec = NodeRunSpec::from_app_bytes(&welcome.app)
        .map_err(|err| format!("[fedhh-node] bad run spec in welcome: {err}"))?;
    let rank = link.rank;
    eprintln!(
        "[fedhh-node] party rank {rank}: {} on {} (local parties {:?})",
        spec.mechanism,
        spec.dataset,
        welcome.assignments.get(rank)
    );
    let dataset = spec.build_dataset();
    let engine = EngineConfig::parallel(welcome.parallelism.max(1)).with_scenario(welcome.scenario);
    let telemetry = telemetry_for(&telemetry_path);
    let output = Run::mechanism(spec.mechanism)
        .dataset(&dataset)
        .config(welcome.config)
        .engine(engine)
        .link(SessionLink::Party(link))
        .telemetry(&telemetry)
        .execute()
        .map_err(|err| {
            // A coordinator Abort can land while a machine-readable line
            // is still buffered; flush before exiting so a smoke script
            // tailing the pipe never reads a truncated line.
            let _ = std::io::stdout().flush();
            format!("[fedhh-node] party rank {rank} failed: {err}")
        })?;
    // Every process computes the same result; print it so a party's log is
    // independently checkable against the coordinator's.
    eprintln!(
        "[fedhh-node] party rank {rank} done: topk {:?}",
        output.heavy_hitters
    );
    if let Some(path) = &telemetry_path {
        write_trace(path, format!("party{rank}/{}", spec.mechanism), &telemetry)?;
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_quorum_seed_is_the_topology_sweeps() {
        let args: Vec<String> = [
            "--mechanism",
            "taps",
            "--dataset",
            "syn",
            "--quorum",
            "0.75",
            "--scenario",
            "sybil:0.5",
        ]
        .map(String::from)
        .to_vec();
        let plan = parse_coordinator_options(&args).unwrap().plan;
        // One plan seed, the sweep's, for the quorum and the adversary.
        assert_eq!(plan.seed, SCENARIO_SEED);
        assert_eq!(plan.quorum, 0.75);
        assert_eq!(plan.adversary, adversary_by_name("sybil", 0.5).unwrap());
        // A seed is not an option: a `:SEED` suffix is an invalid value.
        assert!(parse_scenario_spec("sybil:0.5:7").is_err());
    }
}
