//! The benchmark's command line.  See `README.md` and `--help`.

use fedhh_benchmark::compare::{compare, render, result_set, tag_run, Verdict};
use fedhh_benchmark::json::Json;
use fedhh_benchmark::measure::{end_to_end, Options};
use fedhh_benchmark::workload::{find, WORKLOADS};
use fedhh_benchmark::{layers, out_dir};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "\
fedhh-benchmark — end-to-end + per-layer benchmark of the fedhh workspace

One workload, one process (what BENCHMARK.json's command runs):
  fedhh-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
                  [--smoke] [--trace-out <path>]
    --trace 0   timed closed loop, prints every end-to-end metric
    --trace 1   traced pass + layer probes, prints every per-layer metric
                and writes the span buffer as JSONL (default
                benchmark/out/trace-<workload>.jsonl)
    --smoke     same code path, population and window 50x smaller
  The last line of standard output is one JSON object:
  {\"correct\", \"attempted\", \"failed\", \"metrics\"}.  Exit code 1 when any
  operation failed.

Every workload, each run in a child process of its own:
  fedhh-benchmark run [--seed <n>] [--seconds <s>] [--repeats <r>] [--smoke]
                      [--out <result.json>] [--trace <trace.jsonl>]
    <r> untraced runs per workload at seeds n, n+1, … plus one traced run.

Apply the regression bounds to two result sets:
  fedhh-benchmark compare <A.json> <B.json>
    Prints within / regressed / unresolved per (workload, metric); exit
    code 1 on any regressed row.

Workloads:
";

/// Command-line flags as `--name value` pairs plus bare `--switches`.
struct Flags {
    values: Vec<(String, String)>,
    switches: Vec<String>,
}

const SWITCHES: [&str; 2] = ["--smoke", "--corrupt-reference"];

impl Flags {
    fn parse(args: &[String], known: &[&str]) -> Result<Self, String> {
        let mut flags = Flags {
            values: Vec::new(),
            switches: Vec::new(),
        };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if !known.contains(&arg.as_str()) {
                return Err(format!("unknown argument {arg:?}"));
            }
            if SWITCHES.contains(&arg.as_str()) {
                flags.switches.push(arg.clone());
            } else {
                let value = args.next().ok_or(format!("{arg} needs a value"))?;
                flags.values.push((arg.clone(), value.clone()));
            }
        }
        Ok(flags)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(flag, _)| flag == name)
            .map(|(_, value)| value.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: Option<T>) -> Result<T, String> {
        match self.get(name) {
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("{name} {raw:?} is not a valid number")),
            None => default.ok_or(format!("{name} is required")),
        }
    }

    fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|switch| switch == name)
    }
}

fn default_trace_path(workload: &str) -> PathBuf {
    out_dir().join(format!("trace-{workload}.jsonl"))
}

/// One workload in this process.
fn single(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(
        args,
        &[
            "--workload",
            "--seed",
            "--seconds",
            "--trace",
            "--trace-out",
            "--smoke",
            "--corrupt-reference",
        ],
    )?;
    let name = flags.get("--workload").ok_or("--workload is required")?;
    let spec = find(name).ok_or(format!("unknown workload {name:?}"))?;
    let seconds: f64 = flags.number("--seconds", None)?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let opts = Options {
        spec,
        seed: flags.number("--seed", None)?,
        seconds,
        smoke: flags.has("--smoke"),
        corrupt_reference: flags.has("--corrupt-reference"),
    };
    let result = match flags.get("--trace").ok_or("--trace is required")? {
        "0" => end_to_end(&opts)?,
        "1" => {
            let trace_out = flags
                .get("--trace-out")
                .map_or_else(|| default_trace_path(spec.name), PathBuf::from);
            layers::per_layer(&opts, &trace_out)?
        }
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    print!("{}", result.table());
    println!("{}", result.to_json().emit());
    Ok(if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs one workload in a child process and returns its result line.
fn child(args: &[String]) -> Result<(Json, bool), String> {
    let exe = std::env::current_exe().map_err(|err| err.to_string())?;
    let output = Command::new(exe)
        .args(args)
        // The CI matrix knobs must never reach a measured process.
        .env_remove("FEDHH_TEST_PARALLELISM")
        .env_remove("FEDHH_TEST_FO_EXEC")
        .output()
        .map_err(|err| format!("spawning the child process: {err}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let line = stdout
        .lines()
        .last()
        .ok_or(format!("child {args:?} printed nothing"))?;
    let result = Json::parse(line).map_err(|err| format!("child {args:?}: {err}"))?;
    Ok((result, output.status.success()))
}

/// Every workload, each run in its own child process.
fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(
        args,
        &[
            "--seed",
            "--seconds",
            "--repeats",
            "--out",
            "--trace",
            "--smoke",
        ],
    )?;
    let seed: u64 = flags.number("--seed", Some(42))?;
    let seconds: f64 = flags.number("--seconds", Some(10.0))?;
    let repeats: u64 = flags.number("--repeats", Some(1))?;
    let out = flags
        .get("--out")
        .map_or_else(|| out_dir().join("result.json"), PathBuf::from);
    let trace = flags
        .get("--trace")
        .map_or_else(|| out_dir().join("trace.jsonl"), PathBuf::from);

    let mut runs = Vec::new();
    let mut traces = String::new();
    let mut all_correct = true;
    for spec in &WORKLOADS {
        for (trace_mode, run_seed) in (0..repeats)
            .map(|repeat| (false, seed + repeat))
            .chain([(true, seed)])
        {
            // One part per workload, named after this process so concurrent
            // `run`s do not share files; folded into `--trace` below.
            let trace_part =
                out_dir().join(format!("trace-{}-{}.jsonl", spec.name, std::process::id()));
            let mut child_args: Vec<String> = [
                "--workload",
                spec.name,
                "--seed",
                &run_seed.to_string(),
                "--seconds",
                &seconds.to_string(),
                "--trace",
                if trace_mode { "1" } else { "0" },
            ]
            .map(String::from)
            .to_vec();
            if flags.has("--smoke") {
                child_args.push("--smoke".into());
            }
            if trace_mode {
                child_args.extend(["--trace-out".into(), trace_part.display().to_string()]);
            }
            let (result, succeeded) = child(&child_args)?;
            all_correct &= succeeded;
            runs.push(tag_run(&result, spec.name, run_seed, trace_mode));
            if trace_mode {
                traces.push_str(
                    &std::fs::read_to_string(&trace_part)
                        .map_err(|err| format!("reading {}: {err}", trace_part.display()))?,
                );
                let _ = std::fs::remove_file(&trace_part);
            }
        }
    }
    write_file(&out, &(result_set(seed, seconds, runs).emit() + "\n"))?;
    write_file(&trace, &traces)?;
    println!("result set: {}\ntrace: {}", out.display(), trace.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|dir| !dir.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|err| format!("{}: {err}", dir.display()))?;
    }
    std::fs::write(path, contents).map_err(|err| format!("{}: {err}", path.display()))
}

fn compare_sets(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes exactly two result sets".into());
    };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|err| format!("{path}: {err}"))?;
        Json::parse(&text).map_err(|err| format!("{path}: {err}"))
    };
    let rows = compare(&load(a)?, &load(b)?)?;
    print!("{}", render(&rows));
    let count = |verdict| rows.iter().filter(|row| row.verdict == verdict).count();
    println!(
        "{} within, {} regressed, {} unresolved",
        count(Verdict::Within),
        count(Verdict::Regressed),
        count(Verdict::Unresolved)
    );
    Ok(if count(Verdict::Regressed) == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => compare_sets(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            print!("{USAGE}");
            for spec in &WORKLOADS {
                println!("  {:<24} {}", spec.name, spec.why);
            }
            return if args.is_empty() {
                ExitCode::from(2)
            } else {
                ExitCode::SUCCESS
            };
        }
        Some(_) => single(&args),
    };
    outcome.unwrap_or_else(|err| {
        eprintln!("fedhh-benchmark: {err}");
        ExitCode::from(2)
    })
}
