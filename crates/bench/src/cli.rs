//! The option grammar and the report-command driver that `fedhh-bench` and
//! `fedhh-node` share.
//!
//! * [`ArgCursor`] — the one way either binary walks an option list: every
//!   error names the command that rejected the option, a missing or
//!   unparsable value names the option, and nothing falls back to a default
//!   on a typo.
//! * [`CheckedOutput`] + [`run_report`] — the `--out` / `--check` /
//!   `--threshold` trio and the one command body around a sweep: baseline
//!   first (a bad path or a suite mismatch fails before anything is
//!   measured), run, table, file, re-parse, gate, exit status.
//! * [`epoch_option`] — the options `fedhh-bench epochs` and `fedhh-node
//!   service` both take, parsed and range-checked by one function, with
//!   [`parse_with_quick`] making their `--quick` order-independent.
//! * [`write_trace`] — the one trace-file writer.

use crate::epochs::EpochsOptions;
use crate::json::Value;
use crate::report::{self, Role, Row};
use fedhh_telemetry::{Telemetry, TraceLine};
use std::io::Write;
use std::str::FromStr;

/// A cursor over one command's option list.
#[derive(Debug)]
pub struct ArgCursor<'a> {
    command: &'static str,
    args: &'a [String],
    next: usize,
}

impl<'a> ArgCursor<'a> {
    /// A cursor over `args` for `command` (`"fedhh-bench perf"`), the name
    /// every error carries.
    pub fn new(command: &'static str, args: &'a [String]) -> Self {
        Self {
            command,
            args,
            next: 0,
        }
    }

    /// The next option token, advancing past it; `None` at the end.
    pub fn next_option(&mut self) -> Option<&'a str> {
        let arg = self.args.get(self.next)?;
        self.next += 1;
        Some(arg.as_str())
    }

    /// Consumes `option`'s raw value.
    pub fn raw_value(&mut self, option: &str) -> Result<&'a str, String> {
        self.next_option()
            .ok_or_else(|| format!("{option} requires a value ({})", self.command))
    }

    /// Consumes and parses `option`'s value, masking the parse error behind
    /// a uniform message (for plain numerics).
    pub fn value<T: FromStr>(&mut self, option: &str) -> Result<T, String> {
        let raw = self.raw_value(option)?;
        raw.parse()
            .map_err(|_| format!("{option} got an invalid value {raw:?} ({})", self.command))
    }

    /// Like [`ArgCursor::value`], then range-checked: `rule` completes
    /// "`option` must ..." (`"be positive"`).
    pub fn value_where<T: FromStr + std::fmt::Display>(
        &mut self,
        option: &str,
        valid: impl Fn(&T) -> bool,
        rule: &str,
    ) -> Result<T, String> {
        let value = self.value(option)?;
        if valid(&value) {
            Ok(value)
        } else {
            Err(format!("{option} must {rule}, got {value}"))
        }
    }

    /// Like [`ArgCursor::value`] but surfaces the type's own parse error —
    /// for kinds whose `FromStr` errors already explain the valid names
    /// (mechanisms, datasets, frequency oracles).
    pub fn parsed<T>(&mut self, option: &str) -> Result<T, String>
    where
        T: FromStr,
        T::Err: std::fmt::Display,
    {
        let raw = self.raw_value(option)?;
        raw.parse().map_err(|e| format!("{option}: {e}"))
    }

    /// Consumes a non-empty comma-separated list whose every element parses
    /// and satisfies `valid`; `rule` completes "each must ...".
    pub fn list<T: FromStr>(
        &mut self,
        option: &str,
        valid: impl Fn(&T) -> bool,
        rule: &str,
    ) -> Result<Vec<T>, String> {
        let raw = self.raw_value(option)?;
        let items: Result<Vec<T>, _> = raw.split(',').map(|s| s.trim().parse()).collect();
        match items {
            Ok(items) if !items.is_empty() && items.iter().all(valid) => Ok(items),
            _ => Err(format!(
                "{option} got an invalid list {raw:?} (each must {rule})"
            )),
        }
    }

    /// Consumes a population multiplier (`--user-scale`), range-checked by
    /// the one rule every multiplier obeys.
    pub fn user_scale(&mut self, option: &str) -> Result<f64, String> {
        self.value_where(option, is_user_scale, USER_SCALE_RULE)
    }

    /// Consumes a list of population multipliers (`--user-scales`), each
    /// range-checked by the same rule.
    pub fn user_scales(&mut self, option: &str) -> Result<Vec<f64>, String> {
        self.list(option, is_user_scale, USER_SCALE_RULE)
    }

    /// The error for an option this command does not understand.
    pub fn unknown(&self, option: &str) -> String {
        format!("unknown option {option} for `{}`", self.command)
    }
}

/// The one range check of a population multiplier: no population can be
/// generated at zero, a negative, NaN or an infinite scale.
fn is_user_scale(scale: &f64) -> bool {
    *scale > 0.0 && scale.is_finite()
}

/// The rule [`is_user_scale`] enforces, as an error message completes it.
const USER_SCALE_RULE: &str = "be positive and finite";

/// The `--out PATH` / `--check BASELINE` / `--threshold F` trio of the
/// report-writing subcommands.  Whether a report can be gated at all, and
/// whether its threshold is a ratio or a delta, is read off the row type's
/// column roles: a report with no gated column (`scale`, `epochs`) accepts
/// only `--out`.
#[derive(Debug)]
pub struct CheckedOutput {
    out_path: String,
    check_path: Option<String>,
    threshold: f64,
    gated: bool,
    ratio: bool,
}

impl CheckedOutput {
    /// The defaults for `R`'s report: `BENCH_<name>.json`, no baseline.
    pub fn new<R: Row>(default_threshold: f64) -> Self {
        let has = |role: Role| R::COLUMNS.iter().any(|c| c.role == role);
        Self {
            out_path: format!("BENCH_{}.json", R::NAME),
            check_path: None,
            threshold: default_threshold,
            gated: has(Role::Equal) || has(Role::Delta) || has(Role::Ratio),
            ratio: has(Role::Ratio),
        }
    }

    /// Consumes the option when it belongs to the trio; `Ok(false)` hands
    /// it back to the caller's match.
    pub fn consume(&mut self, option: &str, cursor: &mut ArgCursor<'_>) -> Result<bool, String> {
        match option {
            "--out" => self.out_path = cursor.raw_value("--out")?.to_string(),
            "--check" if self.gated => {
                self.check_path = Some(cursor.raw_value("--check")?.to_string())
            }
            // A ratio of zero gates nothing; a delta of zero means
            // "byte-equal" and is allowed.
            "--threshold" if self.gated && self.ratio => {
                self.threshold = cursor.value_where("--threshold", |v| *v > 0.0, "be positive")?
            }
            "--threshold" if self.gated => {
                self.threshold =
                    cursor.value_where("--threshold", |v| *v >= 0.0, "be non-negative")?
            }
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// Reads and parses a `--check` baseline, rejecting a suite mismatch —
/// quick and full suites size their workloads differently under the same
/// cell names, so comparing across them would gate apples against oranges.
fn load_baseline<R: Row>(path: &str, suite: &str) -> Result<Vec<R>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|err| format!("failed to read baseline {path}: {err}"))?;
    let (head, rows) = report::from_json::<R>(&text)
        .map_err(|err| format!("failed to parse baseline {path}: {err}"))?;
    let recorded = R::HEAD.iter().find(|c| c.key == "suite");
    match recorded.map(|c| (c.get)(&head)) {
        Some(Value::String(recorded)) if recorded != suite => Err(format!(
            "baseline {path} was recorded by the {recorded:?} suite but this is a {suite:?} \
             run; regenerate the baseline with the matching suite"
        )),
        _ => Ok(rows),
    }
}

/// The one command body around a sweep.  Loads the `--check` baseline
/// **before** `run` spends minutes measuring, times `run`, prints the
/// table, writes the report to `--out`, and — when a baseline was given —
/// gates the fresh report against it.  Both sides of the gate are parsed
/// from serialized files (the fresh report is re-read from the JSON just
/// written), so `--threshold 0` means "byte-equal files".
///
/// Returns the report when everything passed and `None` when the gate
/// failed (the violations are already on stderr); `what` names the sweep
/// in the progress lines (`"perf suite"`).
pub fn run_report<R: Row>(
    output: &CheckedOutput,
    suite: &str,
    what: &str,
    run: impl FnOnce() -> Result<R::Report, String>,
) -> Result<Option<R::Report>, String> {
    let baseline = match &output.check_path {
        Some(path) => Some(load_baseline::<R>(path, suite)?),
        None => None,
    };
    let start = std::time::Instant::now();
    let report = run().map_err(|err| format!("{what} failed: {err}"))?;
    let elapsed = start.elapsed().as_secs_f64();
    eprintln!("[fedhh-bench] {what} finished in {elapsed:.1}s");
    print!("{}", report::to_table::<R>(&report));
    let json = report::to_json::<R>(&report);
    std::fs::write(&output.out_path, &json)
        .map_err(|err| format!("failed to write {}: {err}", output.out_path))?;
    eprintln!("[fedhh-bench] wrote {}", output.out_path);

    if let Some(baseline) = baseline {
        let (_, current) = report::from_json::<R>(&json)
            .map_err(|err| format!("internal error: fresh report does not re-parse: {err}"))?;
        let violations = report::check(&current, &baseline, output.threshold);
        if !gate_passed(R::NAME, baseline.len(), output.threshold, &violations) {
            return Ok(None);
        }
    }
    Ok(Some(report))
}

/// Prints a gate's verdict on stderr — every violation, or how many cells
/// held — and returns whether it passed.
pub fn gate_passed(name: &str, cells: usize, threshold: f64, violations: &[String]) -> bool {
    if violations.is_empty() {
        eprintln!(
            "[fedhh-bench] {name} check passed: {cells} cells within {threshold} of baseline"
        );
    } else {
        let count = violations.len();
        eprintln!("[fedhh-bench] {name} check FAILED ({count} violation(s) at {threshold}):");
        for violation in violations {
            eprintln!("  {violation}");
        }
    }
    violations.is_empty()
}

/// Creates the trace file at `path`, hands `fill` a buffered writer, then
/// flushes and reports the path.
pub fn write_trace<T>(
    path: &str,
    fill: impl FnOnce(&mut dyn Write) -> Result<T, String>,
) -> Result<T, String> {
    let file = std::fs::File::create(path)
        .map_err(|err| format!("failed to create trace file {path}: {err}"))?;
    let mut writer = std::io::BufWriter::new(file);
    let filled = fill(&mut writer)?;
    writer
        .flush()
        .map_err(|err| format!("failed to write trace file {path}: {err}"))?;
    eprintln!("[fedhh] wrote trace {path}");
    Ok(filled)
}

/// Writes everything `telemetry` recorded as one mark-delimited section
/// (`name`, covering `runs` runs) of a fresh trace file at `path`.
pub fn write_trace_section(
    path: &str,
    name: String,
    runs: u64,
    telemetry: &Telemetry,
) -> Result<(), String> {
    write_trace(path, |writer| {
        let mark = TraceLine::Mark { name, runs };
        writeln!(writer, "{}", mark.to_json())
            .and_then(|()| telemetry.write_jsonl(writer))
            .map_err(|err| format!("failed to write trace file {path}: {err}"))
    })
}

/// Consumes one of the options `fedhh-bench epochs` and `fedhh-node
/// service` share, parsed and range-checked here so the two commands cannot
/// disagree; `Ok(false)` hands the option back to the caller's match.
pub fn epoch_option(
    option: &str,
    cursor: &mut ArgCursor<'_>,
    options: &mut EpochsOptions,
) -> Result<bool, String> {
    match option {
        "--quick" => options.quick = true,
        "--mechanism" => options.mechanism = cursor.parsed(option)?,
        "--dataset" => options.dataset = cursor.parsed(option)?,
        "--epochs" => options.epochs = cursor.value_where(option, |v| *v > 0, "be at least 1")?,
        "--churn" => options.churn_fraction = cursor.value(option)?,
        "--drift" => options.drift_stride = cursor.value(option)?,
        "--epsilon" => options.epsilon = cursor.value(option)?,
        "--cap" => options.epsilon_cap = Some(cursor.value(option)?),
        "--k" => options.k = cursor.value(option)?,
        "--seed" => options.seed = cursor.value(option)?,
        "--user-scale" => options.user_scale = cursor.user_scale(option)?,
        "--parallelism" => options.parallelism = cursor.value(option)?,
        _ => return Ok(false),
    }
    Ok(true)
}

/// Parses a command line whose `--quick` selects other defaults: `parse`
/// runs over `full`, and again over `quick` when that pass met `--quick` —
/// so the flag picks defaults only for what the user did not set, wherever
/// it appears on the line.
pub fn parse_with_quick(
    full: EpochsOptions,
    quick: EpochsOptions,
    mut parse: impl FnMut(EpochsOptions) -> Result<EpochsOptions, String>,
) -> Result<EpochsOptions, String> {
    let options = parse(full)?;
    if options.quick {
        parse(quick)
    } else {
        Ok(options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn lists_reject_empty_unparsable_and_out_of_range_elements() {
        for (raw, ok) in [
            ("0,0.5", true),
            (" 1 , 0.25", true),
            ("", false),
            ("0.5,", false),
            ("0.5,x", false),
            ("0.5,1.5", false),
        ] {
            let words = args(&[raw]);
            let mut cursor = ArgCursor::new("fedhh-bench scenario", &words);
            let list = cursor.list(
                "--fractions",
                |f: &f64| (0.0..=1.0).contains(f),
                "be in [0, 1]",
            );
            assert_eq!(list.is_ok(), ok, "{raw:?}: {list:?}");
            if let Err(err) = list {
                assert!(
                    err.contains("--fractions") && err.contains("[0, 1]"),
                    "{err}"
                );
            }
        }
    }

    #[test]
    fn the_gate_options_follow_the_row_declaration() {
        use crate::{EpochPoint, PerfEntry, ScenarioRow};
        let consume = |output: &mut CheckedOutput, words: &[&str]| {
            let words = args(words);
            let mut cursor = ArgCursor::new("fedhh-bench x", &words);
            let option = cursor.next_option().unwrap();
            output.consume(option, &mut cursor)
        };
        // A ratio gate needs a positive threshold, a delta gate allows 0.
        let mut perf = CheckedOutput::new::<PerfEntry>(2.0);
        assert!(consume(&mut perf, &["--threshold", "0"]).is_err());
        assert_eq!(consume(&mut perf, &["--threshold", "1.5"]), Ok(true));
        let mut scenario = CheckedOutput::new::<ScenarioRow>(0.05);
        assert_eq!(consume(&mut scenario, &["--threshold", "0"]), Ok(true));
        assert!(consume(&mut scenario, &["--threshold", "-1"]).is_err());
        assert!(consume(&mut scenario, &["--threshold", "NaN"]).is_err());
        // A report with no gated column takes --out only.
        let mut epochs = CheckedOutput::new::<EpochPoint>(0.0);
        assert_eq!(epochs.out_path, "BENCH_epochs.json");
        assert_eq!(consume(&mut epochs, &["--check", "x.json"]), Ok(false));
        assert_eq!(consume(&mut epochs, &["--threshold", "1"]), Ok(false));
        assert_eq!(consume(&mut epochs, &["--out", "x.json"]), Ok(true));
    }
}
