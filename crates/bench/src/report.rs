//! The **one report layer** behind every report file: the `BENCH_*.json`
//! reports and the paper evaluation's `results/experiments.json`.
//!
//! A report is head fields plus rows of one row type.  The row type
//! implements [`Row`]: it names its report struct and declares the
//! head fields and its own columns **once**, each as a [`Column`] — JSON
//! key, JSON float format, table heading and format, and its [`Role`] in a
//! baseline gate.  Everything else is derived here: [`to_json`] (through
//! [`json::document`], byte-stable), [`from_json`] (strict, through
//! [`json::Scalar`]), [`to_table`] and the single gate [`check`].

use crate::json::{self, Fmt, Value};

/// The schema version this build writes into, and accepts from, every
/// report file.
pub const SCHEMA: u32 = 1;

/// What a column means to the baseline gate ([`check`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Role {
    /// Part of the row's identity: rows are joined on their key columns.
    Key,
    /// Must equal the baseline exactly (`ok`, `root_frames`).
    Equal,
    /// Must stay within `threshold` of the baseline, as an absolute delta.
    Delta,
    /// Must stay at most `threshold x` the baseline (`ns_per_report`).
    Ratio,
    /// Reported, never gated.
    Info,
}

/// How a cell is shown in the plain-text table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shown {
    /// As it is: integers and strings verbatim (an empty string as `-`),
    /// booleans as `yes`/`no`, an absent value as `n/a`.
    Plain,
    /// A number with this many decimals.
    Fixed(usize),
    /// A number divided by the first field, with this many decimals
    /// (bits shown as kilobits, kilobytes as megabytes).
    Per(f64, usize),
}

/// One declared column of a row type `T` (or head field of a report `T`).
/// Built by the crate's `column!` macro: the field name is the JSON key,
/// and the accessors go through the field's [`json::Scalar`] impl.
pub struct Column<T: 'static> {
    /// JSON key.
    pub key: &'static str,
    /// Table heading (unused for head fields).
    pub heading: &'static str,
    /// Role in the baseline gate.
    pub role: Role,
    /// JSON format of a float cell.
    pub json: Fmt,
    /// Table format.
    pub shown: Shown,
    /// Reads the cell.
    pub get: fn(&T) -> Value,
    /// Writes the cell from a parsed value, strictly typed.
    pub set: fn(&mut T, &Value) -> Result<(), String>,
}

/// Declares one [`Column`] from a field name: `column!(field, "heading",
/// Role)` for strings, booleans and integers, `column!(field, "heading",
/// Role, json_fmt, shown)` where a float format or a table unit matters.
macro_rules! column {
    ($field:ident, $heading:expr, $role:ident) => {
        $crate::report::column!(
            $field,
            $heading,
            $role,
            $crate::json::Fmt::Shortest,
            $crate::report::Shown::Plain
        )
    };
    ($field:ident, $heading:expr, $role:ident, $json:expr, $shown:expr) => {
        $crate::report::Column {
            key: stringify!($field),
            heading: $heading,
            role: $crate::report::Role::$role,
            json: $json,
            shown: $shown,
            get: |row| $crate::json::Scalar::to_value(&row.$field),
            set: |row, value| {
                row.$field = $crate::json::Scalar::from_value(value)?;
                Ok(())
            },
        }
    };
}
pub(crate) use column;

/// A row type of a report.  Implemented by exactly the five row structs; the implementation *is* the file format — nothing else in
/// the crate knows a key, a float precision or a gate rule.
pub trait Row: Sized + Default + 'static {
    /// The report struct these rows live in.
    type Report: Default;
    /// The report's name, which is also the default file stem (`"perf"`
    /// writes `BENCH_perf.json`); the subcommand that writes it, except for
    /// `run`'s `"experiments"`.
    const NAME: &'static str;
    /// The head fields after `"schema"`, in file order.
    const HEAD: &'static [Column<Self::Report>];
    /// JSON key of the row array (`"entries"`, `"points"`, `"rows"`).
    const ROWS: &'static str;
    /// The row's columns, in file and table order.
    const COLUMNS: &'static [Column<Self>];
    /// `Some((list_key, label_key, label_heading))` when rows sit one level
    /// down, grouped under labelled objects (`BENCH_epochs.json`'s arms).
    const NESTING: Option<(&'static str, &'static str, &'static str)> = None;
    /// The table's title line.
    fn title(report: &Self::Report) -> String;
    /// The rows as `(group label, rows)` — one unlabelled group unless
    /// [`Row::NESTING`] is set.
    fn groups(report: &Self::Report) -> Vec<(&str, &[Self])>;
}

/// Serializes a report.  Deterministic: declared key order, declared float
/// formats — the same report produces the same bytes.
pub fn to_json<R: Row>(report: &R::Report) -> String {
    fn fields<'a, T>(columns: &'a [Column<T>], of: &T) -> Vec<json::Field<'a>> {
        let render = |c: &'a Column<T>| (c.key, json::render(&(c.get)(of), c.json));
        columns.iter().map(render).collect()
    }
    let mut head = vec![("schema", SCHEMA.to_string())];
    head.extend(fields(R::HEAD, report));
    let groups: Vec<json::Group<'_>> = R::groups(report)
        .into_iter()
        .map(|(label, rows)| {
            let rows = rows.iter().map(|row| fields(R::COLUMNS, row)).collect();
            (json::string(label), rows)
        })
        .collect();
    let nesting = R::NESTING.map(|(list_key, label_key, _)| (list_key, label_key));
    json::document(&head, nesting, R::ROWS, &groups)
}

/// Parses a flat report file into its head (a default report with the head
/// fields set) and its rows.  Tolerant of whitespace and key order, strict
/// about everything else: a foreign schema version, a missing key or a
/// number that does not fit its field is an `Err` naming the key.
pub fn from_json<R: Row>(text: &str) -> Result<(R::Report, Vec<R>), String> {
    fn fill<T: Default>(columns: &[Column<T>], obj: &[(String, Value)]) -> Result<T, String> {
        let mut target = T::default();
        for c in columns {
            let value = json::get(obj, c.key)?;
            (c.set)(&mut target, value).map_err(|err| format!("key {:?} {err}", c.key))?;
        }
        Ok(target)
    }
    let value = json::parse(text)?;
    let obj = value.object("top level")?;
    let schema: u32 = json::field(obj, "schema")?;
    if schema != SCHEMA {
        return Err(format!(
            "unsupported {} schema version {schema} (this build reads schema {SCHEMA})",
            R::NAME
        ));
    }
    let head = fill(R::HEAD, obj)?;
    let items = json::get(obj, R::ROWS)?.array(&format!("{:?}", R::ROWS))?;
    let rows: Result<Vec<R>, String> = items
        .iter()
        .map(|item| fill(R::COLUMNS, item.object("row")?))
        .collect();
    Ok((head, rows?))
}

/// Renders a report as an aligned plain-text table.
pub fn to_table<R: Row>(report: &R::Report) -> String {
    fn shown(value: &Value, shown: Shown) -> String {
        let (unit, decimals) = match shown {
            Shown::Plain => (1.0, None),
            Shown::Fixed(decimals) => (1.0, Some(decimals)),
            Shown::Per(unit, decimals) => (unit, Some(decimals)),
        };
        match (value, value.as_f64().zip(decimals)) {
            (_, Some((number, decimals))) => format!("{:.decimals$}", number / unit),
            (Value::String(s), _) if s.is_empty() => "-".to_string(),
            (Value::String(s), _) => s.clone(),
            (Value::Bool(b), _) => if *b { "yes" } else { "no" }.to_string(),
            (Value::Null, _) => "n/a".to_string(),
            (other, _) => json::render(other, Fmt::Shortest),
        }
    }
    let label_heading = R::NESTING.map(|(_, _, heading)| heading);
    let headings = R::COLUMNS.iter().map(|c| c.heading);
    let header: Vec<&str> = label_heading.into_iter().chain(headings).collect();
    let mut cells = Vec::new();
    for (label, rows) in R::groups(report) {
        for row in rows {
            let label = label_heading.map(|_| label.to_string());
            let shown = R::COLUMNS.iter().map(|c| shown(&(c.get)(row), c.shown));
            cells.push(label.into_iter().chain(shown).collect());
        }
    }
    format!("# {}\n{}", R::title(report), align(&header, &cells))
}

/// The aligned header, rule and rows of a plain-text table.
pub(crate) fn align(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (width, cell) in widths.iter_mut().zip(row) {
            *width = (*width).max(cell.len());
        }
    }
    let render = |cells: Vec<&str>| {
        let padded: Vec<String> = (cells.iter().zip(&widths))
            .map(|(cell, width)| format!("{cell:width$}"))
            .collect();
        padded.join("  ") + "\n"
    };
    let mut out = render(header.to_vec());
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&render(row.iter().map(String::as_str).collect()));
    }
    out
}

/// **The** baseline gate.  Rows are joined on their [`Role::Key`] columns;
/// a row missing on *either* side is a violation (a vanished row means the
/// sweep silently shrank, a new one that the baseline is stale and must be
/// regenerated); [`Role::Equal`] columns must match exactly and
/// [`Role::Delta`] / [`Role::Ratio`] columns obey `threshold`.  Returns one
/// human-readable line per violation, each naming the cell; empty means
/// the gate passes.
///
/// Callers compare like with like — the same suite flavour (the CLI
/// rejects a mismatch before running) and, for `threshold = 0` to mean
/// "byte-equal files", a current side re-parsed from its own JSON.
pub fn check<R: Row>(current: &[R], baseline: &[R], threshold: f64) -> Vec<String> {
    let current_keys: Vec<_> = current.iter().map(key).collect();
    let baseline_keys: Vec<_> = baseline.iter().map(key).collect();
    let mut violations = Vec::new();
    for (base, base_key) in baseline.iter().zip(&baseline_keys) {
        let Some(at) = current_keys.iter().position(|k| k == base_key) else {
            violations.push(format!("{}: missing from the current run", cell_name(base)));
            continue;
        };
        let row = &current[at];
        for c in R::COLUMNS {
            let (now, was) = ((c.get)(row), (c.get)(base));
            let drift = match (c.role, now.as_f64().zip(was.as_f64())) {
                (Role::Equal, _) if now != was => format!(
                    "moved from {} to {}",
                    json::render(&was, c.json),
                    json::render(&now, c.json)
                ),
                (Role::Delta, Some((now, was))) if (now - was).abs() > threshold => {
                    format!("{now} vs baseline {was} (tolerance {threshold})")
                }
                (Role::Ratio, Some((now, was))) if now > was * threshold => format!(
                    "{now:.1} vs baseline {was:.1} ({:.2}x, limit {threshold}x)",
                    now / was
                ),
                _ => continue,
            };
            violations.push(format!("{}: {} {drift}", cell_name(base), c.key));
        }
    }
    for (row, row_key) in current.iter().zip(&current_keys) {
        if !baseline_keys.contains(row_key) {
            violations.push(format!(
                "{}: new cell missing from the baseline (regenerate it)",
                cell_name(row)
            ));
        }
    }
    violations
}

/// A row's identity in the gate: its key cells.
fn key<R: Row>(row: &R) -> Vec<Value> {
    let columns = R::COLUMNS.iter().filter(|c| c.role == Role::Key);
    columns.map(|c| (c.get)(row)).collect()
}

/// A row's name in a violation: its key cells, `/`-joined.
pub(crate) fn cell_name<R: Row>(row: &R) -> String {
    let parts = key(row).into_iter().map(|value| match value {
        Value::String(s) => s,
        other => json::render(&other, Fmt::Shortest),
    });
    parts.collect::<Vec<_>>().join("/")
}

/// Test support for the readable reports: a schema version or an unsigned
/// cell that is negative or fractional is an `Err` naming its key, never a
/// cast.
#[cfg(test)]
pub(crate) fn assert_reader_is_strict<R: Row>(report: &R::Report) {
    let text = to_json::<R>(report);
    let first = R::groups(report)[0].1.first().expect("a sample row");
    let unsigned = R::COLUMNS
        .iter()
        .filter(|c| matches!((c.get)(first), Value::Uint(_)));
    let mut probes = vec![("schema", SCHEMA.to_string())];
    probes.extend(unsigned.map(|c| (c.key, json::render(&(c.get)(first), c.json))));
    assert!(probes.len() > 1, "no unsigned column");
    for (key, good) in probes {
        for bad in ["1.9", "-5", "3.7", "1e2", "\"7\"", "null"] {
            let doctored =
                text.replacen(&format!("{key:?}: {good}"), &format!("{key:?}: {bad}"), 1);
            assert_ne!(doctored, text, "{key} not found");
            let err = from_json::<R>(&doctored).err().expect("must not parse");
            assert!(err.contains(&format!("{key:?}")), "{key}: {bad}: {err}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every committed report reads through the shared strict reader
    /// (RFC 8259 numbers, no repeated keys).  The golden tests' pinned bytes
    /// are re-read by each report's round-trip test, and by the golden test
    /// itself for the write-only `scale` and `epochs` reports.
    #[test]
    fn every_committed_report_parses() {
        let experiments = include_str!("../../../results/experiments.json");
        let (_, rows) = from_json::<crate::ExperimentRow>(experiments).unwrap();
        assert!(!rows.is_empty());
        let perf = include_str!("../../../ci/perf-baseline.json");
        assert!(!crate::PerfReport::from_json(perf)
            .unwrap()
            .entries
            .is_empty());
        let epochs = json::parse(include_str!("../../../results/epochs.json")).unwrap();
        assert!(!json::get(epochs.object("epochs").unwrap(), "arms")
            .unwrap()
            .array("arms")
            .unwrap()
            .is_empty());
    }

    #[test]
    fn table_rendering_contains_all_cells() {
        let rows = [["RDB", "1", "0.50"], ["SYN", "15", "0.90"]];
        let rows: Vec<Vec<String>> = rows.iter().map(|r| r.map(String::from).to_vec()).collect();
        let text = align(&["dataset", "eps", "f1"], &rows);
        assert_eq!(
            text,
            "dataset  eps  f1  \n------------------\nRDB      1    0.50\nSYN      15   0.90\n"
        );
    }
}
