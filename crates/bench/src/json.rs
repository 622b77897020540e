//! The report-layout writer of the harness, over the workspace's one JSON
//! module: everything in [`fedhh_telemetry::json`] (the [`Value`] tree,
//! the strict reader [`parse`], the typed accessor [`field`] through
//! [`Scalar`], and the escaper [`string`]) is re-exported here, so report
//! code names one `json` module for both directions.
//!
//! [`render`] formats one scalar cell (escaped strings, `true`/`false`,
//! `null`, exact integers, floats per [`Fmt`]); [`document`] lays out head
//! fields and inline row objects the way every report file has always been
//! laid out.

use std::fmt::Write as _;

pub use fedhh_telemetry::json::*;

/// How a float cell is written.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fmt {
    /// Fixed decimals (`{:.6}`, `{:.3}`, `{:.1}`).
    Fixed(usize),
    /// The shortest text that parses back to the same `f64`.
    Shortest,
}

/// Renders a scalar as JSON text; `fmt` applies to [`Value::Number`].
/// Arrays and objects are laid out by [`document`], not here.
pub fn render(value: &Value, fmt: Fmt) -> String {
    match (value, fmt) {
        (Value::String(s), _) => string(s),
        (Value::Uint(n), _) => n.to_string(),
        (Value::Number(n), Fmt::Fixed(decimals)) => format!("{n:.decimals$}"),
        (Value::Number(n), Fmt::Shortest) => n.to_string(),
        (Value::Bool(b), _) => b.to_string(),
        (Value::Null, _) => "null".to_string(),
        (Value::Array(_) | Value::Object(_), _) => {
            unreachable!("cells are scalars; containers are laid out by `document`")
        }
    }
}

/// One `"key": value` pair whose value is already rendered.
pub type Field<'a> = (&'a str, String);

/// One group of rows: its rendered label (unused when the document is
/// flat) and one field list per row.
pub type Group<'a> = (String, Vec<Vec<Field<'a>>>);

/// Lays out a report file: the head fields one per line, then the rows as
/// one inline object per line under `rows_key`.  With `nesting =
/// Some((list_key, label_key))` the rows sit one level down instead — a
/// `list_key` array of objects, each carrying its group's label under
/// `label_key` and its own `rows_key` array (`BENCH_epochs.json`'s arms).
pub fn document(
    head: &[Field<'_>],
    nesting: Option<(&str, &str)>,
    rows_key: &str,
    groups: &[Group<'_>],
) -> String {
    let mut out = String::from("{\n");
    write_head(&mut out, 2, head);
    match nesting {
        None => {
            for (_, rows) in groups {
                write_rows(&mut out, 2, rows_key, rows);
            }
        }
        Some((list_key, label_key)) => {
            let _ = writeln!(out, "  {}: [", string(list_key));
            for (i, (label, rows)) in groups.iter().enumerate() {
                out.push_str("    {\n");
                write_head(&mut out, 6, &[(label_key, label.clone())]);
                write_rows(&mut out, 6, rows_key, rows);
                out.push_str(if i + 1 < groups.len() {
                    "    },\n"
                } else {
                    "    }\n"
                });
            }
            out.push_str("  ]\n");
        }
    }
    out.push_str("}\n");
    out
}

fn write_head(out: &mut String, indent: usize, fields: &[Field<'_>]) {
    for (key, value) in fields {
        let _ = writeln!(out, "{:indent$}{}: {value},", "", string(key));
    }
}

fn write_rows(out: &mut String, indent: usize, key: &str, rows: &[Vec<Field<'_>>]) {
    let _ = writeln!(out, "{:indent$}{}: [", "", string(key));
    for (i, row) in rows.iter().enumerate() {
        let cells: Vec<String> = row
            .iter()
            .map(|(key, value)| format!("{}: {value}", string(key)))
            .collect();
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(out, "{:indent$}  {{{}}}{comma}", "", cells.join(", "));
    }
    let _ = writeln!(out, "{:indent$}]", "");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render_in_every_cell_format() {
        assert_eq!(render(&(0.5).to_value(), Fmt::Fixed(6)), "0.500000");
        assert_eq!(render(&(14.25).to_value(), Fmt::Fixed(1)), "14.2");
        assert_eq!(render(&(4.0).to_value(), Fmt::Shortest), "4");
        assert_eq!(
            render(&(0.1 + 0.2).to_value(), Fmt::Shortest),
            "0.30000000000000004"
        );
        assert_eq!(
            render(&(u64::MAX).to_value(), Fmt::Fixed(3)),
            "18446744073709551615"
        );
        assert_eq!(render(&(None::<u64>).to_value(), Fmt::Shortest), "null");
        assert_eq!(render(&(Some(8.0)).to_value(), Fmt::Shortest), "8");
        assert_eq!(render(&(false).to_value(), Fmt::Shortest), "false");
    }
}
