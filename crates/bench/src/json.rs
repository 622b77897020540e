//! The one JSON module of the harness (the workspace builds hermetically,
//! so no serde): the [`Value`] tree, a strict reader and the writer that
//! lays out every `BENCH_*.json` file.
//!
//! **Reading.**  [`parse`] accepts objects, arrays, strings, numbers,
//! booleans and `null`, nested at most [`MAX_DEPTH`] deep — pathological
//! input is an `Err`, never a stack overflow.  A number written as plain
//! digits is read **exactly** as a [`Value::Uint`]; every other number is a
//! finite [`Value::Number`].  The typed accessor [`field`] converts through
//! [`Scalar`], so an unsigned field rejects `-5`, `3.7` and `1e3`
//! instead of casting them, and every error names the offending key.
//!
//! **Writing.**  [`Value::render`] formats one scalar cell (escaped
//! strings, `true`/`false`, `null`, exact integers, floats per [`Fmt`]);
//! [`document`] lays out head fields and inline row objects the way every
//! report file has always been laid out.

use std::fmt::Write as _;

/// Deepest nesting of arrays/objects [`parse`] accepts.
pub const MAX_DEPTH: usize = 64;

/// A JSON value — and, for the report layer, one scalar cell of a row.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An object, as insertion-ordered key/value pairs.
    Object(Vec<(String, Value)>),
    /// An array.
    Array(Vec<Value>),
    /// A string.
    String(String),
    /// A non-negative integer written as plain digits, read exactly.
    Uint(u64),
    /// Any other (finite) number.
    Number(f64),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
}

/// How a float cell is written.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fmt {
    /// Fixed decimals (`{:.6}`, `{:.3}`, `{:.1}`).
    Fixed(usize),
    /// The shortest text that parses back to the same `f64`.
    Shortest,
}

impl Value {
    /// The fields of an object; `what` names the value in the error.
    pub fn object(&self, what: &str) -> Result<&[(String, Value)], String> {
        match self {
            Value::Object(fields) => Ok(fields),
            _ => Err(format!("{what} must be an object")),
        }
    }

    /// The items of an array; `what` names the value in the error.
    pub fn array(&self, what: &str) -> Result<&[Value], String> {
        match self {
            Value::Array(items) => Ok(items),
            _ => Err(format!("{what} must be an array")),
        }
    }

    /// A numeric cell as `f64` (for threshold comparisons and tables).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Uint(n) => Some(*n as f64),
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// Renders a scalar as JSON text; `fmt` applies to [`Value::Number`].
    /// Arrays and objects are laid out by [`document`], not here.
    pub fn render(&self, fmt: Fmt) -> String {
        match (self, fmt) {
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
}

/// A Rust type that sits in one scalar cell: written as a [`Value`], and
/// read back strictly — no truncation, no sign reinterpretation, no
/// string/number coercion.
pub trait Scalar: Sized {
    /// The cell holding this value.
    fn to_value(&self) -> Value;
    /// Converts `value` back, or says what it should have been.
    fn from_value(value: &Value) -> Result<Self, String>;
}

impl Scalar for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
    fn from_value(value: &Value) -> Result<Self, String> {
        match value {
            Value::String(s) => Ok(s.clone()),
            other => Err(format!("is not a string: {other:?}")),
        }
    }
}

impl Scalar for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
    fn from_value(value: &Value) -> Result<Self, String> {
        match value {
            Value::Bool(b) => Ok(*b),
            other => Err(format!("is not a bool: {other:?}")),
        }
    }
}

impl Scalar for f64 {
    fn to_value(&self) -> Value {
        Value::Number(*self)
    }
    fn from_value(value: &Value) -> Result<Self, String> {
        value
            .as_f64()
            .ok_or_else(|| format!("is not a number: {value:?}"))
    }
}

macro_rules! unsigned_scalar {
    ($($ty:ty),*) => {$(
        impl Scalar for $ty {
            fn to_value(&self) -> Value {
                Value::Uint(*self as u64)
            }
            fn from_value(value: &Value) -> Result<Self, String> {
                match value {
                    Value::Uint(n) => <$ty>::try_from(*n)
                        .map_err(|_| format!("is out of range for {}: {n}", stringify!($ty))),
                    other => Err(format!("is not an unsigned integer: {other:?}")),
                }
            }
        }
    )*};
}
unsigned_scalar!(u64, u32, usize);

impl<T: Scalar> Scalar for Option<T> {
    fn to_value(&self) -> Value {
        self.as_ref().map_or(Value::Null, Scalar::to_value)
    }
    fn from_value(value: &Value) -> Result<Self, String> {
        match value {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

/// Looks `key` up in an object.
pub fn get<'a>(obj: &'a [(String, Value)], key: &str) -> Result<&'a Value, String> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing key {key:?}"))
}

/// The typed accessor: `key`'s value converted through [`Scalar`], with
/// the key named in any error.
pub fn field<T: Scalar>(obj: &[(String, Value)], key: &str) -> Result<T, String> {
    T::from_value(get(obj, key)?).map_err(|err| format!("key {key:?} {err}"))
}

/// Parses one JSON document (trailing whitespace allowed).
pub fn parse(text: &str) -> Result<Value, String> {
    let mut reader = Reader { text, pos: 0 };
    let value = reader.value(0)?;
    reader.skip_ws();
    if reader.pos != text.len() {
        return Err(format!("trailing garbage at byte {}", reader.pos));
    }
    Ok(value)
}

struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl Reader<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        if self.peek() != Some(want) {
            let (want, found) = (want as char, self.peek().map(char::from));
            return Err(format!(
                "expected {want:?} at byte {}, found {found:?}",
                self.pos
            ));
        }
        self.pos += 1;
        Ok(())
    }

    /// `depth` counts the containers already open around this value.
    fn value(&mut self, depth: usize) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if depth >= MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )),
            Some(b'{') => {
                let field = |reader: &mut Self| {
                    let key = reader.string()?;
                    reader.skip_ws();
                    reader.expect(b':')?;
                    Ok((key, reader.value(depth + 1)?))
                };
                self.items(b'}', field).map(Value::Object)
            }
            Some(b'[') => self
                .items(b']', |reader| reader.value(depth + 1))
                .map(Value::Array),
            Some(b'"') => self.string().map(Value::String),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".to_string()),
        }
    }

    /// The comma-separated items of the object or array opening here, up
    /// to its `close` bracket.
    fn items<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(items);
        }
        loop {
            self.skip_ws();
            items.push(item(self)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(items);
                }
                other => {
                    let (close, found) = (close as char, other.map(char::from));
                    return Err(format!("expected ',' or {close:?}, found {found:?}"));
                }
            }
        }
    }

    fn literal(&mut self, literal: &str, value: Value) -> Result<Value, String> {
        if !self.text[self.pos..].starts_with(literal) {
            return Err(format!("invalid literal at byte {}", self.pos));
        }
        self.pos += literal.len();
        Ok(value)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        let mut chars = self.text[self.pos..].char_indices();
        while let Some((at, c)) = chars.next() {
            match c {
                '"' => {
                    self.pos += at + 1;
                    return Ok(out);
                }
                '\\' => out.push(match chars.next().ok_or("unterminated escape")?.1 {
                    escaped @ ('"' | '\\' | '/') => escaped,
                    'n' => '\n',
                    'r' => '\r',
                    't' => '\t',
                    'u' => {
                        let hex: String = chars.by_ref().take(4).map(|(_, c)| c).collect();
                        let code = u32::from_str_radix(&hex, 16)
                            .ok()
                            .filter(|_| hex.len() == 4);
                        let code = code.ok_or_else(|| format!("invalid \\u escape {hex:?}"))?;
                        char::from_u32(code).unwrap_or('\u{FFFD}')
                    }
                    other => return Err(format!("unsupported escape \\{other}")),
                }),
                c => out.push(c),
            }
        }
        Err("unterminated string".to_string())
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        if text.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::Uint(n));
            }
        }
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Value::Number(n)),
            _ => Err(format!("invalid number {text:?} at byte {start}")),
        }
    }
}

/// Escapes a string as a JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
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
    fn plain_digit_tokens_are_exact_unsigned_integers() {
        assert_eq!(parse("18446744073709551615"), Ok(Value::Uint(u64::MAX)));
        assert_eq!(parse("0"), Ok(Value::Uint(0)));
        // Anything else numeric is a float — including integral-looking
        // spellings, which an unsigned field therefore refuses.
        assert_eq!(parse("5.0"), Ok(Value::Number(5.0)));
        assert_eq!(parse("-5"), Ok(Value::Number(-5.0)));
        assert_eq!(parse("1e3"), Ok(Value::Number(1000.0)));
        // One past u64::MAX no longer fits an integer and reads as a float.
        assert_eq!(
            parse("18446744073709551616"),
            Ok(Value::Number(18446744073709551616.0))
        );
        assert!(parse("1e999").is_err(), "non-finite numbers are rejected");
        assert!(parse("--1").is_err());
    }

    #[test]
    fn typed_accessors_reject_instead_of_casting() {
        let doc = parse(
            r#"{"neg": -5, "frac": 3.7, "big": 4294967296, "ok": 7, "s": "x",
                "none": null, "exp": 1e3, "huge": 18446744073709551616}"#,
        )
        .unwrap();
        let obj = doc.object("doc").unwrap();
        for key in ["neg", "frac", "exp", "huge", "s", "none"] {
            let err = field::<u64>(obj, key).unwrap_err();
            assert!(err.contains(&format!("{key:?}")), "{err}");
        }
        assert_eq!(field::<u64>(obj, "ok"), Ok(7));
        assert_eq!(field::<u64>(obj, "big"), Ok(1 << 32));
        let err = field::<u32>(obj, "big").unwrap_err();
        assert!(
            err.contains("\"big\"") && err.contains("out of range"),
            "{err}"
        );
        assert_eq!(field::<f64>(obj, "ok"), Ok(7.0));
        assert_eq!(field::<f64>(obj, "frac"), Ok(3.7));
        assert!(field::<f64>(obj, "s").is_err());
        assert_eq!(field::<Option<u64>>(obj, "none"), Ok(None));
        assert_eq!(field::<Option<u64>>(obj, "ok"), Ok(Some(7)));
        assert!(field::<Option<u64>>(obj, "frac").is_err());
        assert!(field::<String>(obj, "ok").is_err());
        assert!(field::<bool>(obj, "absent")
            .unwrap_err()
            .contains("missing key"));
    }

    #[test]
    fn nesting_is_bounded_not_recursed_into() {
        // 200 000 open brackets used to overflow the stack.
        for open in ["[", "{\"a\":"] {
            let err = parse(&open.repeat(200_000)).unwrap_err();
            assert!(err.contains("nesting deeper"), "{err}");
        }
        let deepest = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&deepest).is_ok());
        let too_deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert!(parse(&too_deep).is_err());
    }

    #[test]
    fn strings_round_trip_through_escape_and_parse() {
        let raw = "quote \" backslash \\ tab \t newline \n bell \u{7} é ✓";
        assert_eq!(parse(&string(raw)), Ok(Value::String(raw.to_string())));
    }

    #[test]
    fn the_reader_is_whitespace_tolerant_and_rejects_malformed_documents() {
        let doc = parse(" { \"a\" : [ 1 , 2.5 ] ,\n\t\"b\" : { } , \"c\":[] } ").unwrap();
        let obj = doc.object("doc").unwrap();
        assert_eq!(
            get(obj, "a"),
            Ok(&Value::Array(vec![Value::Uint(1), Value::Number(2.5)]))
        );
        assert_eq!(get(obj, "b"), Ok(&Value::Object(vec![])));
        assert_eq!(
            parse(r#""\u00e9\/\n""#),
            Ok(Value::String("é/\n".to_string()))
        );
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "{a:1}",
            "tru",
            "nul",
            "[1 2]",
            "1 2",
            "\"abc",
            "\"\\",
            "\"\\q\"",
            "\"\\u12\"",
            "\"\\u12",
            "\"\\uzzzz\"",
            "é",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn scalars_render_in_every_cell_format() {
        assert_eq!((0.5).to_value().render(Fmt::Fixed(6)), "0.500000");
        assert_eq!((14.25).to_value().render(Fmt::Fixed(1)), "14.2");
        assert_eq!((4.0).to_value().render(Fmt::Shortest), "4");
        assert_eq!(
            (0.1 + 0.2).to_value().render(Fmt::Shortest),
            "0.30000000000000004"
        );
        assert_eq!(
            (u64::MAX).to_value().render(Fmt::Fixed(3)),
            "18446744073709551615"
        );
        assert_eq!((None::<u64>).to_value().render(Fmt::Shortest), "null");
        assert_eq!((Some(8.0)).to_value().render(Fmt::Shortest), "8");
        assert_eq!((false).to_value().render(Fmt::Shortest), "false");
    }
}
