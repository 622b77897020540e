//! The one JSON reader and string escaper of the workspace (it builds
//! hermetically, so no serde): the [`Value`] tree, a strict [`parse`], the
//! typed accessor [`field`] and the escaper behind every written string.
//! The JSONL trace parser ([`crate::TraceLine::parse`]) and the report
//! files of `fedhh-bench` both read through it.
//!
//! [`parse`] accepts objects, arrays, strings, numbers, booleans and
//! `null`, nested at most [`MAX_DEPTH`] deep — pathological input is an
//! `Err`, never a stack overflow.  Numbers follow RFC 8259's grammar (no
//! leading `+`, no leading zeros, digits on both sides of a `.`, digits in
//! an exponent), and an object that repeats a key is an `Err` naming the
//! key.  A number written as plain digits is read **exactly** as a
//! [`Value::Uint`]; every other number is a finite [`Value::Number`].
//! [`field`] converts through [`Scalar`], so an unsigned field rejects
//! `-5`, `3.7` and `1e3` instead of casting them, and every error names the
//! offending key.

use std::collections::HashSet;
use std::fmt::Write as _;

/// Deepest nesting of arrays/objects [`parse`] accepts.
pub const MAX_DEPTH: usize = 64;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An object, as insertion-ordered key/value pairs (keys are unique).
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

    /// A numeric value as `f64` (for threshold comparisons and tables).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Uint(n) => Some(*n as f64),
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }
}

/// A Rust type that sits in one scalar value: written as a [`Value`], and
/// read back strictly — no truncation, no sign reinterpretation, no
/// string/number coercion.
pub trait Scalar: Sized {
    /// The value holding this one.
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
unsigned_scalar!(u64, u32, u8, usize);

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

/// Parses one JSON document (surrounding whitespace allowed).
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

    /// Consumes the next byte when it is one of `any`.
    fn eat(&mut self, any: &[u8]) -> bool {
        let hit = self.peek().is_some_and(|b| any.contains(&b));
        self.pos += usize::from(hit);
        hit
    }

    /// Consumes a run of ASCII digits and returns its length.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
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
                let start = self.pos;
                let field = |reader: &mut Self| {
                    let key = reader.string()?;
                    reader.skip_ws();
                    reader.expect(b':')?;
                    Ok((key, reader.value(depth + 1)?))
                };
                let fields = self.items(b'}', field)?;
                let mut keys = HashSet::new();
                match fields.iter().find(|(key, _)| !keys.insert(key)) {
                    Some((key, _)) => Err(format!(
                        "duplicate key {key:?} in the object at byte {start}"
                    )),
                    None => Ok(Value::Object(fields)),
                }
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
                        let code = u32::from_str_radix(&hex, 16).ok().filter(|_| {
                            hex.len() == 4 && hex.bytes().all(|b| b.is_ascii_hexdigit())
                        });
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

    /// RFC 8259: `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        let negative = self.eat(b"-");
        let int_digits = self.digits();
        let valid = match int_digits {
            0 => false,
            1 => true,
            _ => self.text.as_bytes()[self.pos - int_digits] != b'0',
        } && (!self.eat(b".") || self.digits() > 0)
            && (!self.eat(b"eE") || {
                self.eat(b"+-");
                self.digits() > 0
            });
        if !valid {
            let rest = self.text[start..].bytes();
            let len = rest.take_while(|b| b.is_ascii_digit() || b"+-.eE".contains(b));
            let text = &self.text[start..start + len.count()];
            return Err(format!("invalid number {text:?} at byte {start}"));
        }
        let text = &self.text[start..self.pos];
        if !negative && self.pos - start == int_digits {
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

/// Escapes a string for the inside of a JSON string literal (quotes,
/// backslashes and control characters; everything else passes through
/// verbatim).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// A string as a quoted JSON string literal.
pub fn string(s: &str) -> String {
    format!("\"{}\"", escape(s))
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
    fn numbers_follow_the_rfc_8259_grammar() {
        for (good, value) in [
            ("-0", Value::Number(-0.0)),
            ("0.5", Value::Number(0.5)),
            ("-12.25", Value::Number(-12.25)),
            ("1E-3", Value::Number(0.001)),
            ("2e+2", Value::Number(200.0)),
            ("0e0", Value::Number(0.0)),
            ("10", Value::Uint(10)),
        ] {
            assert_eq!(parse(good), Ok(value), "{good}");
        }
        for bad in [
            "+5", ".5", "5.", "-.5", "-", "007", "00", "-01", "01.5", "1.e3", "1e", "1e+", "1E-",
            "1.5e", "0x10", "1_000",
        ] {
            let err = parse(bad).expect_err(bad);
            assert!(
                err.contains("number") || err.contains("garbage"),
                "{bad}: {err}"
            );
            let in_array = format!("[{bad}]");
            assert!(parse(&in_array).is_err(), "{in_array}");
        }
        // The error quotes the offending token.
        assert_eq!(
            parse("[1, 007]").unwrap_err(),
            "invalid number \"007\" at byte 4"
        );
    }

    #[test]
    fn an_object_that_repeats_a_key_is_rejected_naming_it() {
        let err = parse(r#"{"a": 1, "b": {"c": 2, "c": 3}}"#).unwrap_err();
        assert!(err.contains("duplicate key \"c\""), "{err}");
        assert!(
            parse(r#"[{"a": 1}, {"a": 2}]"#).is_ok(),
            "keys are per object"
        );
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
        assert_eq!(field::<u8>(obj, "ok"), Ok(7));
        assert!(field::<u8>(obj, "big").unwrap_err().contains("u8"));
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
        assert_eq!(string(raw), format!("\"{}\"", escape(raw)));
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
            "\"\\u+123\"",
            "é",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }
}
