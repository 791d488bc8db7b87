//! A minimal, dependency-free JSON tree: build, render, and parse.
//!
//! Object key order is preserved (objects are `Vec<(String, Value)>`), so
//! renders are stable and exporters control field order exactly. The parser
//! is a small recursive-descent implementation sufficient for round-tripping
//! our own exports and validating Perfetto files in tests/CI.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object with preserved key order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Shorthand for `Value::Str`.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Field lookup on objects (`None` for other variants or missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is a `Num`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an `Arr`.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Render to a compact JSON string. Non-finite numbers render as `null`
    /// (JSON has no NaN/Inf); integral numbers render without a fraction.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => render_num(*n, out),
            Value::Str(s) => render_string(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Append `n` as [`Value::Num`] renders it: `null` when not finite,
/// without a fraction when integral. For exporters that write a document
/// straight into its output string.
pub(crate) fn render_num(n: f64, out: &mut String) {
    // Writing into a `String` cannot fail.
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// Append `s` as a quoted, escaped JSON string (see [`render_num`]).
pub(crate) fn render_string(s: &str, out: &mut String) {
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
}

// The one field reader: what the recording and baseline readers take from
// a document they did not write. Each value reader checks the type and
// range its writer writes and says what is wrong; each field reader adds
// the field's name. A cast or a default would turn `-1`, `2.5`, `1e30`,
// `"7"` or a missing field into some other value without a word.

/// `v` as a number.
pub(crate) fn num(v: &Value) -> Result<f64, String> {
    v.as_f64()
        .ok_or_else(|| format!("is not a number: {}", v.render()))
}

/// `v` as a number that `holds`, which `what` names.
fn num_that(v: &Value, what: &str, holds: impl Fn(f64) -> bool) -> Result<f64, String> {
    let n = num(v)?;
    holds(n)
        .then_some(n)
        .ok_or_else(|| format!("is not {what}: {n:?}"))
}

/// `v` as a finite number.
pub(crate) fn finite(v: &Value) -> Result<f64, String> {
    num_that(v, "finite", f64::is_finite)
}

/// `v` as a finite number not below zero.
pub(crate) fn non_negative(v: &Value) -> Result<f64, String> {
    num_that(v, "finite and non-negative", |n| n.is_finite() && n >= 0.0)
}

/// `v` as a whole number from 0 to `max` as a writer renders it: a
/// `u64` goes through `f64`, so `u64::MAX` is written as 2^64, which reads
/// back as `u64::MAX`.
pub(crate) fn uint(v: &Value, max: u64) -> Result<u64, String> {
    let whole = |n: f64| n >= 0.0 && n <= max as f64 && n.fract() == 0.0;
    num_that(v, "an integer in range", whole).map(|n| (n as u64).min(max))
}

/// Field `key` of object `v`, read by `read`.
pub(crate) fn field<'a, T>(
    v: &'a Value,
    key: &str,
    read: impl FnOnce(&'a Value) -> Result<T, String>,
) -> Result<T, String> {
    let x = v.get(key).ok_or_else(|| format!("missing field {key:?}"))?;
    read(x).map_err(|e| format!("field {key:?} {e}"))
}

/// Number field `key` of `v`.
pub(crate) fn field_num(v: &Value, key: &str) -> Result<f64, String> {
    field(v, key, num)
}

/// Whole-number field `key` of `v`, from 0 to `max` (see [`uint`]).
pub(crate) fn field_uint(v: &Value, key: &str, max: u64) -> Result<u64, String> {
    field(v, key, |x| uint(x, max))
}

/// Field `key` of `v` as a simulated time in seconds: not negative, and
/// finite in microseconds (what a Perfetto document holds).
pub(crate) fn field_time(v: &Value, key: &str) -> Result<f64, String> {
    field(v, key, |x| {
        num_that(x, "a time", |t| t >= 0.0 && (t * 1e6).is_finite())
    })
}

/// `v` as a string.
pub(crate) fn string(v: &Value) -> Result<&str, String> {
    v.as_str()
        .ok_or_else(|| format!("is not a string: {}", v.render()))
}

/// String field `key` of `v`.
pub(crate) fn field_str<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    field(v, key, string)
}

/// Array field `key` of `v`, each element read by `read`.
pub(crate) fn field_arr<T>(
    v: &Value,
    key: &str,
    read: impl Fn(&Value) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    field(v, key, |x| match x {
        Value::Arr(items) => items
            .iter()
            .enumerate()
            .map(|(i, item)| read(item).map_err(|e| format!("element {i} {e}")))
            .collect(),
        other => Err(format!("is not an array: {}", other.render())),
    })
}

/// Object field `key` of `v`, each entry's value read by `read`, in the
/// document's order; an entry's error names it as field `key.name`.
pub(crate) fn field_entries<T>(
    v: &Value,
    key: &str,
    read: impl Fn(&Value) -> Result<T, String>,
) -> Result<Vec<(String, T)>, String> {
    match v.get(key) {
        Some(Value::Obj(entries)) => entries
            .iter()
            .map(|(name, x)| match read(x) {
                Ok(t) => Ok((name.clone(), t)),
                Err(e) => Err(format!("field {:?} {e}", format!("{key}.{name}"))),
            })
            .collect(),
        _ => field(v, key, |x| Err(format!("is not an object: {}", x.render()))),
    }
}

/// [`field_entries`] keyed by name.
pub(crate) fn field_map<T>(
    v: &Value,
    key: &str,
    read: impl Fn(&Value) -> Result<T, String>,
) -> Result<BTreeMap<String, T>, String> {
    Ok(field_entries(v, key, read)?.into_iter().collect())
}

/// Arrays and objects nested deeper than this are refused: our writers
/// nest a handful of levels, and each level is a frame of the parser's
/// recursion, so an unbounded depth would let a file overflow the stack.
pub const MAX_DEPTH: usize = 128;

/// Why [`parse`] refused a document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// An array or object opens at `byte` more than [`MAX_DEPTH`] levels
    /// down.
    TooDeep {
        /// Offset of the bracket that went over the limit.
        byte: usize,
    },
    /// Anything else malformed, described with the byte where it is.
    Malformed(String),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::TooDeep { byte } => write!(
                f,
                "nested deeper than {MAX_DEPTH} arrays and objects at byte {byte}"
            ),
            ParseError::Malformed(what) => f.write_str(what),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<ParseError> for String {
    fn from(e: ParseError) -> String {
        e.to_string()
    }
}

/// Parse a JSON document. Returns a descriptive error on malformed input.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(bad(format!("trailing data at byte {}", p.pos)));
    }
    Ok(v)
}

/// A [`ParseError::Malformed`] saying `what`.
fn bad(what: impl Into<String>) -> ParseError {
    ParseError::Malformed(what.into())
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(bad(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            )))
        }
    }

    /// The array or object opening at `pos`, read by `read` one level
    /// further down.
    fn nested(
        &mut self,
        read: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(ParseError::TooDeep { byte: self.pos });
        }
        self.depth += 1;
        let v = read(self);
        self.depth -= 1;
        v
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            other => Err(bad(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(bad(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| bad(format!("invalid number {text:?} at byte {start}")))
    }

    fn string(&mut self) -> Result<String, ParseError> {
        let start = self.pos;
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(bad(format!("unterminated string at byte {start}"))),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let at = self.pos;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let code = self
                                .bytes
                                .get(at + 1..at + 5)
                                .and_then(|hex| std::str::from_utf8(hex).ok())
                                .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                                .ok_or_else(|| bad(format!("bad \\u escape at byte {at}")))?;
                            // Surrogate pairs are not needed for our exports;
                            // map unpaired surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => {
                            return Err(bad(format!(
                                "bad escape {:?} at byte {at}",
                                other.map(|b| b as char)
                            )))
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // The run up to the next quote or backslash, copied
                    // whole: both are ASCII, so the run ends on a char
                    // boundary of the text, and every byte is read once.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(self.bytes.len() - self.pos);
                    out.push_str(&self.text[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(bad(format!("expected ',' or ']' at byte {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(bad(format!("expected ',' or '}}' at byte {}", self.pos))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_structures() {
        let v = Value::Obj(vec![
            ("name".into(), Value::str("gpmr")),
            ("n".into(), Value::Num(42.0)),
            ("ratio".into(), Value::Num(0.5)),
            ("ok".into(), Value::Bool(true)),
            ("none".into(), Value::Null),
            (
                "arr".into(),
                Value::Arr(vec![Value::Num(1.0), Value::str("x")]),
            ),
        ]);
        let text = v.render();
        assert_eq!(
            text,
            r#"{"name":"gpmr","n":42,"ratio":0.5,"ok":true,"none":null,"arr":[1,"x"]}"#
        );
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn escapes_round_trip() {
        let v = Value::str("a\"b\\c\nd\te\u{1}f");
        let text = v.render();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn parses_whitespace_and_numbers() {
        let v = parse(" { \"a\" : [ -1.5e2 , 0 ] } ").unwrap();
        let arr = v.get("a").and_then(Value::as_arr).unwrap();
        assert_eq!(arr[0].as_f64(), Some(-150.0));
        assert_eq!(arr[1].as_f64(), Some(0.0));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} extra").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn nesting_past_the_limit_is_refused_naming_the_byte() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&deep(MAX_DEPTH)).is_ok());
        assert_eq!(
            parse(&deep(MAX_DEPTH + 1)),
            Err(ParseError::TooDeep { byte: MAX_DEPTH })
        );
        let objects = "{\"a\":".repeat(50_000);
        let err = parse(&objects).unwrap_err();
        assert_eq!(
            err,
            ParseError::TooDeep {
                byte: 5 * MAX_DEPTH
            }
        );
        assert!(
            err.to_string()
                .contains(&format!("at byte {}", 5 * MAX_DEPTH)),
            "{err}"
        );
    }

    #[test]
    fn strings_copy_runs_between_escapes() {
        let v = parse("[\"aé\\u00e9\\n€z\", \"\"]").unwrap();
        assert_eq!(v, Value::Arr(vec![Value::str("aéé\n€z"), Value::str("")]));
        assert!(parse("\"abc").unwrap_err().to_string().contains("byte 0"));
        assert!(parse("\"\\u12\"")
            .unwrap_err()
            .to_string()
            .contains("byte 2"));
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        assert_eq!(Value::Num(f64::NAN).render(), "null");
        assert_eq!(Value::Num(f64::INFINITY).render(), "null");
    }
}
