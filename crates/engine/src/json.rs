//! Hand-rolled, dependency-free JSON: a [`Json`] value tree with a
//! writer ([`std::fmt::Display`]) and a small recursive-descent parser
//! ([`Json::parse`]).
//!
//! The engine cannot use `serde` (no registry access in this build
//! environment), and its reports only need the JSON essentials: objects
//! with string keys, arrays, strings, finite numbers, booleans, and
//! null. Non-finite numbers serialize as `null`, keeping every emitted
//! document strictly RFC 8259 conformant. The parser exists so that
//! tests — and downstream clients without a JSON stack — can round-trip
//! and inspect reports; it accepts exactly the constructs the writer
//! emits plus arbitrary whitespace.
//!
//! Since the wire surface of `fd-serve` feeds this parser *untrusted*
//! input, parsing is hardened: recursion depth and document size are
//! bounded ([`JsonLimits`], enforced by [`Json::parse_with_limits`] and,
//! with the default depth cap, by [`Json::parse`] itself), and every
//! malformed, truncated, or hostile document yields a structured
//! [`JsonError`] — never a panic or a stack overflow.

use std::collections::BTreeMap;
use std::fmt;

/// Resource bounds for parsing untrusted JSON.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JsonLimits {
    /// Maximum document size in bytes; longer inputs are rejected before
    /// any parsing work happens.
    pub max_bytes: usize,
    /// Maximum nesting depth of arrays/objects. The parser is recursive,
    /// so this bound is what keeps `[[[[…` from overflowing the stack.
    pub max_depth: usize,
}

impl JsonLimits {
    /// The default depth cap applied even by plain [`Json::parse`].
    pub const DEFAULT_MAX_DEPTH: usize = 128;

    /// Limits suitable for untrusted network input: 16 MiB, depth 128.
    pub const UNTRUSTED: JsonLimits = JsonLimits {
        max_bytes: 16 << 20,
        max_depth: JsonLimits::DEFAULT_MAX_DEPTH,
    };
}

impl Default for JsonLimits {
    fn default() -> JsonLimits {
        JsonLimits::UNTRUSTED
    }
}

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (serialized via Rust's shortest-round-trip float
    /// formatting; integers within `i64` range print without a dot).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builds an object from key/value pairs.
    pub fn obj<I: IntoIterator<Item = (&'static str, Json)>>(pairs: I) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Object field lookup; `None` on non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a JSON document (one value, optionally surrounded by
    /// whitespace). Depth is bounded by
    /// [`JsonLimits::DEFAULT_MAX_DEPTH`]; size is unbounded — use
    /// [`Json::parse_with_limits`] for wire input.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        Json::parse_with_limits(
            text,
            &JsonLimits {
                max_bytes: usize::MAX,
                max_depth: JsonLimits::DEFAULT_MAX_DEPTH,
            },
        )
    }

    /// Parses a JSON document under explicit resource bounds. Oversized
    /// documents fail immediately; nesting beyond `max_depth` fails at
    /// the offending bracket. Never panics on any input.
    pub fn parse_with_limits(text: &str, limits: &JsonLimits) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        if bytes.len() > limits.max_bytes {
            return Err(JsonError {
                pos: 0,
                message: format!(
                    "document is {} bytes, limit is {}",
                    bytes.len(),
                    limits.max_bytes
                ),
            });
        }
        let mut pos = 0usize;
        skip_ws(bytes, &mut pos);
        let value = parse_value(bytes, &mut pos, limits.max_depth)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError {
                pos,
                message: "trailing data after the document".into(),
            });
        }
        Ok(value)
    }

    /// Collects an object's fields into a map (testing convenience).
    pub fn to_map(&self) -> Option<BTreeMap<&str, &Json>> {
        match self {
            Json::Obj(pairs) => Some(pairs.iter().map(|(k, v)| (k.as_str(), v)).collect()),
            _ => None,
        }
    }
}

/// A parse error with a byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset the error occurred at.
    pub pos: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for JsonError {}

fn err(pos: usize, message: impl Into<String>) -> JsonError {
    JsonError {
        pos,
        message: message.into(),
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, token: &str) -> Result<(), JsonError> {
    if bytes[*pos..].starts_with(token.as_bytes()) {
        *pos += token.len();
        Ok(())
    } else {
        Err(err(*pos, format!("expected {token:?}")))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            if depth == 0 {
                return Err(err(*pos, "nesting exceeds the depth limit"));
            }
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                skip_ws(bytes, pos);
                items.push(parse_value(bytes, pos, depth - 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(err(*pos, "expected ',' or ']' in array")),
                }
            }
        }
        Some(b'{') => {
            if depth == 0 {
                return Err(err(*pos, "nesting exceeds the depth limit"));
            }
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                skip_ws(bytes, pos);
                let value = parse_value(bytes, pos, depth - 1)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(err(*pos, "expected ',' or '}' in object")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos).map(Json::Num),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(err(*pos, "expected a string"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| err(*pos, "non-ascii \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err(*pos, "invalid \\u escape"))?;
                        // The writer only emits BMP escapes (control
                        // characters), so surrogate pairs are out of scope.
                        let c = char::from_u32(code)
                            .ok_or_else(|| err(*pos, "surrogate \\u escape"))?;
                        out.push(c);
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "invalid escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole unescaped run up to the next quote or
                // backslash at once. Both are ASCII, so the run ends on a
                // character boundary of the input `&str` and is valid
                // UTF-8 itself; validating only the run keeps the parse
                // linear in the document size.
                let run = bytes[*pos..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .map_or(bytes.len(), |n| *pos + n);
                out.push_str(std::str::from_utf8(&bytes[*pos..run]).expect("input was a str"));
                *pos = run;
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<f64, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while matches!(
        bytes.get(*pos),
        Some(b'0'..=b'9') | Some(b'.') | Some(b'e') | Some(b'E') | Some(b'+') | Some(b'-')
    ) {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii");
    text.parse::<f64>()
        .map_err(|_| err(start, format!("invalid number {text:?}")))
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if !n.is_finite() {
                    f.write_str("null")
                } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_and_parses_scalars() {
        for (v, text) in [
            (Json::Null, "null"),
            (Json::Bool(true), "true"),
            (Json::Num(2.0), "2"),
            (Json::Num(2.5), "2.5"),
            (Json::Num(-0.125), "-0.125"),
            (Json::str("a\"b\\c\nd"), r#""a\"b\\c\nd""#),
        ] {
            assert_eq!(v.to_string(), text);
            assert_eq!(Json::parse(text).unwrap(), v);
        }
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn round_trips_nested_structures() {
        let v = Json::obj([
            ("cost", Json::Num(2.0)),
            ("methods", Json::Arr(vec![Json::str("Dichotomy")])),
            (
                "nested",
                Json::obj([
                    ("unicode", Json::str("Δ ⇒ ⊥3")),
                    ("flag", Json::Bool(false)),
                ]),
            ),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
        ]);
        let text = v.to_string();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn parses_whitespace_and_control_escapes() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : \"\\u0007x\" } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(v.get("b").unwrap().as_str().unwrap(), "\u{7}x");
        let c = Json::str("\u{1}");
        assert_eq!(Json::parse(&c.to_string()).unwrap(), c);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "\"abc", "{\"a\" 1}", "nul", "1 2", "{]"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        let e = Json::parse(&deep).unwrap_err();
        assert!(e.message.contains("depth"), "{e}");
        let deep_obj = "{\"k\":".repeat(100_000);
        assert!(Json::parse(&deep_obj).is_err());
        // Documents within the cap still parse.
        let ok = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn byte_limit_rejects_before_parsing() {
        let limits = JsonLimits {
            max_bytes: 8,
            max_depth: 4,
        };
        assert!(Json::parse_with_limits("[1,2]", &limits).is_ok());
        let e = Json::parse_with_limits("[1,2,3,4,5]", &limits).unwrap_err();
        assert_eq!(e.pos, 0);
        assert!(e.message.contains("limit"), "{e}");
        let e = Json::parse_with_limits(
            "[[[[[1]]]]]",
            &JsonLimits {
                max_bytes: 64,
                max_depth: 3,
            },
        )
        .unwrap_err();
        assert!(e.message.contains("depth"), "{e}");
    }
}
