//! Hand-rolled, dependency-free JSON: a [`Json`] value tree, the byte
//! writer that both its [`std::fmt::Display`] and the report writer
//! ([`crate::RepairReport::to_json_bytes`],
//! [`crate::RepairReport::write_json`]) are built from, and a small
//! recursive-descent parser ([`Json::parse`]).
//!
//! The writer appends bytes to one `Vec<u8>` (`Out`): integers by a
//! two-digit table, strings by escaped runs, and nothing goes through
//! `fmt` but non-integral floats. A streaming `Out` hands its buffer to
//! the target at element boundaries once it holds `CHUNK` bytes.
//!
//! The engine cannot use `serde` (no registry access in this build
//! environment), and its reports only need the JSON essentials: objects
//! with string keys, arrays, strings, finite numbers, booleans, and
//! null. Non-finite numbers serialize as `null`, keeping every emitted
//! document strictly RFC 8259 conformant. The parser, a cursor over the
//! text (`Reader`), builds a [`Json`] tree for tests and downstream
//! clients without a JSON stack, or builds nothing and only checks: the
//! wire reader's first pass, after which it takes each member straight
//! from the text. It accepts exactly the constructs the writer emits
//! plus arbitrary whitespace.
//!
//! Since the wire surface of `fd-serve` feeds this parser *untrusted*
//! input, parsing is hardened: recursion depth and document size are
//! bounded ([`JsonLimits`], enforced by [`Json::parse_with_limits`] and,
//! with the default depth cap, by [`Json::parse`] itself), and every
//! malformed, truncated, or hostile document yields a structured
//! [`JsonError`] — never a panic or a stack overflow.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Write as _};

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
    /// An integer of magnitude 9·10¹⁵ or more, kept exact: past there an
    /// `f64` misses integers (2⁵³ + 1) or prints by its shortest digits
    /// (`i64::MIN` as -9223372036854776000). The parser makes one of
    /// every such integral token, and `Json::from(i64)` of every such
    /// integer; every other number is a [`Json::Num`], and
    /// [`Json::as_num`] reads both.
    Int(i64),
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
            Json::Int(i) => Some(*i as f64),
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
        document(text, limits, |r| r.value(limits.max_depth))
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

#[cold]
fn err(pos: usize, message: impl Into<String>) -> JsonError {
    JsonError {
        pos,
        message: message.into(),
    }
}

/// The frame of every document: the size limit, checked before any
/// parsing work, then one value read by `read` with optional whitespace
/// around it, and nothing after.
fn document<'a, T>(
    text: &'a str,
    limits: &JsonLimits,
    read: impl FnOnce(&mut Reader<'a>) -> Result<T, JsonError>,
) -> Result<T, JsonError> {
    if text.len() > limits.max_bytes {
        return Err(err(
            0,
            format!(
                "document is {} bytes, limit is {}",
                text.len(),
                limits.max_bytes
            ),
        ));
    }
    let mut reader = Reader::at(text, 0);
    reader.skip_ws();
    let value = read(&mut reader)?;
    reader.skip_ws();
    if reader.pos != text.len() {
        return Err(err(reader.pos, "trailing data after the document"));
    }
    Ok(value)
}

/// Where each top-level member of a document starts: its key, and the
/// byte offset of its value, in document order (duplicates included).
pub(crate) type Members<'a> = Vec<(Cow<'a, str>, usize)>;

/// Scans a whole document under `limits` and builds nothing: every
/// malformed, oversized or too-deep document fails exactly as
/// [`Json::parse_with_limits`] fails on it. For an object, returns where
/// each member's value starts, so that a reader can then take the
/// members it wants from the text with a [`Reader`]; `None` for any
/// other document.
pub(crate) fn scan_members<'a>(
    text: &'a str,
    limits: &JsonLimits,
) -> Result<Option<Members<'a>>, JsonError> {
    document(text, limits, |r| {
        if r.peek() != Some(b'{') || limits.max_depth == 0 {
            r.skip(limits.max_depth)?;
            return Ok(None);
        }
        let mut members = Vec::new();
        r.members(|key, r| {
            members.push((key, r.pos));
            r.skip(limits.max_depth - 1)
        })?;
        Ok(Some(members))
    })
}

/// A cursor over JSON text: the recursive-descent parser. Its
/// [`Reader::value`] builds a [`Json`] tree and [`Reader::skip`] only
/// checks the text; [`Reader::items`], [`Reader::members`],
/// [`Reader::string`] and [`Reader::number`] step through a value piece
/// by piece, so a caller that knows what it expects (the wire reader)
/// can take it straight from the text.
pub(crate) struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at byte `pos` of `text`.
    pub(crate) fn at(text: &'a str, pos: usize) -> Reader<'a> {
        Reader { text, pos }
    }

    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    #[inline]
    fn skip_ws(&mut self) {
        let bytes = self.bytes();
        while self.pos < bytes.len() && matches!(bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r') {
            self.pos += 1;
        }
    }

    /// The byte the value under the cursor starts with. [`Reader::items`]
    /// and [`Reader::members`] hand over cursors at their values' first
    /// byte, and [`scan_members`] records members' values there too.
    pub(crate) fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    /// Reads the value under the cursor as a tree, in text that
    /// [`scan_members`] has checked: the scan has bounded its depth.
    pub(crate) fn tree(&mut self) -> Result<Json, JsonError> {
        self.value(usize::MAX)
    }

    /// Steps over the value under the cursor, in checked text.
    pub(crate) fn skip_checked(&mut self) -> Result<(), JsonError> {
        self.skip(usize::MAX)
    }

    #[inline]
    fn expect(&mut self, token: &str) -> Result<(), JsonError> {
        if self.bytes()[self.pos..].starts_with(token.as_bytes()) {
            self.pos += token.len();
            Ok(())
        } else {
            Err(err(self.pos, format!("expected {token:?}")))
        }
    }

    /// Reads one value, at most `depth` arrays or objects deep, as a
    /// tree.
    pub(crate) fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        match self.bytes().get(self.pos) {
            Some(b'"') => Ok(Json::Str(self.string()?.into_owned())),
            Some(b'[') if depth > 0 => {
                let mut items = Vec::new();
                self.items(|r| {
                    items.push(r.value(depth - 1)?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'{') if depth > 0 => {
                let mut pairs = Vec::new();
                self.members(|key, r| {
                    pairs.push((key.into_owned(), r.value(depth - 1)?));
                    Ok(())
                })?;
                Ok(Json::Obj(pairs))
            }
            _ => self.scalar(),
        }
    }

    /// Steps over one value, at most `depth` arrays or objects deep,
    /// and builds nothing: [`Reader::value`] in the mode that only
    /// checks, failing wherever and however `value` fails.
    pub(crate) fn skip(&mut self, depth: usize) -> Result<(), JsonError> {
        match self.bytes().get(self.pos) {
            Some(b'"') => self.string().map(drop),
            Some(b'[') if depth > 0 => self.items(|r| r.skip(depth - 1)),
            Some(b'{') if depth > 0 => self.members(|_, r| r.skip(depth - 1)),
            _ => self.scalar().map(drop),
        }
    }

    /// A value that is neither a string nor a container within the depth
    /// limit: a literal or a number, or the error for a container too
    /// deep or for input that has ended.
    fn scalar(&mut self) -> Result<Json, JsonError> {
        match self.bytes().get(self.pos) {
            None => Err(err(self.pos, "unexpected end of input")),
            Some(b'n') => self.expect("null").map(|()| Json::Null),
            Some(b't') => self.expect("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.expect("false").map(|()| Json::Bool(false)),
            Some(b'[' | b'{') => Err(err(self.pos, "nesting exceeds the depth limit")),
            Some(_) => {
                let start = self.pos;
                let n = self.number()?;
                // Only a token of 16 or more bytes can reach 9·10¹⁵.
                let token = &self.text[start..self.pos];
                let exact = (token.len() > 15).then(|| token.parse::<i64>().ok());
                Ok(exact.flatten().map_or(Json::Num(n), Json::from))
            }
        }
    }

    /// Steps through the array that starts here, calling `each` with
    /// the cursor at every item; `each` must read the item whole.
    pub(crate) fn items<E: From<JsonError>>(
        &mut self,
        mut each: impl FnMut(&mut Reader<'a>) -> Result<(), E>,
    ) -> Result<(), E> {
        self.expect("[")?;
        self.skip_ws();
        if self.bytes().get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            each(self)?;
            self.skip_ws();
            match self.bytes().get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(err(self.pos, "expected ',' or ']' in array").into()),
            }
        }
    }

    /// Steps through the object that starts here, calling `each` with
    /// every member's key and the cursor at its value; `each` must read
    /// the value whole.
    pub(crate) fn members<E: From<JsonError>>(
        &mut self,
        mut each: impl FnMut(Cow<'a, str>, &mut Reader<'a>) -> Result<(), E>,
    ) -> Result<(), E> {
        self.expect("{")?;
        self.skip_ws();
        if self.bytes().get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(":")?;
            self.skip_ws();
            each(key, self)?;
            self.skip_ws();
            match self.bytes().get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(err(self.pos, "expected ',' or '}' in object").into()),
            }
        }
    }

    /// Reads a string, borrowed from the text unless it has escapes.
    #[inline]
    pub(crate) fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        let (text, bytes) = (self.text, self.bytes());
        if bytes.get(self.pos) != Some(&b'"') {
            return Err(err(self.pos, "expected a string"));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            // The run up to the next quote or backslash, copied whole.
            // Both are ASCII, so the run ends on a character boundary
            // of the text; slicing it costs no UTF-8 check, which keeps
            // the parse linear in the document size.
            let run = bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .map_or(bytes.len(), |n| self.pos + n);
            let chunk = &text[self.pos..run];
            self.pos = run;
            match bytes.get(self.pos) {
                None => return Err(err(self.pos, "unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    if out.is_empty() {
                        return Ok(Cow::Borrowed(chunk));
                    }
                    out.push_str(chunk);
                    return Ok(Cow::Owned(out));
                }
                Some(_) => {
                    out.push_str(chunk);
                    self.pos += 1;
                    out.push(self.escape()?);
                    self.pos += 1;
                }
            }
        }
    }

    /// The character of the escape after a backslash; the cursor ends
    /// on the escape's last byte.
    fn escape(&mut self) -> Result<char, JsonError> {
        let pos = self.pos;
        Ok(match self.bytes().get(pos) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{0008}',
            Some(b'f') => '\u{000C}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let hex = self
                    .bytes()
                    .get(pos + 1..pos + 5)
                    .ok_or_else(|| err(pos, "truncated \\u escape"))?;
                let hex = std::str::from_utf8(hex).map_err(|_| err(pos, "non-ascii \\u escape"))?;
                let code =
                    u32::from_str_radix(hex, 16).map_err(|_| err(pos, "invalid \\u escape"))?;
                // The writer only emits BMP escapes (control
                // characters), so surrogate pairs are out of scope.
                let c = char::from_u32(code).ok_or_else(|| err(pos, "surrogate \\u escape"))?;
                self.pos += 4;
                c
            }
            _ => return Err(err(pos, "invalid escape")),
        })
    }

    /// Reads a number.
    #[inline]
    pub(crate) fn number(&mut self) -> Result<f64, JsonError> {
        let bytes = self.bytes();
        let start = self.pos;
        let negative = bytes.get(start) == Some(&b'-');
        let digits_start = start + usize::from(negative);
        let mut pos = digits_start;
        // Plain integers of up to 15 digits, the bulk of every table,
        // are exact in an f64: sum their digits on the way instead of
        // calling the general float parser, which agrees on all of them.
        let mut n = 0u64;
        while let Some(&digit @ b'0'..=b'9') = bytes.get(pos) {
            n = n.wrapping_mul(10).wrapping_add(u64::from(digit - b'0'));
            pos += 1;
        }
        let number_char =
            |b: Option<&u8>| matches!(b, Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'));
        if (1..=15).contains(&(pos - digits_start)) && !number_char(bytes.get(pos)) {
            self.pos = pos;
            let n = n as f64;
            return Ok(if negative { -n } else { n });
        }
        while number_char(bytes.get(pos)) {
            pos += 1;
        }
        self.pos = pos;
        let text = &self.text[start..pos];
        text.parse::<f64>()
            .map_err(|_| err(start, format!("invalid number {text:?}")))
    }
}

/// Bytes a streaming writer buffers before it hands them to its target:
/// it drains at the first element boundary at or past this size.
pub(crate) const CHUNK: usize = 64 << 10;

/// Where a streaming [`Out`] hands its chunks.
pub(crate) type Target<'a> = dyn FnMut(&[u8]) -> io::Result<()> + 'a;

/// The byte writer's output: one buffer that every helper below appends
/// to and, when streaming, the target it drains into. A streaming writer
/// marks element boundaries (rows, ids, array items) with
/// [`Out::boundary`], which hands the buffer to the target once it holds
/// [`CHUNK`] bytes, so every chunk ends on a character boundary. Without
/// a target the buffer is the whole document. The target's first error
/// is kept and returned by [`Out::finish`]; output after it is dropped.
pub(crate) struct Out<'a> {
    buf: Vec<u8>,
    target: Option<&'a mut Target<'a>>,
    /// Bytes already handed to the target.
    drained: usize,
    error: Option<io::Error>,
}

impl<'a> Out<'a> {
    /// A document written whole into `buf`, after its current bytes.
    pub(crate) fn buffer(buf: Vec<u8>) -> Out<'a> {
        Out {
            buf,
            target: None,
            drained: 0,
            error: None,
        }
    }

    /// A document streamed into `target` in chunks of about [`CHUNK`]
    /// bytes, through a buffer of `capacity` bytes.
    pub(crate) fn streaming(target: &'a mut Target<'a>, capacity: usize) -> Out<'a> {
        Out {
            target: Some(target),
            ..Out::buffer(Vec::with_capacity(capacity))
        }
    }

    /// Marks an element boundary: drains the buffer into the target if
    /// it holds [`CHUNK`] bytes or more.
    #[inline]
    pub(crate) fn boundary(&mut self) {
        if self.buf.len() >= CHUNK && self.target.is_some() {
            self.drain_buffer();
        }
    }

    fn drain_buffer(&mut self) {
        if let (Some(target), None) = (self.target.as_mut(), &self.error) {
            match target(&self.buf) {
                Ok(()) => self.drained += self.buf.len(),
                Err(e) => self.error = Some(e),
            }
        }
        self.buf.clear();
    }

    /// Bytes written so far, drained and buffered.
    pub(crate) fn written(&self) -> usize {
        self.drained + self.buf.len()
    }

    /// Ends the document: drains the rest into the target and returns
    /// the buffer — the whole document when there is no target, empty
    /// otherwise — or the target's first error.
    pub(crate) fn finish(mut self) -> io::Result<Vec<u8>> {
        if self.target.is_some() {
            self.drain_buffer();
        }
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.buf),
        }
    }
}

impl std::ops::Deref for Out<'_> {
    type Target = Vec<u8>;

    fn deref(&self) -> &Vec<u8> {
        &self.buf
    }
}

impl std::ops::DerefMut for Out<'_> {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }
}

/// Writes `n` under the one number rule of every emitted document:
/// non-finite numbers become `null`, integral values below 9·10¹⁵ in
/// magnitude print as integers, and anything else in Rust's shortest
/// round-trip float form.
pub(crate) fn write_num(w: &mut Vec<u8>, n: f64) {
    // Below 9·10¹⁵ the cast is exact truncation, so the round trip
    // holds exactly when `n` has no fractional part (`-0.0` included).
    if n.abs() < 9.0e15 && (n as i64) as f64 == n {
        write_int(w, n as i64)
    } else if !n.is_finite() {
        w.extend_from_slice(b"null")
    } else {
        write!(w, "{n}").expect("writing into a Vec cannot fail")
    }
}

/// The decimal digit pairs `00` to `99`, for [`write_int`].
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Writes an integer in decimal, two digits per step, without the `fmt`
/// machinery: the report writer emits one per id and per integer cell.
pub(crate) fn write_int(w: &mut Vec<u8>, n: i64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    let mut rest = n.unsigned_abs();
    while rest >= 100 {
        let pair = (rest % 100) as usize * 2;
        rest /= 100;
        start -= 2;
        digits[start..start + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if rest >= 10 {
        let pair = rest as usize * 2;
        start -= 2;
        digits[start..start + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        start -= 1;
        digits[start] = b'0' + rest as u8;
    }
    if n < 0 {
        w.push(b'-');
    }
    w.extend_from_slice(&digits[start..]);
}

/// Writes `s` as a JSON string. Runs of bytes that need no escape are
/// copied whole; `"`, `\` and control characters are escaped. Every
/// escaped byte is ASCII, so multibyte characters pass through intact.
pub(crate) fn write_escaped(w: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bytes = s.as_bytes();
    w.reserve(bytes.len() + 2);
    w.push(b'"');
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let escape: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0..=0x1f => &[
                b'\\',
                b'u',
                b'0',
                b'0',
                HEX[usize::from(b >> 4)],
                HEX[usize::from(b & 0xf)],
            ],
            _ => continue,
        };
        w.extend_from_slice(&bytes[run..i]);
        w.extend_from_slice(escape);
        run = i + 1;
    }
    w.extend_from_slice(&bytes[run..]);
    w.push(b'"');
}

/// Writes `items` as a JSON array, each element by `each`, with an
/// element boundary after each.
pub(crate) fn write_arr<T>(
    out: &mut Out<'_>,
    items: impl IntoIterator<Item = T>,
    mut each: impl FnMut(&mut Out<'_>, T),
) {
    out.push(b'[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        each(out, item);
        out.boundary();
    }
    out.push(b']');
}

/// Writes one JSON object field by field, so that a large value can
/// stream into the output between its key and the next one.
pub(crate) struct ObjWriter<'o, 'a> {
    out: &'o mut Out<'a>,
    empty: bool,
}

impl<'o, 'a> ObjWriter<'o, 'a> {
    /// Opens the object.
    pub(crate) fn begin(out: &'o mut Out<'a>) -> ObjWriter<'o, 'a> {
        out.push(b'{');
        ObjWriter { out, empty: true }
    }

    /// Writes the next key and returns the output its value goes to.
    pub(crate) fn key(&mut self, key: &str) -> &mut Out<'a> {
        if !self.empty {
            self.out.push(b',');
        }
        self.empty = false;
        write_escaped(self.out, key);
        self.out.push(b':');
        self.out
    }

    /// Writes one field whose value is a small tree.
    pub(crate) fn field(&mut self, key: &str, value: &Json) {
        write_tree(self.key(key), value)
    }

    /// Closes the object.
    pub(crate) fn end(self) {
        self.out.push(b'}')
    }
}

/// Writes a value tree; what [`Json`]'s `Display` prints.
pub(crate) fn write_tree(out: &mut Out<'_>, value: &Json) {
    match value {
        Json::Null => out.extend_from_slice(b"null"),
        Json::Bool(b) => out.extend_from_slice(if *b { b"true" } else { b"false" }),
        Json::Num(n) => write_num(out, *n),
        Json::Int(i) => write_int(out, *i),
        Json::Str(s) => write_escaped(out, s),
        Json::Arr(items) => write_arr(out, items, write_tree),
        Json::Obj(pairs) => {
            let mut obj = ObjWriter::begin(out);
            for (k, v) in pairs {
                obj.field(k, v);
            }
            obj.end()
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut target = |chunk: &[u8]| {
            // Chunks end on element boundaries, so on character ones.
            let text = std::str::from_utf8(chunk).expect("the writer emits UTF-8");
            f.write_str(text).map_err(io::Error::other)
        };
        let mut out = Out::streaming(&mut target, 0);
        write_tree(&mut out, self);
        out.finish().map(drop).map_err(|_| fmt::Error)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<i64> for Json {
    /// A [`Json::Num`] below 9·10¹⁵ in magnitude, where the writer
    /// prints every integer exactly, else a [`Json::Int`].
    fn from(i: i64) -> Json {
        if i.unsigned_abs() < 9_000_000_000_000_000 {
            Json::Num(i as f64)
        } else {
            Json::Int(i)
        }
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
    fn integral_numbers_print_as_integers_below_nine_quadrillion() {
        for (n, text) in [
            (-0.0, "0"),
            (-7.0, "-7"),
            (8_999_999_999_999_999.0, "8999999999999999"),
            (-8_999_999_999_999_998.0, "-8999999999999998"),
            // From 9·10¹⁵ on, the float form; it has no exponent.
            (9e15, "9000000000000000"),
            (1e20, "100000000000000000000"),
            (0.1, "0.1"),
        ] {
            assert_eq!(Json::Num(n).to_string(), text, "{n:e}");
        }
    }

    #[test]
    fn integers_print_as_their_decimal_form() {
        let mut values = vec![
            i64::MIN,
            i64::MIN + 1,
            i64::MAX,
            0,
            -1,
            9,
            10,
            99,
            100,
            -100,
        ];
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for p in 0..19 {
            let ten = 10i64.pow(p);
            values.extend([ten - 1, ten, ten + 1, -ten, 1 - ten]);
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            values.push(x as i64);
        }
        for n in values {
            let mut buf = Vec::new();
            write_int(&mut buf, n);
            assert_eq!(buf, n.to_string().as_bytes());
        }
    }

    #[test]
    fn escapes_quotes_backslashes_and_control_characters() {
        let mut buf = Vec::new();
        write_escaped(&mut buf, "a\"\\\n\r\t\u{0}\u{1f}\u{7f}Δ😀");
        assert_eq!(
            buf,
            "\"a\\\"\\\\\\n\\r\\t\\u0000\\u001f\u{7f}Δ😀\"".as_bytes()
        );
    }

    #[test]
    fn display_streams_large_trees_whole() {
        let rows: Vec<Json> = (0..20_000)
            .map(|i| Json::obj([("id", Json::from(i as usize)), ("s", Json::str("Δ"))]))
            .collect();
        let text = Json::Arr(rows).to_string();
        assert!(text.len() > 2 * CHUNK);
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed.as_arr().unwrap().len(), 20_000);
        assert_eq!(parsed.to_string(), text);
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
    fn numbers_read_as_the_float_parser_reads_them() {
        let mut texts: Vec<String> = [
            "0",
            "-0",
            "7",
            "-7",
            "007",
            "-00",
            "123456789012345",
            "-123456789012345",
            "1234567890123456",
            "9000000000000000",
            "99999999999999999999",
            "1.5",
            "1.",
            ".5",
            "1e3",
            "1E+2",
            "-1e-2",
            "+1",
            "1e400",
            "-",
            "",
            "--1",
            "1e",
            "1-2",
            "0x1",
        ]
        .map(str::to_string)
        .to_vec();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..2000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let len = 1 + (x >> 60) as usize;
            let text = (0..len)
                .map(|i| b"0123456789-.e+"[((x >> (4 * i)) % 14) as usize] as char)
                .collect();
            texts.push(text);
        }
        for text in texts {
            let doc = format!("{text},");
            let mut reader = Reader::at(&doc, 0);
            let got = reader.number().ok().map(f64::to_bits);
            let run = doc.find(|c: char| !"0123456789.eE+-".contains(c)).unwrap();
            let want = doc[..run].parse::<f64>().ok().map(f64::to_bits);
            assert_eq!(got, want, "{text:?}");
            if got.is_some() {
                assert_eq!(reader.pos, run, "{text:?}");
            }
        }
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
