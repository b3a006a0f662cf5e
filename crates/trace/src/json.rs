//! A dependency-free JSON value type, writer, and parser.
//!
//! The build container has no network access, so stats serialization
//! cannot use `serde`; this module hand-rolls the small subset needed for
//! experiment artifacts: construct a [`Json`] tree, [`Json::dump`] it with
//! stable key order (objects are ordered vectors, not hash maps), and
//! [`Json::parse`] it back.
//!
//! The parser is on two hot read paths: checkpoint restore
//! (`Checkpoint::load`, `specmpk-sim --restore`), whose files are mostly
//! kilobyte-long hex page strings, and every `specmpk-report` artifact
//! read. It runs in time linear in the input: a string is copied one
//! unescaped run at a time, with no per-character UTF-8 work, so a
//! multi-megabyte checkpoint parses in milliseconds. Nesting is capped at
//! [`MAX_DEPTH`] arrays/objects, so a hostile document returns a
//! [`JsonError`] instead of overflowing the stack.
//!
//! Numbers are stored as `f64`. Every counter in the simulator fits in 53
//! bits by an enormous margin (2^53 cycles at the budgets this repo runs
//! is out of reach), so u64 stats round-trip exactly.
//!
//! The JSONL sinks (the micro-event journal and the leak ledger) write
//! tens of thousands of flat records per run and skip the tree:
//! [`Record`] appends one `{"k":v,...}` object straight into an output
//! `String`, with the same string escaping and number formatting as
//! [`Json::dump_compact`], so a record's bytes equal those of the
//! equivalent tree.

use std::fmt::{self, Write as _};

/// A JSON value. Objects preserve insertion order so dumps are
/// byte-stable across runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (see module docs on integer exactness).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with preserved key order.
    Obj(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Num(v as f64)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Json::Num(f64::from(v))
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Num(v as f64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::Num(v as f64)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Self {
        Json::Arr(v)
    }
}

impl Json {
    /// An empty object.
    #[must_use]
    pub fn object() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends (or replaces) `key` in an object; panics on non-objects.
    #[must_use]
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        self.set(key, value);
        self
    }

    /// Sets `key` in an object in place; panics on non-objects.
    pub fn set(&mut self, key: &str, value: impl Into<Json>) {
        let Json::Obj(fields) = self else {
            panic!("Json::set on non-object");
        };
        let value = value.into();
        if let Some(slot) = fields.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            fields.push((key.to_string(), value));
        }
    }

    /// Looks up `key` in an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as an exact u64, if this is a non-negative
    /// integer below 2^53.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < 9_007_199_254_740_992.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// Encodes a full-width `u64` as a `"0x…"` lower-hex string.
    ///
    /// [`Json::Num`] is an `f64` and only exact below 2^53; checkpoint
    /// payloads (register values, branch history, cache tags) use the
    /// whole 64-bit range, so they round-trip through this string form.
    #[must_use]
    pub fn hex(value: u64) -> Json {
        Json::Str(format!("{value:#x}"))
    }

    /// Decodes a value produced by [`Json::hex`].
    #[must_use]
    pub fn as_hex_u64(&self) -> Option<u64> {
        match self {
            Json::Str(s) => s.strip_prefix("0x").and_then(|h| u64::from_str_radix(h, 16).ok()),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes with 2-space indentation and a trailing newline.
    #[must_use]
    pub fn dump(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Serializes on a single line with no spaces or trailing newline —
    /// the JSONL form the event journal emits one record per line.
    #[must_use]
    pub fn dump_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_string(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] describing the first syntax problem, with a
    /// byte offset into the input. Arrays and objects nested deeper than
    /// [`MAX_DEPTH`] are an error.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser { input, bytes: input.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(value)
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Largest magnitude below which an integral `f64` is printed as a plain
/// integer (2^53: every integer up to it is exact in an `f64`).
const EXACT_INT_LIMIT: f64 = 9_007_199_254_740_992.0;

/// Appends the JSON text of `n`: integers below 2^53 in plain decimal,
/// other finite values in Rust's shortest round-trip form (with `.0`
/// added when that form reads as an integer), and `null` for NaN and
/// the infinities.
fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no NaN/Inf; stats code should never produce them, but a
        // defensive null beats emitting an unparseable token.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < EXACT_INT_LIMIT {
        write!(out, "{}", n as i64).expect("writing to a String cannot fail");
    } else {
        let start = out.len();
        write!(out, "{n}").expect("writing to a String cannot fail");
        if !out[start..].bytes().any(|b| matches!(b, b'.' | b'e' | b'E')) {
            out.push_str(".0");
        }
    }
}

/// Appends `value` as a JSON number, exactly as `Json::from(value)`
/// serializes: plain decimal below 2^53, the `f64` form above it.
fn write_u64(out: &mut String, value: u64) {
    if value < 1 << 53 {
        write!(out, "{value}").expect("writing to a String cannot fail");
    } else {
        write_number(out, value as f64);
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    let mut rest = s;
    // Copy each run of characters that need no escape at once. Every byte
    // that does need one is ASCII, so runs end on char boundaries.
    while let Some(i) = rest.bytes().position(|b| b == b'"' || b == b'\\' || b < 0x20) {
        out.push_str(&rest[..i]);
        match rest.as_bytes()[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            c => write!(out, "\\u{c:04x}").expect("writing to a String cannot fail"),
        }
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
    out.push('"');
}

/// One compact JSON object written field by field straight into an output
/// buffer: the JSONL record writer of the event journal and the leak
/// ledger.
///
/// The bytes equal [`Json::dump_compact`] of a [`Json::object`] built
/// with the same keys and values in the same order (`num` as
/// `Json::from(u64)`, `hex` as [`Json::hex`]), without building the tree.
///
/// ```
/// use specmpk_trace::json::{Json, Record};
///
/// let mut out = String::new();
/// Record::begin(&mut out).str("event", "squash").num("cycle", 7).hex("pc", 0x10).end();
/// let tree = Json::object().with("event", "squash").with("cycle", 7u64).with("pc", Json::hex(0x10));
/// assert_eq!(out, tree.dump_compact());
/// ```
#[derive(Debug)]
pub struct Record<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> Record<'a> {
    /// Opens a record at the end of `out`.
    pub fn begin(out: &'a mut String) -> Record<'a> {
        out.push('{');
        Record { out, empty: true }
    }

    fn key(&mut self, key: &str) -> &mut String {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        write_string(self.out, key);
        self.out.push(':');
        self.out
    }

    /// A string field.
    #[must_use]
    pub fn str(mut self, key: &str, value: &str) -> Self {
        write_string(self.key(key), value);
        self
    }

    /// A number field.
    #[must_use]
    pub fn num(mut self, key: &str, value: u64) -> Self {
        write_u64(self.key(key), value);
        self
    }

    /// A boolean field.
    #[must_use]
    pub fn bool(mut self, key: &str, value: bool) -> Self {
        self.key(key).push_str(if value { "true" } else { "false" });
        self
    }

    /// A `"0x…"` lower-hex string field, as [`Json::hex`] writes it.
    #[must_use]
    pub fn hex(mut self, key: &str, value: u64) -> Self {
        write!(self.key(key), "\"{value:#x}\"").expect("writing to a String cannot fail");
        self
    }

    /// A `"0x…"` lower-hex string field zero-padded to eight digits (a
    /// 32-bit register value such as PKRU).
    #[must_use]
    pub fn hex32(mut self, key: &str, value: u32) -> Self {
        write!(self.key(key), "\"{value:#010x}\"").expect("writing to a String cannot fail");
        self
    }

    /// Closes the record.
    pub fn end(self) {
        self.out.push('}');
    }
}

/// A parse failure with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset at which it went wrong.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// How deeply [`Json::parse`] lets arrays and objects nest. The deepest
/// artifact, baseline or checkpoint the simulator writes nests fewer than
/// ten levels; the cap only stops a hostile document from recursing the
/// parser off the end of its stack.
pub const MAX_DEPTH: usize = 256;

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError { message: message.to_string(), offset: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses one array or object, one level deeper.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the whole run up to the next quote or backslash at once.
            // Both delimiters are ASCII, so the run ends on a char boundary.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(self.bytes.len() - self.pos);
            out.push_str(&self.input[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => self.escape(&mut out)?,
            }
        }
    }

    /// Decodes the escape sequence whose backslash is at `pos`.
    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        self.pos += 1;
        match self.peek() {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'b') => out.push('\u{8}'),
            Some(b'f') => out.push('\u{c}'),
            Some(b'n') => out.push('\n'),
            Some(b'r') => out.push('\r'),
            Some(b't') => out.push('\t'),
            Some(b'u') => {
                self.pos += 1;
                let hi = self.hex4()?;
                let c = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: expect \uDC00–\uDFFF next.
                    if !self.bytes[self.pos..].starts_with(b"\\u") {
                        return Err(self.err("unpaired surrogate"));
                    }
                    self.pos += 2;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    char::from_u32(code)
                } else {
                    char::from_u32(hi)
                };
                out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                return Ok(());
            }
            _ => return Err(self.err("invalid escape")),
        }
        self.pos += 1;
        Ok(())
    }

    /// Reads exactly four ASCII hex digits.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let mut v = 0;
        for &b in &self.bytes[self.pos..end] {
            let digit = char::from(b).to_digit(16).ok_or_else(|| self.err("invalid \\u escape"))?;
            v = v * 16 + digit;
        }
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        text.parse::<f64>().map(Json::Num).map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dump_is_stable_and_ordered() {
        let j = Json::object()
            .with("b", 2u64)
            .with("a", 1u64)
            .with("list", vec![Json::from(1u64), Json::Null, Json::from(true)]);
        let d1 = j.dump();
        let d2 = j.clone().dump();
        assert_eq!(d1, d2);
        // Insertion order preserved: "b" before "a".
        assert!(d1.find("\"b\"").unwrap() < d1.find("\"a\"").unwrap());
    }

    #[test]
    fn integers_round_trip_exactly() {
        let big = 9_007_199_254_740_991u64; // 2^53 - 1
        let j = Json::object().with("cycles", big).with("neg", -42i64);
        let parsed = Json::parse(&j.dump()).unwrap();
        assert_eq!(parsed.get("cycles").unwrap().as_u64(), Some(big));
        assert_eq!(parsed.get("neg").unwrap().as_f64(), Some(-42.0));
    }

    #[test]
    fn floats_and_strings_round_trip() {
        let j = Json::object().with("ipc", 1.875).with("name", "dense \"quoted\"\nworkload\tπ");
        let parsed = Json::parse(&j.dump()).unwrap();
        assert_eq!(parsed, j);
    }

    #[test]
    fn parses_whitespace_and_nesting() {
        let doc = r#" { "a" : [ 1 , { "b" : null } , true ] , "c" : -1.5e2 } "#;
        let j = Json::parse(doc).unwrap();
        assert_eq!(j.get("c").unwrap().as_f64(), Some(-150.0));
        let arr = j.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[1].get("b"), Some(&Json::Null));
    }

    #[test]
    fn surrogate_pairs_decode() {
        let j = Json::parse(r#""😀""#).unwrap();
        assert_eq!(j.as_str(), Some("😀"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,", "\"abc", "{\"a\" 1}", "1 2", "{'a': 1}", "nul"] {
            assert!(Json::parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn dump_compact_is_single_line_and_parseable() {
        let j = Json::object()
            .with("event", "squash")
            .with("cycle", 100u64)
            .with("nested", Json::object().with("a", vec![Json::from(1u64), Json::from(2u64)]));
        let compact = j.dump_compact();
        assert_eq!(compact, r#"{"event":"squash","cycle":100,"nested":{"a":[1,2]}}"#);
        assert!(!compact.contains('\n'));
        assert_eq!(Json::parse(&compact).unwrap(), j);
    }

    #[test]
    fn set_replaces_existing_key() {
        let mut j = Json::object().with("k", 1u64);
        j.set("k", 2u64);
        assert_eq!(j.get("k").unwrap().as_u64(), Some(2));
        assert_eq!(j.dump().matches("\"k\"").count(), 1);
    }

    #[test]
    fn hex_round_trips_the_full_u64_range() {
        for v in [0u64, 1, 0xFF, 1 << 53, u64::MAX, 0x9E37_79B9_7F4A_7C15] {
            let j = Json::hex(v);
            assert_eq!(j.as_hex_u64(), Some(v), "value {v:#x}");
            // Survives a serialize/parse round trip too.
            let parsed = Json::parse(&j.dump()).unwrap();
            assert_eq!(parsed.as_hex_u64(), Some(v));
        }
        // Non-hex strings and numbers decode to None.
        assert_eq!(Json::from("17").as_hex_u64(), None);
        assert_eq!(Json::from(17u64).as_hex_u64(), None);
    }

    #[test]
    fn error_messages_and_offsets_are_pinned() {
        let cases: [(&str, &str, usize); 10] = [
            ("\"abc", "unterminated string", 4),
            ("\"é😀", "unterminated string", 7),
            ("\"ab\\", "invalid escape", 4),
            (r#""a\q""#, "invalid escape", 3),
            ("\"é\\x\"", "invalid escape", 4),
            (r#""\ud800x""#, "unpaired surrogate", 7),
            (r#""\ud800\u0041""#, "invalid low surrogate", 13),
            (r#""\udc00""#, "invalid \\u escape", 7),
            (r#""\u12""#, "truncated \\u escape", 3),
            (r#""\u12zz""#, "invalid \\u escape", 3),
        ];
        for (doc, message, offset) in cases {
            let e = Json::parse(doc).unwrap_err();
            assert_eq!((e.message.as_str(), e.offset), (message, offset), "document {doc:?}");
        }
    }

    #[test]
    fn hex_escapes_take_exactly_four_hex_digits() {
        assert_eq!(Json::parse(r#""\u0041""#).unwrap().as_str(), Some("A"));
        assert_eq!(Json::parse(r#""\u00e9\u00E9""#).unwrap().as_str(), Some("éé"));
        for doc in [r#""\u+041""#, r#""\u-041""#, r#""\u 041""#, r#""\u004g""#, "\"\\u00é\""] {
            let e = Json::parse(doc).unwrap_err();
            assert_eq!(
                (e.message.as_str(), e.offset),
                ("invalid \\u escape", 3),
                "document {doc:?}"
            );
        }
    }

    /// The number formatter this crate shipped before numbers were written
    /// in place: the reference the in-place writer must match byte for byte.
    fn reference_number(n: f64) -> String {
        if !n.is_finite() {
            return "null".to_string();
        }
        if n.fract() == 0.0 && n.abs() < 9_007_199_254_740_992.0 {
            format!("{}", n as i64)
        } else {
            let s = format!("{n}");
            if s.contains('.') || s.contains('e') || s.contains('E') {
                s
            } else {
                format!("{s}.0")
            }
        }
    }

    #[test]
    fn numbers_format_as_before_at_every_boundary() {
        let two53 = 1u64 << 53;
        let ints = [0, 1, 42, two53 - 1, two53, two53 + 1, u64::MAX];
        for v in ints {
            let mut out = String::new();
            write_u64(&mut out, v);
            assert_eq!(out, reference_number(v as f64), "u64 {v}");
            assert_eq!(out, Json::from(v).dump_compact(), "u64 {v} via the tree");
        }
        let floats = [
            0.0,
            -0.0,
            1.875,
            0.1,
            -0.5,
            1e-7,
            123_456.789,
            -42.0,
            9_007_199_254_740_991.0,
            9_007_199_254_740_992.0,
            -9_007_199_254_740_992.0,
            1e300,
            f64::MIN_POSITIVE,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for n in floats {
            let mut out = String::new();
            write_number(&mut out, n);
            assert_eq!(out, reference_number(n), "f64 {n:?}");
        }
        let pinned = [
            (two53 - 1, "9007199254740991"),
            (two53, "9007199254740992.0"),
            (two53 + 1, "9007199254740992.0"),
            (u64::MAX, "18446744073709552000.0"),
        ];
        for (v, text) in pinned {
            assert_eq!(Json::from(v).dump_compact(), text);
        }
        assert_eq!(Json::from(1.875).dump_compact(), "1.875");
        assert_eq!(Json::from(f64::NAN).dump(), "null\n");
    }

    #[test]
    fn records_match_the_compact_tree() {
        let mut out = String::new();
        Record::begin(&mut out)
            .str("event", "spec \"access\"\n")
            .num("cycle", 1 << 53)
            .num("seq", 7)
            .hex("pc", 0x1f00)
            .hex32("pkru", 0x55)
            .bool("line", true)
            .bool("tlb", false)
            .end();
        Record::begin(&mut out).end();
        let tree = Json::object()
            .with("event", "spec \"access\"\n")
            .with("cycle", 1u64 << 53)
            .with("seq", 7u64)
            .with("pc", Json::hex(0x1f00))
            .with("pkru", "0x00000055")
            .with("line", true)
            .with("tlb", false);
        assert_eq!(out, format!("{}{}", tree.dump_compact(), Json::object().dump_compact()));
    }

    #[test]
    fn raw_multibyte_and_control_characters_pass_through() {
        let doc = "\"π\u{1}é😀\\n→\"";
        assert_eq!(Json::parse(doc).unwrap().as_str(), Some("π\u{1}é😀\n→"));
    }

    #[test]
    fn nesting_at_the_depth_cap_parses() {
        let arrays = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&arrays).is_ok());
        let objects = format!("{}1{}", "{\"k\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(Json::parse(&objects).is_ok());
    }

    #[test]
    fn nesting_past_the_depth_cap_is_an_error() {
        let one_over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let e = Json::parse(&one_over).unwrap_err();
        assert_eq!(e.offset, MAX_DEPTH);
        assert_eq!(e.message, format!("nesting deeper than {MAX_DEPTH} levels"));
        // Far past the cap: an error, not a stack overflow.
        let e = Json::parse(&"[".repeat(100_000)).unwrap_err();
        assert_eq!(e.offset, MAX_DEPTH);
        let e = Json::parse(&"{\"k\":".repeat(100_000)).unwrap_err();
        assert_eq!(e.offset, 5 * MAX_DEPTH);
    }
}
