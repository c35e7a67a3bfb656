//! A small, dependency-free JSON reader and writer.
//!
//! The workspace builds offline without serde, so telemetry writes its own
//! JSON. Objects keep insertion order, making output byte-stable for a
//! fixed sequence of `set` calls — the property run manifests rely on for
//! reproducibility.
//!
//! [`parse`] is the reading half, added for the `pc-service` wire protocol:
//! it accepts exactly the subset this writer emits (RFC 8259 minus exponent
//! round-tripping guarantees for non-finite floats, which the writer renders
//! as `null`).

use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating-point number; non-finite values render as `null`.
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<JsonValue>),
    /// Object (insertion-ordered).
    Object(JsonObject),
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        Self::Bool(v)
    }
}

impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        Self::U64(v)
    }
}

impl From<u32> for JsonValue {
    fn from(v: u32) -> Self {
        Self::U64(u64::from(v))
    }
}

impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        Self::U64(v as u64)
    }
}

impl From<i64> for JsonValue {
    fn from(v: i64) -> Self {
        Self::I64(v)
    }
}

impl From<i32> for JsonValue {
    fn from(v: i32) -> Self {
        Self::I64(i64::from(v))
    }
}

impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        Self::F64(v)
    }
}

impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        Self::Str(v.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        Self::Str(v)
    }
}

impl From<Vec<JsonValue>> for JsonValue {
    fn from(v: Vec<JsonValue>) -> Self {
        Self::Array(v)
    }
}

impl From<JsonObject> for JsonValue {
    fn from(v: JsonObject) -> Self {
        Self::Object(v)
    }
}

impl JsonValue {
    /// The boolean value, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::U64(n) => Some(*n),
            JsonValue::I64(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::U64(n) => i64::try_from(*n).ok(),
            JsonValue::I64(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::U64(n) => Some(*n as f64),
            JsonValue::I64(n) => Some(*n as f64),
            JsonValue::F64(x) => Some(*x),
            _ => None,
        }
    }

    /// The string slice, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The element slice, if this is an `Array`.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The object, if this is an `Object`.
    pub fn as_object(&self) -> Option<&JsonObject> {
        match self {
            JsonValue::Object(obj) => Some(obj),
            _ => None,
        }
    }
}

/// An insertion-ordered JSON object.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct JsonObject {
    entries: Vec<(String, JsonValue)>,
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends (or replaces) `key` with `value`, preserving the position of
    /// a replaced key.
    pub fn set(&mut self, key: &str, value: impl Into<JsonValue>) -> &mut Self {
        let value = value.into();
        if let Some(entry) = self.entries.iter_mut().find(|(k, _)| k == key) {
            entry.1 = value;
        } else {
            self.entries.push((key.to_string(), value));
        }
        self
    }

    /// Appends every entry of `other`.
    pub fn extend(&mut self, other: JsonObject) {
        for (k, v) in other.entries {
            self.set(&k, v);
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the object has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The value under `key`, if present.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Removes `key`, returning its value if it was present.
    pub fn remove(&mut self, key: &str) -> Option<JsonValue> {
        let pos = self.entries.iter().position(|(k, _)| k == key)?;
        Some(self.entries.remove(pos).1)
    }

    /// Compact single-line rendering.
    pub fn to_compact(&self) -> String {
        let mut s = String::new();
        self.write_compact(&mut s);
        s
    }

    /// Appends the compact rendering to `out`, so a caller can render after
    /// a prefix of its own without a second buffer.
    pub fn write_compact(&self, out: &mut String) {
        write_object(out, self, None, 0);
    }

    /// Pretty rendering with two-space indentation and a trailing newline.
    pub fn to_pretty(&self) -> String {
        let mut s = String::new();
        write_object(&mut s, self, Some(2), 0);
        s.push('\n');
        s
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        write_value(&mut s, self, None, 0);
        f.write_str(&s)
    }
}

impl fmt::Display for JsonObject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_compact())
    }
}

fn write_value(out: &mut String, v: &JsonValue, indent: Option<usize>, depth: usize) {
    match v {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::U64(n) => {
            let _ = write!(out, "{n}");
        }
        JsonValue::I64(n) => {
            let _ = write!(out, "{n}");
        }
        JsonValue::F64(x) => {
            if x.is_finite() {
                // Rust's Display prints the shortest round-trip decimal,
                // which is valid JSON (no exponent-only forms like `1e3`
                // without digits, no trailing dot).
                let _ = write!(out, "{x}");
            } else {
                out.push_str("null");
            }
        }
        JsonValue::Str(s) => write_string(out, s),
        JsonValue::Array(items) => {
            write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                write_value(out, &items[i], indent, depth + 1);
            })
        }
        JsonValue::Object(obj) => write_object(out, obj, indent, depth),
    }
}

fn write_object(out: &mut String, obj: &JsonObject, indent: Option<usize>, depth: usize) {
    write_seq(out, indent, depth, '{', '}', obj.entries.len(), |out, i| {
        let (k, val) = &obj.entries[i];
        write_string(out, k);
        out.push(':');
        if indent.is_some() {
            out.push(' ');
        }
        write_value(out, val, indent, depth + 1);
    });
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * (depth + 1)));
        }
        item(out, i);
    }
    if len > 0 {
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * depth));
        }
    }
    out.push(close);
}

/// Error from [`parse`]: what went wrong and the byte offset where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Human-readable description of the failure.
    pub message: String,
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonParseError {}

/// Parses one JSON value from `input`, rejecting trailing non-whitespace.
///
/// Supports the full value grammar this module's writer emits: objects
/// (insertion order preserved, duplicate keys keep the last value), arrays,
/// strings with `\uXXXX` escapes (including surrogate pairs), numbers
/// (integers parse as `U64`/`I64`, everything else as `F64`), booleans, and
/// `null`. Nesting depth is capped so adversarial input cannot overflow the
/// stack — the `pc-service` wire codec feeds network bytes straight in here.
///
/// # Errors
///
/// [`JsonParseError`] with the byte offset of the first offending character.
pub fn parse(input: &str) -> Result<JsonValue, JsonParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after value"));
    }
    Ok(v)
}

/// Maximum nesting depth accepted by [`parse`].
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonParseError {
        JsonParseError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), JsonParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn eat_literal(&mut self, lit: &str, value: JsonValue) -> Result<JsonValue, JsonParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.eat_literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.eat_literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.eat_literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonParseError> {
        self.eat(b'{', "expected '{'")?;
        let mut obj = JsonObject::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(obj));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':' after object key")?;
            self.skip_ws();
            let v = self.value(depth + 1)?;
            obj.set(&key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(obj));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonParseError> {
        self.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.eat(b'"', "expected string")?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes up to the next quote or escape.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // The input is a &str, so slicing at these byte offsets is only
            // safe because '"' and '\\' are ASCII and never appear inside a
            // multi-byte UTF-8 sequence.
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos]).expect("input is UTF-8"),
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), JsonParseError> {
        let c = self.peek().ok_or_else(|| self.err("truncated escape"))?;
        self.pos += 1;
        match c {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{0008}'),
            b'f' => out.push('\u{000C}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hi = self.hex4()?;
                let ch = if (0xD800..0xDC00).contains(&hi) {
                    // High surrogate: require the paired \uXXXX low half.
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.eat(b'u', "expected low surrogate escape")?;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err(self.err("invalid low surrogate"));
                        }
                        let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                        char::from_u32(code).ok_or_else(|| self.err("invalid surrogate pair"))?
                    } else {
                        return Err(self.err("unpaired high surrogate"));
                    }
                } else {
                    char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))?
                };
                out.push(ch);
            }
            _ => return Err(self.err("unknown escape")),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape digits"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<JsonValue, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        if !is_float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(JsonValue::U64(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(JsonValue::I64(n));
            }
        }
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(JsonValue::F64(x)),
            _ => {
                self.pos = start;
                Err(self.err("invalid number"))
            }
        }
    }
}

fn write_string(out: &mut String, s: &str) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_rendering_and_escaping() {
        let mut obj = JsonObject::new();
        obj.set("name", "a\"b\\c\nd");
        obj.set("n", 3u64);
        obj.set("x", -1.5);
        obj.set("ok", true);
        obj.set("nothing", JsonValue::Null);
        assert_eq!(
            obj.to_compact(),
            r#"{"name":"a\"b\\c\nd","n":3,"x":-1.5,"ok":true,"nothing":null}"#
        );
    }

    #[test]
    fn non_finite_floats_render_null() {
        let mut obj = JsonObject::new();
        obj.set("bad", f64::NAN);
        assert_eq!(obj.to_compact(), r#"{"bad":null}"#);
    }

    #[test]
    fn set_replaces_in_place() {
        let mut obj = JsonObject::new();
        obj.set("a", 1u64).set("b", 2u64).set("a", 9u64);
        assert_eq!(obj.to_compact(), r#"{"a":9,"b":2}"#);
    }

    #[test]
    fn parse_roundtrips_compact_output() {
        let mut inner = JsonObject::new();
        inner.set("k", 1u64).set("neg", -7i64).set("x", 1.5);
        let mut obj = JsonObject::new();
        obj.set("outer", inner);
        obj.set("list", vec![JsonValue::Bool(true), JsonValue::Null]);
        obj.set("s", "quote\" slash\\ tab\t");
        let text = obj.to_compact();
        assert_eq!(parse(&text).unwrap(), JsonValue::Object(obj));
    }

    #[test]
    fn parse_handles_whitespace_and_pretty_form() {
        let mut obj = JsonObject::new();
        obj.set("a", vec![JsonValue::U64(1), JsonValue::U64(2)]);
        assert_eq!(parse(&obj.to_pretty()).unwrap(), JsonValue::Object(obj));
    }

    #[test]
    fn parse_unicode_escapes() {
        assert_eq!(
            parse(r#""é😀""#).unwrap(),
            JsonValue::Str("é😀".to_string())
        );
        assert!(parse(r#""\ud83d""#).is_err()); // unpaired high surrogate
    }

    #[test]
    fn parse_numbers() {
        assert_eq!(
            parse("18446744073709551615").unwrap(),
            JsonValue::U64(u64::MAX)
        );
        assert_eq!(parse("-3").unwrap(), JsonValue::I64(-3));
        assert_eq!(parse("2.5e2").unwrap(), JsonValue::F64(250.0));
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "", "{", "[1,", "\"open", "tru", "{\"a\":}", "1 2", "{'a':1}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
        let err = parse("[1, @]").unwrap_err();
        assert_eq!(err.offset, 4);
    }

    #[test]
    fn parse_rejects_excessive_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(50) + &"]".repeat(50);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn parse_duplicate_keys_keep_last() {
        let v = parse(r#"{"a":1,"a":2}"#).unwrap();
        let obj = v.as_object().unwrap();
        assert_eq!(obj.len(), 1);
        assert_eq!(obj.get("a").and_then(JsonValue::as_u64), Some(2));
    }

    #[test]
    fn accessors_narrow_types() {
        assert_eq!(JsonValue::U64(5).as_u64(), Some(5));
        assert_eq!(JsonValue::I64(-5).as_u64(), None);
        assert_eq!(JsonValue::U64(5).as_i64(), Some(5));
        assert_eq!(JsonValue::U64(5).as_f64(), Some(5.0));
        assert_eq!(JsonValue::Str("x".into()).as_str(), Some("x"));
        assert_eq!(JsonValue::Bool(true).as_bool(), Some(true));
        assert!(JsonValue::Array(vec![]).as_array().unwrap().is_empty());
        assert!(JsonValue::Null.as_str().is_none());
    }

    #[test]
    fn pretty_rendering_is_stable() {
        let mut inner = JsonObject::new();
        inner.set("k", 1u64);
        let mut obj = JsonObject::new();
        obj.set("outer", inner);
        obj.set("list", vec![JsonValue::U64(1), JsonValue::U64(2)]);
        assert_eq!(
            obj.to_pretty(),
            "{\n  \"outer\": {\n    \"k\": 1\n  },\n  \"list\": [\n    1,\n    2\n  ]\n}\n"
        );
    }
}
