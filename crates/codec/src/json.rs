//! Strict JSON: the one reader and the one writer.
//!
//! Every result document, certificate and controller wire frame is
//! written by [`document`] through a [`Writer`], a streaming writer with
//! exactly two layouts: pretty (serde_json's `to_string_pretty` shape)
//! and one-line. A document that embeds another — a certificate inside
//! the soak document, reports inside the verifier's array — writes
//! itself into its parent's `&mut Writer`, so nothing re-indents
//! finished text. [`json_string`] and [`json_f64`] are the writer's string
//! escaping and float spelling as standalone functions. [`parse`] /
//! [`parse_bytes`] is the matching reader, and [`Value`]'s `req_*`
//! accessors turn "member `key` must be present and of this type" into
//! one fallible call. Two properties matter here and shaped the design:
//!
//! * **Numbers keep their source text.** [`Value::Num`] stores the raw
//!   token; callers parse on demand. [`json_f64`] writes Rust's
//!   shortest-roundtrip formatting, so `text.parse::<f64>()` recovers
//!   the original value bit for bit.
//! * **Reads never panic.** Malformed input — a truncated document,
//!   hostile socket bytes — surfaces as a structured [`ParseError`]
//!   with a byte offset: duplicate keys, non-UTF-8, truncations and
//!   depth bombs included.

use std::fmt::{self, Write as _};

/// A parsed JSON value. Object members keep their source order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// A number as its raw source token (e.g. `"-1.5e-3"`).
    Num(String),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member of an object by key. The parser rejects duplicate keys, so
    /// within a parsed document the match is unique.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The raw number token parsed as `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The raw number token parsed as `f64` — exact for values written
    /// with shortest-roundtrip formatting.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The raw number token as an unsigned integer that fits `T`.
    pub fn as_uint<T: TryFrom<u64>>(&self) -> Option<T> {
        self.as_u64().and_then(|x| T::try_from(x).ok())
    }

    fn req<'a, T>(
        &'a self,
        key: &'static str,
        want: impl FnOnce(&'a Value) -> Option<T>,
    ) -> Result<T, FieldError> {
        self.get(key).and_then(want).ok_or(FieldError(key))
    }

    /// Required unsigned-integer member `key`, range-checked into `T`.
    pub fn req_uint<T: TryFrom<u64>>(&self, key: &'static str) -> Result<T, FieldError> {
        self.req(key, Value::as_uint)
    }

    /// Optional `u64` member `key`: absent or `null` is `None`, any
    /// other non-integer is an error.
    pub fn opt_u64(&self, key: &'static str) -> Result<Option<u64>, FieldError> {
        match self.get(key) {
            None | Some(Value::Null) => Ok(None),
            Some(v) => v.as_u64().map(Some).ok_or(FieldError(key)),
        }
    }

    /// Required string member `key`.
    pub fn req_str(&self, key: &'static str) -> Result<&str, FieldError> {
        self.req(key, Value::as_str)
    }

    /// Required boolean member `key`.
    pub fn req_bool(&self, key: &'static str) -> Result<bool, FieldError> {
        self.req(key, Value::as_bool)
    }

    /// Required array member `key`.
    pub fn req_arr(&self, key: &'static str) -> Result<&[Value], FieldError> {
        self.req(key, Value::as_arr)
    }
}

/// A required object member is missing, mistyped or out of range; the
/// payload is the member's key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldError(pub &'static str);

impl fmt::Display for FieldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "member \"{}\" is missing or mistyped", self.0)
    }
}

impl std::error::Error for FieldError {}

/// JSON number for an `f64` (`1.0`, not `1`, for integral values —
/// matching serde_json's float formatting; non-finite values become
/// `null` as serde_json has no representation for them either).
pub fn json_f64(v: f64) -> String {
    let mut out = String::new();
    push_f64(&mut out, v);
    out
}

/// JSON string literal with the mandatory escapes.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_string(&mut out, s);
    out
}

fn push_f64(out: &mut String, v: f64) {
    // Writing into a `String` cannot fail.
    let _ = if !v.is_finite() {
        out.write_str("null")
    } else if v == v.trunc() && v.abs() < 1e15 {
        write!(out, "{v:.1}")
    } else {
        write!(out, "{v}")
    };
}

fn push_string(out: &mut String, s: &str) {
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

/// An integer, written in decimal by [`Writer::int`].
pub trait Int: fmt::Display + Copy {}

macro_rules! ints {
    ($($t:ty)*) => { $(impl Int for $t {})* };
}
ints!(u8 u16 u32 u64 u128 usize i8 i16 i32 i64 i128 isize);

/// The JSON text `body` writes: the one way a result document, a
/// certificate or a wire frame is laid out.
///
/// ```
/// let doc = lmpr_codec::json::document(|w| {
///     w.obj(|w| {
///         w.key("k").int(4u64);
///         w.key("xs").arr_line(|w| {
///             w.f64(0.5);
///             w.null();
///         });
///     })
/// });
/// assert_eq!(doc, "{\n  \"k\": 4,\n  \"xs\": [0.5, null]\n}");
/// ```
pub fn document(body: impl FnOnce(&mut Writer)) -> String {
    let mut w = Writer::default();
    body(&mut w);
    w.out
}

/// A streaming JSON writer with exactly two layouts, chosen per
/// container:
///
/// * **pretty** — [`obj`](Writer::obj), [`arr`](Writer::arr): one member
///   per line, two-space indent, `{}` / `[]` when empty (serde_json's
///   `to_string_pretty` shape);
/// * **one-line** — [`obj_line`](Writer::obj_line),
///   [`arr_line`](Writer::arr_line): `{"a": 1, "b": [1, 2]}`. Every
///   child of a one-line value stays on its line, whichever call writes
///   it.
///
/// Containers are closures, so they balance by construction; an object
/// member is [`key`](Writer::key) and then one value. Everything streams
/// into one `String`, with no allocation per element.
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
    /// Pretty containers enclosing the next member: its indent.
    depth: usize,
    /// Inside a one-line value.
    line: bool,
    /// The current container already has a member.
    started: bool,
    /// A key was just written; its value follows on the same line.
    keyed: bool,
}

impl Writer {
    fn newline(&mut self) {
        self.out.push('\n');
        for _ in 0..self.depth {
            self.out.push_str("  ");
        }
    }

    /// The separator and indent before the next value (none after a key
    /// or at the top level), then the text to write it into.
    fn member(&mut self) -> &mut String {
        if !std::mem::take(&mut self.keyed) {
            if self.line && self.started {
                self.out.push_str(", ");
            } else if !self.line && self.depth > 0 {
                if self.started {
                    self.out.push(',');
                }
                self.newline();
            }
            self.started = true;
        }
        &mut self.out
    }

    fn container(&mut self, [open, close]: [char; 2], line: bool, body: impl FnOnce(&mut Self)) {
        self.member().push(open);
        let outer = (self.line, self.started);
        let pretty = !(self.line || line);
        (self.line, self.started) = (!pretty, false);
        self.depth += usize::from(pretty);
        body(self);
        self.depth -= usize::from(pretty);
        if pretty && self.started {
            self.newline();
        }
        self.out.push(close);
        (self.line, self.started) = outer;
    }

    /// A pretty object whose members `body` writes.
    pub fn obj(&mut self, body: impl FnOnce(&mut Self)) {
        self.container(['{', '}'], false, body);
    }

    /// A pretty array whose elements `body` writes.
    pub fn arr(&mut self, body: impl FnOnce(&mut Self)) {
        self.container(['[', ']'], false, body);
    }

    /// A one-line object whose members `body` writes.
    pub fn obj_line(&mut self, body: impl FnOnce(&mut Self)) {
        self.container(['{', '}'], true, body);
    }

    /// A one-line array whose elements `body` writes.
    pub fn arr_line(&mut self, body: impl FnOnce(&mut Self)) {
        self.container(['[', ']'], true, body);
    }

    /// The key of the next object member; the value call that must
    /// follow is chained on it.
    pub fn key(&mut self, key: &str) -> &mut Self {
        push_string(self.member(), key);
        self.out.push_str(": ");
        self.keyed = true;
        self
    }

    /// A string, escaped as [`json_string`] does.
    pub fn str(&mut self, s: &str) {
        push_string(self.member(), s);
    }

    /// A float, spelled as [`json_f64`] does (`null` when not finite).
    pub fn f64(&mut self, v: f64) {
        push_f64(self.member(), v);
    }

    /// An integer in decimal.
    pub fn int(&mut self, v: impl Int) {
        let _ = write!(self.member(), "{v}");
    }

    pub fn bool(&mut self, b: bool) {
        self.member().push_str(if b { "true" } else { "false" });
    }

    pub fn null(&mut self) {
        self.member().push_str("null");
    }
}

/// Where and why parsing stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub offset: usize,
    pub message: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parse a complete JSON document (one value plus trailing whitespace).
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(v)
}

/// Parse a complete JSON document from raw bytes, as read off a socket
/// frame or a journal file. Non-UTF-8 input is a typed [`ParseError`]
/// at the first invalid byte, never a panic — this is the entry point
/// the routing-controller wire protocol uses on untrusted payloads.
pub fn parse_bytes(bytes: &[u8]) -> Result<Value, ParseError> {
    let text = std::str::from_utf8(bytes).map_err(|e| ParseError {
        offset: e.valid_up_to(),
        message: "invalid utf-8 in document",
    })?;
    parse(text)
}

/// Nesting depth bound — the journal is ~4 levels deep; anything past
/// this is garbage and would otherwise risk recursion exhaustion.
const MAX_DEPTH: u32 = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &'static str) -> ParseError {
        ParseError {
            offset: self.pos,
            message,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn require(&mut self, b: u8, message: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: u32) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn array(&mut self, depth: u32) -> Result<Value, ParseError> {
        self.require(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: u32) -> Result<Value, ParseError> {
        self.require(b'{', "expected '{'")?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if members.iter().any(|(k, _)| k == &key) {
                return Err(self.err("duplicate object key"));
            }
            self.skip_ws();
            self.require(b':', "expected ':' after member key")?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.require(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast-forward over the plain (unescaped, non-quote) run.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // The slice boundaries sit on ASCII bytes, so this is valid
            // UTF-8 as long as the input was.
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid utf-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            if (0xD800..0xE000).contains(&cp) {
                                // Surrogate pair: the writer never emits
                                // them, but accept well-formed pairs.
                                if cp >= 0xDC00 {
                                    return Err(self.err("unpaired low surrogate"));
                                }
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("unpaired high surrogate"));
                                }
                                self.pos += 1;
                                self.require(b'u', "expected \\u for low surrogate")?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                out.push(
                                    char::from_u32(c)
                                        .ok_or_else(|| self.err("invalid surrogate pair"))?,
                                );
                            } else {
                                out.push(
                                    char::from_u32(cp)
                                        .ok_or_else(|| self.err("invalid code point"))?,
                                );
                            }
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => return Err(self.err("raw control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut cp = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = match b {
                b'0'..=b'9' => (b - b'0') as u32,
                b'a'..=b'f' => (b - b'a' + 10) as u32,
                b'A'..=b'F' => (b - b'A' + 10) as u32,
                _ => return Err(self.err("invalid hex digit in \\u escape")),
            };
            cp = cp * 16 + d;
            self.pos += 1;
        }
        Ok(cp)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_from = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_from {
            return Err(self.err("expected digits"));
        }
        if self.bytes[digits_from] == b'0' && self.pos - digits_from > 1 {
            return Err(self.err("leading zero in number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_from = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_from {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_from = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_from {
                return Err(self.err("expected exponent digits"));
            }
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid utf-8 in number"))?;
        Ok(Value::Num(raw.to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_document_shapes_we_write() {
        let v = parse(
            r#"{
  "version": 1,
  "quick": true,
  "cells": [
    {"id": "sweep-r0-s1", "seeds": [{"seed": 0, "thru": "0.3437152777777778"}]},
    {"id": "scripted", "seeds": []}
  ],
  "aux": null
}"#,
        )
        .expect("valid json");
        assert_eq!(v.get("version").and_then(Value::as_u64), Some(1));
        assert_eq!(v.get("quick").and_then(Value::as_bool), Some(true));
        let cells = v.get("cells").and_then(Value::as_arr).expect("array");
        assert_eq!(cells.len(), 2);
        assert_eq!(
            cells[0].get("id").and_then(Value::as_str),
            Some("sweep-r0-s1")
        );
        assert_eq!(v.get("aux"), Some(&Value::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn numbers_keep_raw_text_and_roundtrip_f64_exactly() {
        for x in [
            0.3437152777777778_f64,
            -1.5e-3,
            5e-5,
            f64::MIN_POSITIVE,
            1234567890.123,
        ] {
            let text = format!("{{\"x\": {x}}}");
            let v = parse(&text).expect("valid");
            let back = v.get("x").and_then(Value::as_f64).expect("number");
            assert_eq!(back.to_bits(), x.to_bits(), "lost bits for {x}");
        }
        let v = parse("[1e3, -0.5E+2, 7]").expect("valid");
        assert_eq!(
            v.as_arr().map(|a| a.len()),
            Some(3),
            "exponent forms accepted"
        );
    }

    #[test]
    fn strings_roundtrip_through_writer_escapes() {
        let nasty = "a\"b\\c\nd\re\tf\u{0001}g — ünïcode";
        let doc = format!("{{\"s\": {}}}", json_string(nasty));
        let v = parse(&doc).expect("valid");
        assert_eq!(v.get("s").and_then(Value::as_str), Some(nasty));
    }

    #[test]
    fn required_members_are_one_fallible_call() {
        let v = parse(r#"{"n": 300, "s": "x", "b": true, "a": [1], "z": null}"#).expect("valid");
        assert_eq!(v.req_uint::<u64>("n"), Ok(300));
        assert_eq!(v.req_uint::<u16>("n"), Ok(300));
        assert_eq!(v.req_uint::<u8>("n"), Err(FieldError("n")), "out of range");
        assert_eq!(v.req_uint::<u64>("s"), Err(FieldError("s")), "mistyped");
        assert_eq!(
            v.req_uint::<u64>("nope"),
            Err(FieldError("nope")),
            "missing"
        );
        assert_eq!(v.req_str("s"), Ok("x"));
        assert_eq!(v.req_bool("b"), Ok(true));
        assert_eq!(v.req_arr("a").map(<[Value]>::len), Ok(1));
        assert_eq!(v.opt_u64("n"), Ok(Some(300)));
        assert_eq!(v.opt_u64("z"), Ok(None));
        assert_eq!(v.opt_u64("nope"), Ok(None));
        assert_eq!(v.opt_u64("s"), Err(FieldError("s")));
        assert!(FieldError("n").to_string().contains("\"n\""));
    }

    #[test]
    fn floats_and_escapes_write_as_serde_json_would() {
        assert_eq!(json_f64(1.0), "1.0");
        assert_eq!(json_f64(0.25), "0.25");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(1e15), "1000000000000000");
        assert_eq!(json_string("a\"\\\n\u{1}é"), "\"a\\\"\\\\\\n\\u0001é\"");
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = parse(r#""\ud83d\ude00""#).expect("valid");
        assert_eq!(v.as_str(), Some("😀"));
    }

    #[test]
    fn malformed_documents_are_structured_errors() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "01",
            "1.",
            "1e",
            "[1] trailing",
            "\"\\ud800\"",
            "\"\\q\"",
        ] {
            assert!(parse(bad).is_err(), "accepted malformed input {bad:?}");
        }
        let e = parse("[1, @]").expect_err("must fail");
        assert_eq!(e.offset, 4);
        assert!(e.to_string().contains("byte 4"));
    }

    #[test]
    fn duplicate_object_keys_are_rejected() {
        let e = parse(r#"{"a": 1, "b": 2, "a": 3}"#).expect_err("duplicate key");
        assert_eq!(e.message, "duplicate object key");
        // Nested objects get their own key namespace.
        parse(r#"{"a": {"a": 1}, "b": {"a": 2}}"#).expect("distinct scopes are fine");
    }

    #[test]
    fn parse_bytes_rejects_non_utf8_with_the_offset() {
        let mut doc = br#"{"s": ""#.to_vec();
        doc.push(0xFF);
        doc.extend_from_slice(b"\"}");
        let e = parse_bytes(&doc).expect_err("invalid utf-8");
        assert_eq!(e.message, "invalid utf-8 in document");
        assert_eq!(e.offset, 7);
        assert_eq!(
            parse_bytes(br#"{"ok": true}"#).expect("valid").get("ok"),
            Some(&Value::Bool(true))
        );
    }

    #[test]
    fn depth_bomb_nesting_is_a_typed_error() {
        let deep = "[".repeat(1000);
        let e = parse(&deep).expect_err("depth bomb");
        assert_eq!(e.message, "nesting too deep");
        let mixed = "{\"k\": ".repeat(500) + "1" + &"}".repeat(500);
        assert!(parse(&mixed).is_err());
    }
}
