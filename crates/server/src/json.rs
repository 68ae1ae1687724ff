//! Minimal, dependency-free JSON with **deterministic** serialization,
//! and the one typed layer every wire message is written and read
//! through.
//!
//! The wire protocol promises byte-identical transcripts for identical
//! command scripts, so the writer must be a pure function of the
//! value: object members are written in a fixed order, numbers render
//! through Rust's shortest-round-trip float formatting, and string
//! escapes are canonical (two-character escapes where JSON defines
//! them, `\u00XX` for the remaining control characters). The parser
//! accepts general JSON (any member order, `\uXXXX` escapes including
//! surrogate pairs, scientific notation) because request lines come
//! from foreign clients.
//!
//! Parsing is hardened for the trust boundary it sits on: input depth
//! is capped so a `[[[[…`-bomb cannot overflow the stack, and every
//! error carries the byte offset where parsing stopped.
//!
//! Both directions are linear in the line length. Strings are parsed
//! and written in runs: everything between two bytes that need
//! attention (`"`, `\`, a control character) is copied with one
//! `push_str`, so a multi-megabyte trace upload or SVG frame costs a
//! few memory passes.
//!
//! **One writer, one reader.** [`Json`] is the parser's output only;
//! nothing builds one in order to encode it. Every encoder writes
//! through `ObjectWriter` straight from the value (`ToWire`), so a
//! large string is written from where it lives, and every decoder
//! takes a parsed object's members one by one (`Members`, `FromWire`),
//! so a large string is moved out, not copied. A decode error names
//! the member it failed on (`At`).

use std::fmt;

use crate::protocol::DecodeError;

/// Maximum nesting depth the parser accepts. Deep enough for any real
/// protocol message (ours nest two levels), shallow enough that a
/// hostile `[[[[…` line fails fast instead of exhausting the stack.
const MAX_DEPTH: usize = 64;

/// A JSON value. Objects preserve insertion order — serialization is
/// deterministic by construction.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; always finite (JSON has no NaN/∞).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer: present, finite,
    /// integral and in `[0, 2^53]` (exactly representable).
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if (0.0..=9_007_199_254_740_992.0).contains(&n) && n.fract() == 0.0 {
            Some(n as u64)
        } else {
            None
        }
    }

    /// Parses one complete JSON value; trailing non-whitespace is an
    /// error (a request line is exactly one value).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        Parser::new(text).document()
    }
}

/// Writes one JSON object member by member straight into the output.
/// A large string member (a frame's SVG, a trace upload, a checkpoint's
/// trace CSV) is written from a borrowed `&str`, never copied first.
pub(crate) struct ObjectWriter<'a> {
    out: &'a mut String,
    empty: bool,
}

impl ObjectWriter<'_> {
    /// Writes the object whose members `fill` writes.
    pub(crate) fn write(out: &mut String, fill: impl FnOnce(&mut ObjectWriter<'_>)) {
        out.push('{');
        fill(&mut ObjectWriter { out: &mut *out, empty: true });
        out.push('}');
    }

    /// Writes the separator and `key`, and returns the output for the
    /// member's value.
    fn key(&mut self, key: &str) -> &mut String {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        write_string(key, self.out);
        self.out.push(':');
        self.out
    }

    /// Writes member `key`, unless its value is left off the wire (a
    /// `None`).
    pub(crate) fn field<T: ToWire + ?Sized>(&mut self, key: &str, value: &T) {
        if !value.omitted() {
            self.value(key, value);
        }
    }

    /// Writes member `key` whatever its value; a `None` is `null`.
    pub(crate) fn value<T: ToWire + ?Sized>(&mut self, key: &str, value: &T) {
        value.write(self.key(key));
    }

    /// Writes an object member whose members `fill` writes.
    pub(crate) fn object(&mut self, key: &str, fill: impl FnOnce(&mut ObjectWriter<'_>)) {
        ObjectWriter::write(self.key(key), fill);
    }

    /// Writes `(name, value)` pairs as an object member, in order.
    pub(crate) fn map<T: ToWire>(&mut self, key: &str, pairs: &[(String, T)]) {
        self.object(key, |o| pairs.iter().for_each(|(k, v)| o.value(k, v)));
    }
}

/// A value with a wire form: how it is written.
pub(crate) trait ToWire {
    /// Appends the value's JSON text to `out`.
    fn write(&self, out: &mut String);

    /// Whether a member holding this value is left off the wire: true
    /// only for a `None`.
    fn omitted(&self) -> bool {
        false
    }
}

/// A value with a wire form: how it is read.
pub(crate) trait FromWire: Sized {
    /// Converts the parsed value `v`, found at `at`. `v` is `null` for
    /// an absent member, so only an `Option` may be missing.
    fn read(v: Json, at: At<'_>) -> Result<Self, DecodeError>;
}

/// Encodes one value as a line (without the newline).
pub(crate) fn encode<T: ToWire + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value.write(&mut out);
    out
}

/// Decodes one line that should hold a `what` (`request`, `response`,
/// `push`, `checkpoint`).
pub(crate) fn decode<T: FromWire>(line: &str, what: &str) -> Result<T, DecodeError> {
    let v = Json::parse(line).map_err(|e| DecodeError::new(format!("invalid JSON: {e}")))?;
    T::read(v, At { key: what, scope: "", place: Place::Line })
}

/// Where a value sits, so a decode error can name it.
#[derive(Clone, Copy)]
pub(crate) struct At<'a> {
    /// The member name, or for a whole line what it should hold.
    key: &'a str,
    /// Prefix of `field` in member errors (`"checkpoint "` inside a
    /// checkpoint).
    scope: &'static str,
    place: Place,
}

#[derive(Clone, Copy)]
enum Place {
    /// A whole line.
    Line,
    /// A required member.
    Member,
    /// A member that may be absent or `null`.
    Optional,
    /// One entry of an array or object member.
    Entry,
}

impl At<'_> {
    /// The error for a value that is not a JSON `noun` (`string`,
    /// `numeric`, `integer`, `boolean`, `array`, `object`).
    fn wrong(self, noun: &str) -> DecodeError {
        let At { key, scope, place } = self;
        DecodeError::new(match place {
            Place::Line => format!("{key} must be a JSON {noun}"),
            Place::Member => format!("missing or non-{noun} {scope}field {key:?}"),
            Place::Optional => format!("non-{noun} {scope}field {key:?}"),
            Place::Entry => format!("non-{noun} entry in {key:?}"),
        })
    }

    fn with(self, place: Place) -> Self {
        At { place, ..self }
    }
}

/// The members of one parsed object, taken out one by one as a
/// message's fields are read. Unknown members are ignored.
pub(crate) struct Members {
    members: Vec<(String, Json)>,
    scope: &'static str,
}

impl FromWire for Members {
    fn read(v: Json, at: At<'_>) -> Result<Members, DecodeError> {
        match v {
            Json::Obj(members) => Ok(Members { members, scope: at.scope }),
            _ => Err(at.wrong("object")),
        }
    }
}

impl Members {
    /// The same members, named `<scope>field` in errors.
    pub(crate) fn scoped(self, scope: &'static str) -> Members {
        Members { scope, ..self }
    }

    /// Whether member `key` is present.
    pub(crate) fn has(&self, key: &str) -> bool {
        self.members.iter().any(|(k, _)| k == key)
    }

    /// Moves the first member named `key` out, so a large string is
    /// kept without copying it; an absent member reads as `null`.
    fn take(&mut self, key: &str) -> Json {
        self.members
            .iter_mut()
            .find(|(k, _)| k == key)
            .map_or(Json::Null, |(_, v)| std::mem::replace(v, Json::Null))
    }

    fn at<'k>(&self, key: &'k str, place: Place) -> At<'k> {
        At { key, scope: self.scope, place }
    }

    /// Reads member `key`.
    pub(crate) fn field<T: FromWire>(&mut self, key: &str) -> Result<T, DecodeError> {
        T::read(self.take(key), self.at(key, Place::Member))
    }

    /// Reads a boolean member that reads as `false` when absent.
    pub(crate) fn or_false(&mut self, key: &str) -> Result<bool, DecodeError> {
        if !self.has(key) {
            return Ok(false);
        }
        bool::read(self.take(key), self.at(key, Place::Optional))
    }

    /// Reads an object member as `(name, value)` pairs, in order.
    pub(crate) fn map<T: FromWire>(&mut self, key: &str) -> Result<Vec<(String, T)>, DecodeError> {
        let at = self.at(key, Place::Member);
        match self.take(key) {
            Json::Obj(pairs) => pairs
                .into_iter()
                .map(|(k, v)| Ok((k, T::read(v, at.with(Place::Entry))?)))
                .collect(),
            _ => Err(at.wrong("object")),
        }
    }
}

impl ToWire for str {
    fn write(&self, out: &mut String) {
        write_string(self, out);
    }
}

impl ToWire for String {
    fn write(&self, out: &mut String) {
        write_string(self, out);
    }
}

impl FromWire for String {
    fn read(v: Json, at: At<'_>) -> Result<String, DecodeError> {
        match v {
            Json::Str(s) => Ok(s),
            _ => Err(at.wrong("string")),
        }
    }
}

impl ToWire for f64 {
    fn write(&self, out: &mut String) {
        write_number(*self, out);
    }
}

impl FromWire for f64 {
    fn read(v: Json, at: At<'_>) -> Result<f64, DecodeError> {
        v.as_f64().ok_or_else(|| at.wrong("numeric"))
    }
}

impl ToWire for u64 {
    fn write(&self, out: &mut String) {
        write_number(*self as f64, out);
    }
}

impl FromWire for u64 {
    fn read(v: Json, at: At<'_>) -> Result<u64, DecodeError> {
        v.as_u64().ok_or_else(|| at.wrong("integer"))
    }
}

impl ToWire for u32 {
    fn write(&self, out: &mut String) {
        write_number(f64::from(*self), out);
    }
}

impl FromWire for u32 {
    fn read(v: Json, at: At<'_>) -> Result<u32, DecodeError> {
        u32::try_from(u64::read(v, at)?)
            .map_err(|_| DecodeError::new(format!("{} out of range", at.key)))
    }
}

impl ToWire for bool {
    fn write(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl FromWire for bool {
    fn read(v: Json, at: At<'_>) -> Result<bool, DecodeError> {
        v.as_bool().ok_or_else(|| at.wrong("boolean"))
    }
}

impl<T: ToWire> ToWire for Option<T> {
    fn write(&self, out: &mut String) {
        match self {
            Some(v) => v.write(out),
            None => out.push_str("null"),
        }
    }

    fn omitted(&self) -> bool {
        self.is_none()
    }
}

impl<T: FromWire> FromWire for Option<T> {
    fn read(v: Json, at: At<'_>) -> Result<Option<T>, DecodeError> {
        match v {
            Json::Null => Ok(None),
            v => T::read(v, at.with(Place::Optional)).map(Some),
        }
    }
}

impl<T: ToWire + ?Sized> ToWire for Box<T> {
    fn write(&self, out: &mut String) {
        (**self).write(out);
    }
}

impl<T: FromWire> FromWire for Box<T> {
    fn read(v: Json, at: At<'_>) -> Result<Box<T>, DecodeError> {
        T::read(v, at).map(Box::new)
    }
}

impl<T: ToWire> ToWire for [T] {
    fn write(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write(out);
        }
        out.push(']');
    }
}

impl<T: ToWire> ToWire for Vec<T> {
    fn write(&self, out: &mut String) {
        self.as_slice().write(out);
    }
}

impl<T: FromWire> FromWire for Vec<T> {
    fn read(v: Json, at: At<'_>) -> Result<Vec<T>, DecodeError> {
        match v {
            Json::Arr(items) => {
                items.into_iter().map(|i| T::read(i, at.with(Place::Entry))).collect()
            }
            _ => Err(at.wrong("array")),
        }
    }
}

/// A `[a, b, c]` triple of integers (a checkpoint's quarantine entry).
impl ToWire for (u64, u64, u64) {
    fn write(&self, out: &mut String) {
        [self.0, self.1, self.2][..].write(out);
    }
}

impl FromWire for (u64, u64, u64) {
    fn read(v: Json, at: At<'_>) -> Result<(u64, u64, u64), DecodeError> {
        match Vec::<u64>::read(v, at)?[..] {
            [a, b, c] => Ok((a, b, c)),
            _ => Err(at.wrong("triple")),
        }
    }
}

/// Writes `n`, which must be finite, as a JSON number. Rust's `Display`
/// for `f64` produces the shortest string that round-trips, so integral
/// values render without a fractional part (`5`, not `5.0`) and the
/// output is stable across platforms.
fn write_number(n: f64, out: &mut String) {
    debug_assert!(n.is_finite(), "JSON cannot carry {n}");
    if n == 0.0 {
        // Collapse -0.0: "-0" and "0" decode equal but compare unequal
        // as transcript bytes.
        out.push('0');
    } else {
        use fmt::Write;
        let _ = write!(out, "{n}");
    }
}

/// The bytes a JSON string cannot carry literally: the quote, the
/// backslash and the control characters. All are ASCII, so they never
/// fall inside a multi-byte UTF-8 scalar, and the text between two of
/// them can be copied as one run in both directions.
fn needs_escape(b: u8) -> bool {
    b == b'"' || b == b'\\' || b < 0x20
}

/// Writes `s` as a string literal with canonical escapes: two-character
/// escapes where JSON defines them, `\u00XX` for the other control
/// characters, everything else copied verbatim in runs.
fn write_string(s: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.reserve(s.len() + 2);
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !needs_escape(b) {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            0x08 => out.push_str("\\b"),
            0x0c => out.push_str("\\f"),
            _ => {
                out.push_str("\\u00");
                out.push(HEX[usize::from(b >> 4)] as char);
                out.push(HEX[usize::from(b & 0xf)] as char);
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// A parse failure: what went wrong and the byte offset where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable reason.
    pub message: String,
    /// Byte offset into the input where parsing stopped.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Test builds only: parse strings with the original
    /// char-at-a-time oracle (see the tests) instead of in runs.
    #[cfg(test)]
    oracle: bool,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
            #[cfg(test)]
            oracle: false,
        }
    }

    /// Parses one complete value with nothing but whitespace around it.
    fn document(mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        let value = self.value(0)?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after JSON value"));
        }
        Ok(value)
    }

    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError { message: message.into(), offset: self.pos }
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected {word:?}")))
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        #[cfg(test)]
        if self.oracle {
            return self.string_char_at_a_time();
        }
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            let run = self.bytes[start..].iter().position(|&b| needs_escape(b));
            self.pos = run.map_or(self.bytes.len(), |n| start + n);
            // The input is a &str and runs end on ASCII bytes, so this
            // check cannot fail; it stays as a guard, paid once per run.
            let text = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| JsonError { message: "invalid UTF-8".into(), offset: start })?;
            out.push_str(text);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let c = self.unicode_escape()?;
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("raw control character in string")),
            }
        }
    }

    /// Parses the 4 hex digits after `\u` (cursor already past the
    /// `u`), combining surrogate pairs.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: require a \uXXXX low surrogate.
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let lo = self.hex4()?;
                if (0xDC00..0xE000).contains(&lo) {
                    let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    return char::from_u32(c).ok_or_else(|| self.err("invalid surrogate pair"));
                }
            }
            return Err(self.err("unpaired surrogate"));
        }
        char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(b @ b'0'..=b'9') => (b - b'0') as u32,
                Some(b @ b'a'..=b'f') => (b - b'a' + 10) as u32,
                Some(b @ b'A'..=b'F') => (b - b'A' + 10) as u32,
                _ => return Err(self.err("expected 4 hex digits")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
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
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        let n: f64 = text.parse().map_err(|_| self.err("invalid number"))?;
        if !n.is_finite() {
            return Err(self.err("number overflows f64"));
        }
        Ok(Json::Num(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    // The original char-at-a-time string parser and writer, kept as
    // oracles: the run-based versions must agree with them byte for
    // byte, error messages and offsets included.
    impl Parser<'_> {
        pub(super) fn string_char_at_a_time(&mut self) -> Result<String, JsonError> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err(self.err("unterminated string")),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.peek() {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'b') => out.push('\u{08}'),
                            Some(b'f') => out.push('\u{0c}'),
                            Some(b'u') => {
                                self.pos += 1;
                                let c = self.unicode_escape()?;
                                out.push(c);
                                continue;
                            }
                            _ => return Err(self.err("invalid escape")),
                        }
                        self.pos += 1;
                    }
                    Some(b) if b < 0x20 => {
                        return Err(self.err("raw control character in string"))
                    }
                    Some(_) => {
                        // Consume one UTF-8 scalar (input is a &str, so the
                        // bytes are valid UTF-8 by construction).
                        let rest = &self.bytes[self.pos..];
                        let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid UTF-8"))?;
                        let c = s.chars().next().unwrap();
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }
    }

    fn write_string_char_at_a_time(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                '\u{08}' => out.push_str("\\b"),
                '\u{0c}' => out.push_str("\\f"),
                c if (c as u32) < 0x20 => {
                    use fmt::Write;
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    fn parse_char_at_a_time(text: &str) -> Result<Json, JsonError> {
        Parser { oracle: true, ..Parser::new(text) }.document()
    }

    /// One scalar from each class the codec treats differently: plain
    /// ASCII, every control character, the three escapable printables,
    /// and 2-, 3- and 4-byte UTF-8.
    fn any_char() -> impl Strategy<Value = char> {
        prop_oneof![
            (0x20u32..0x7f).prop_map(|c| char::from_u32(c).unwrap()),
            (0x00u32..0x20).prop_map(|c| char::from_u32(c).unwrap()),
            prop_oneof![Just('"'), Just('\\'), Just('/')],
            (0x80u32..0x800).prop_map(|c| char::from_u32(c).unwrap()),
            (0x800u32..0xd800).prop_map(|c| char::from_u32(c).unwrap()),
            (0xe000u32..0x10000).prop_map(|c| char::from_u32(c).unwrap()),
            (0x10000u32..0x110000).prop_map(|c| char::from_u32(c).unwrap()),
        ]
    }

    fn any_string() -> impl Strategy<Value = String> {
        proptest::collection::vec(any_char(), 0..48).prop_map(|cs| cs.into_iter().collect())
    }

    /// A string body mixing valid text with the fragments that make the
    /// string parser fail: raw control characters, bad escapes,
    /// truncated and unpaired `\u` escapes.
    fn hostile_body() -> impl Strategy<Value = String> {
        let piece = prop_oneof![
            any_char().prop_map(String::from),
            prop_oneof![
                Just("\\x"),
                Just("\\u12"),
                Just("\\uzz00"),
                Just("\\ud800"),
                Just("\\ud800\\u0041"),
                Just("\\udc00"),
                Just("\\ud83d\\ude00"),
                Just("\\u00e9"),
                Just("\\"),
                Just("\""),
            ]
            .prop_map(String::from),
        ];
        proptest::collection::vec(piece, 0..24).prop_map(|ps| ps.concat())
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("-2.5e2").unwrap(), Json::Num(-250.0));
        assert_eq!(Json::parse("\"a\\nb\"").unwrap(), Json::Str("a\nb".into()));
    }

    #[test]
    fn parses_structures_preserving_member_order() {
        let v = Json::parse(r#"{"b":1,"a":[true,null,"x"]}"#).unwrap();
        assert_eq!(
            v,
            Json::Obj(vec![
                ("b".into(), Json::Num(1.0)),
                (
                    "a".into(),
                    Json::Arr(vec![Json::Bool(true), Json::Null, Json::Str("x".into())])
                ),
            ])
        );
        assert_eq!(v.get("b"), Some(&Json::Num(1.0)));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn encode_is_deterministic_and_reparses() {
        let mut text = String::new();
        ObjectWriter::write(&mut text, |o| {
            o.value("cmd", "render");
            o.value("w", &800.0);
            o.value("f", &0.5);
            o.field("absent", &None::<f64>);
            o.value("null", &None::<f64>);
            o.object("nested", |o| {
                o.value("zero", &vec![-0.0]);
                o.value("s", "a\"b\\c\nd");
            });
        });
        assert_eq!(
            text,
            r#"{"cmd":"render","w":800,"f":0.5,"null":null,"nested":{"zero":[0],"s":"a\"b\\c\nd"}}"#
        );
        // -0.0 canonicalizes to 0 on the wire.
        let nested = Json::Obj(vec![
            ("zero".into(), Json::Arr(vec![Json::Num(0.0)])),
            ("s".into(), Json::Str("a\"b\\c\nd".into())),
        ]);
        assert_eq!(
            Json::parse(&text).unwrap(),
            Json::Obj(vec![
                ("cmd".into(), Json::Str("render".into())),
                ("w".into(), Json::Num(800.0)),
                ("f".into(), Json::Num(0.5)),
                ("null".into(), Json::Null),
                ("nested".into(), nested),
            ])
        );
    }

    #[test]
    fn unicode_escapes_round_trip() {
        let v = Json::parse(r#""\u00e9\ud83d\ude00\u0007""#).unwrap();
        assert_eq!(v, Json::Str("é😀\u{7}".into()));
        // Canonical re-encode: printable stays literal, control escapes.
        assert_eq!(encode(v.as_str().unwrap()), "\"é😀\\u0007\"");
    }

    #[test]
    fn hostile_inputs_error_instead_of_crashing() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "\"unterminated",
            "01x",
            "1e400",
            "nulll",
            "{\"a\":1} extra",
            "\"\\ud800\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
        let bomb = "[".repeat(100_000);
        let err = Json::parse(&bomb).unwrap_err();
        assert!(err.message.contains("deep"), "{err}");
    }

    #[test]
    fn as_u64_accepts_exact_integers_only() {
        assert_eq!(Json::Num(5.0).as_u64(), Some(5));
        assert_eq!(Json::Num(0.0).as_u64(), Some(0));
        assert_eq!(Json::Num(5.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Str("5".into()).as_u64(), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        #[test]
        fn strings_round_trip(s in any_string()) {
            let text = encode(&s);
            prop_assert_eq!(Json::parse(&text), Ok(Json::Str(s)));
        }

        #[test]
        fn run_writer_matches_char_at_a_time_writer(s in any_string()) {
            let (mut runs, mut chars) = (String::new(), String::new());
            write_string(&s, &mut runs);
            write_string_char_at_a_time(&s, &mut chars);
            prop_assert_eq!(runs, chars);
        }

        #[test]
        fn run_parser_matches_char_at_a_time_parser(
            body in hostile_body(),
            closed in 0usize..2,
            wrap in 0usize..2,
        ) {
            let string = if closed == 1 { format!("\"{body}\"") } else { format!("\"{body}") };
            let text = if wrap == 1 { format!("{{\"k\":{string},{string}:1}}") } else { string };
            prop_assert_eq!(Json::parse(&text), parse_char_at_a_time(&text));
        }
    }
}
