//! A minimal JSON value type, parser, and writer.
//!
//! The build environment has no crates-io mirror, so `serde` is not
//! available; this module supplies the small JSON subset the scenario
//! lab needs — [`ScenarioSpec`](crate::scenario::ScenarioSpec) spec
//! files and [`SweepResult`](crate::scenario::SweepResult) exports.
//! It parses the full JSON grammar (objects, arrays, strings with
//! escapes, numbers, booleans, null) and writes deterministic output:
//! object keys keep insertion order and `f64`s render with Rust's
//! shortest round-trip formatting.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always held as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Insertion order is preserved for stable output.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// The value at `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if numeric and integral.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as usize)
            }
            _ => None,
        }
    }

    /// The value as `u64`, if numeric and integral.
    ///
    /// Values above 2^53 lose precision in transit (JSON numbers are
    /// doubles); seeds that matter should stay below that.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as `bool`, if a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as `&str`, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a slice, if an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Renders compact JSON (no whitespace).
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders pretty-printed JSON with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (nl, pad, pad_in) = match indent {
            Some(w) => ("\n", " ".repeat(w * depth), " ".repeat(w * (depth + 1))),
            None => ("", String::new(), String::new()),
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    // Rust's Debug for f64 is shortest-roundtrip and is
                    // valid JSON for finite values.
                    out.push_str(&format!("{n:?}"));
                } else {
                    out.push_str("null"); // JSON has no NaN/Infinity
                }
            }
            Json::Str(s) => write_escaped(out, s),
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
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    item.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push('}');
            }
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// What class of failure a [`ParseError`] is. Callers that need to
/// react differently to different failures (the journal recovery
/// scanner treats any kind as frame corruption, but tests pin the
/// specific rejection) match on this instead of parsing the message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// Malformed syntax: unexpected character, bad literal, bad
    /// escape, unterminated string, missing separator.
    Syntax,
    /// Input ended inside a value.
    UnexpectedEof,
    /// A complete value was followed by non-whitespace bytes.
    TrailingGarbage,
    /// An object repeated a key.
    DuplicateKey,
    /// A number token parsed to a non-finite `f64` (e.g. `1e999`) —
    /// JSON has no `Infinity`, so silently accepting it would create
    /// values the writer cannot round-trip.
    NonFiniteNumber,
    /// Arrays/objects nested beyond [`MAX_DEPTH`] (a depth bomb would
    /// otherwise overflow the recursive parser's stack).
    TooDeep,
}

/// Maximum array/object nesting depth [`parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// A parse failure: what went wrong and the byte offset it happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// The failure class.
    pub kind: ParseErrorKind,
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

impl std::error::Error for ParseError {}

/// Parses a JSON document. The whole input must be one value (trailing
/// whitespace allowed).
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        src: input,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != input.len() {
        return Err(p.err_kind(
            ParseErrorKind::TrailingGarbage,
            "trailing characters after JSON value",
        ));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    /// Byte offset into `src`; always on a char boundary between
    /// tokens.
    pos: usize,
    /// Current array/object nesting depth (depth-bomb guard).
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        let kind = if self.pos >= self.src.len() {
            ParseErrorKind::UnexpectedEof
        } else {
            ParseErrorKind::Syntax
        };
        self.err_kind(kind, message)
    }

    fn err_kind(&self, kind: ParseErrorKind, message: &str) -> ParseError {
        ParseError {
            kind,
            message: message.to_string(),
            at: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.src.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Bumps the nesting depth on container entry, failing on a depth
    /// bomb. The matching decrement happens in `object`/`array` on
    /// their (sole) successful exits.
    fn enter(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err_kind(
                ParseErrorKind::TooDeep,
                "arrays/objects nested deeper than MAX_DEPTH",
            ));
        }
        Ok(())
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        self.enter()?;
        let mut pairs = Vec::new();
        let mut keys = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key_at = self.pos;
            let key = self.string()?;
            if keys.insert(key.clone(), ()).is_some() {
                return Err(ParseError {
                    kind: ParseErrorKind::DuplicateKey,
                    message: format!("duplicate key {key:?}"),
                    at: key_at,
                });
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
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
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
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
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .src
                                .as_bytes()
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ascii \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogate pairs are not needed by the lab's
                            // identifiers; reject rather than mangle.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("\\u escape is a surrogate"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar: `pos` is on a char
                    // boundary, since every byte consumed before it
                    // was ASCII or a whole char.
                    let c = self.src[self.pos..]
                        .chars()
                        .next()
                        .expect("non-empty by peek");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
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
        let n = self.src[start..self.pos]
            .parse::<f64>()
            .map_err(|_| self.err("invalid number"))?;
        if !n.is_finite() {
            // `"1e999".parse::<f64>()` is `Ok(inf)` in Rust — reject
            // rather than admit a value the writer renders as `null`.
            return Err(self.err_kind(
                ParseErrorKind::NonFiniteNumber,
                "number overflows to a non-finite f64",
            ));
        }
        Ok(Json::Num(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_a_nested_document() {
        let doc = Json::obj(vec![
            ("name", Json::Str("fig10-vs-n".into())),
            ("runs", Json::Num(100.0)),
            ("flag", Json::Bool(true)),
            ("none", Json::Null),
            (
                "values",
                Json::Arr(vec![Json::Num(40.0), Json::Num(20.5), Json::Num(-1.25)]),
            ),
            (
                "nested",
                Json::obj(vec![("k", Json::Str("a \"quoted\"\nline".into()))]),
            ),
        ]);
        for text in [doc.to_string_compact(), doc.to_string_pretty()] {
            assert_eq!(parse(&text).unwrap(), doc);
        }
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = parse(" { \"a\" : [ 1 , 2.5e1 ] , \"b\" : \"x\\u0041\\t\" } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1], Json::Num(25.0));
        assert_eq!(v.get("b").unwrap().as_str().unwrap(), "xA\t");
    }

    #[test]
    fn integral_accessors_guard_fractions() {
        assert_eq!(parse("3").unwrap().as_usize(), Some(3));
        assert_eq!(parse("3.5").unwrap().as_usize(), None);
        assert_eq!(parse("-1").unwrap().as_usize(), None);
        assert_eq!(parse("12345678901").unwrap().as_u64(), Some(12345678901));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"unterminated"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
        // Duplicate keys are a spec-file authoring error, not silently
        // last-wins.
        assert!(parse("{\"a\":1,\"a\":2}").is_err());
    }

    #[test]
    fn typed_error_kinds() {
        let kind = |input: &str| parse(input).unwrap_err().kind;
        assert_eq!(kind("1 2"), ParseErrorKind::TrailingGarbage);
        assert_eq!(kind("[1] x"), ParseErrorKind::TrailingGarbage);
        assert_eq!(kind("{\"a\":1,\"a\":2}"), ParseErrorKind::DuplicateKey);
        assert_eq!(kind("{"), ParseErrorKind::UnexpectedEof);
        assert_eq!(kind("\"unterminated"), ParseErrorKind::UnexpectedEof);
        assert_eq!(kind("[1,]"), ParseErrorKind::Syntax);
        assert_eq!(kind("tru"), ParseErrorKind::Syntax);
    }

    #[test]
    fn rejects_numbers_that_overflow_to_infinity() {
        for bad in ["1e999", "-1e999", "123456789e307"] {
            let err = parse(bad).unwrap_err();
            assert_eq!(err.kind, ParseErrorKind::NonFiniteNumber, "{bad:?}");
        }
        // The largest finite doubles still parse.
        assert!(parse("1.7976931348623157e308").is_ok());
        assert!(parse("-1.7976931348623157e308").is_ok());
    }

    #[test]
    fn rejects_depth_bombs_without_overflowing() {
        let deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        let err = parse(&deep).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::TooDeep);
        let bomb = "[".repeat(200_000);
        let err = parse(&bomb).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::TooDeep);
        // ...and exactly MAX_DEPTH is fine (siblings don't count:
        // depth is nesting, not total containers).
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok());
        assert!(parse("[[1],[2],[3],[{},{}]]").is_ok());
    }

    #[test]
    fn multibyte_utf8_roundtrips_in_keys_and_values() {
        // 2-, 3- and 4-byte UTF-8 scalars, next to escapes and ASCII.
        let doc = Json::Obj(vec![
            ("µs".into(), Json::Str("2 µs".into())),
            ("Δ".into(), Json::Str("Δr → r'".into())),
            ("→".into(), Json::Arr(vec![Json::Str("a→b\n\"c\"".into())])),
            ("📡🛰".into(), Json::Str("📡 link: Δ=µ→∞ 🛰".into())),
        ]);
        for text in [doc.to_string_compact(), doc.to_string_pretty()] {
            assert!(text.contains("📡🛰"), "rendered raw, not escaped");
            assert_eq!(parse(&text).unwrap(), doc);
        }
        // A multi-byte char is one unexpected token outside a string,
        // reported at its first byte.
        let err = parse("[1, µ]").unwrap_err();
        assert_eq!((err.kind, err.at), (ParseErrorKind::Syntax, 4));
        // A torn document ending mid-string is an error, not a panic.
        assert_eq!(
            parse("{\"Δ\":\"→").unwrap_err().kind,
            ParseErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        assert_eq!(Json::Num(f64::NAN).to_string_compact(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string_compact(), "null");
    }

    #[test]
    fn shortest_roundtrip_float_formatting() {
        let n = 46.666666666666664f64;
        let text = Json::Num(n).to_string_compact();
        assert_eq!(parse(&text).unwrap().as_f64(), Some(n));
    }
}
