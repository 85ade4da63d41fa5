//! Hand-rolled JSON support shared by every wire surface in the workspace:
//! [`JsonWriter`] for serialization and [`JsonValue`] for parsing.
//!
//! The build environment vendors no serde, so the repo's JSON has always
//! been hand-rolled — but before this module each surface carried its own
//! copy of the escaping loop ([`crate::manager::SessionManager`]'s
//! `readings_json`, [`crate::estimate::Estimate::to_json`], `ars-bench`'s
//! report writer). The writer lives here exactly once; the conventions are
//! the ones the existing wire formats already follow:
//!
//! * floats are written with `{:?}` so `f64` round-trips exactly
//!   (non-finite values become `null` — JSON has no `NaN`/`inf`);
//! * string escaping per RFC 8259 (`"`, `\`, the short escapes, and
//!   `\u00XX` for remaining control characters);
//! * structure (braces, commas, keys) stays explicit at the call site —
//!   the formats are flat and the writers read like the JSON they emit.
//!
//! [`JsonValue`] is the matching reader: a minimal recursive-descent
//! parser. Numbers keep their **raw token** (`JsonValue::Number(String)`)
//! and are converted on demand — a flip budget of `usize::MAX - 1` does
//! not survive a round trip through `f64`, so `as_usize` parses the
//! integer token directly.
//!
//! One format is shared beyond single values: the **pair list**
//! `[[item, delta], …]`, which carries update batches on the wire
//! (`POST /tenants/{name}/update`) and exact frequency state in snapshots.
//! [`JsonWriter::pairs`] writes it and [`JsonValue::as_pairs`] parses it;
//! no other code knows its shape.

use std::fmt;

use ars_stream::Update;

/// Appends `s` to `out` escaped per RFC 8259 (without the surrounding
/// quotes). The one escaping loop behind every JSON string the workspace
/// writes.
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// A tiny push-based JSON writer: structure is written explicitly with
/// [`JsonWriter::raw`], values through the typed appenders, and the
/// escaping/float conventions live here once.
#[derive(Debug, Default)]
pub struct JsonWriter {
    buf: String,
}

impl JsonWriter {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty writer with `capacity` bytes pre-allocated.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            buf: String::with_capacity(capacity),
        }
    }

    /// Appends raw JSON text (braces, commas, already-serialized values).
    pub fn raw(&mut self, text: &str) -> &mut Self {
        self.buf.push_str(text);
        self
    }

    /// Appends `s` as a quoted, escaped JSON string literal.
    pub fn string(&mut self, s: &str) -> &mut Self {
        self.buf.push('"');
        escape_into(&mut self.buf, s);
        self.buf.push('"');
        self
    }

    /// Appends `"key":` — a quoted, escaped object key with its colon.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.string(key);
        self.buf.push(':');
        self
    }

    /// Appends a float with the repo's exact-round-trip convention: `{:?}`
    /// for finite values, `null` for `NaN`/`±inf`.
    pub fn number(&mut self, x: f64) -> &mut Self {
        if x.is_finite() {
            self.buf.push_str(&format!("{x:?}"));
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Appends an unsigned integer (never goes through `f64`, so values
    /// above 2⁵³ keep every digit).
    pub fn uint(&mut self, n: u64) -> &mut Self {
        self.buf.push_str(&n.to_string());
        self
    }

    /// Appends a signed integer.
    pub fn int(&mut self, n: i64) -> &mut Self {
        self.buf.push_str(&n.to_string());
        self
    }

    /// Appends `true`/`false`.
    pub fn boolean(&mut self, b: bool) -> &mut Self {
        self.buf.push_str(if b { "true" } else { "false" });
        self
    }

    /// Appends `null`.
    pub fn null(&mut self) -> &mut Self {
        self.buf.push_str("null");
        self
    }

    /// Appends `updates` as a pair list `[[item, delta], …]`.
    pub fn pairs(&mut self, updates: &[Update]) -> &mut Self {
        self.raw("[");
        for (i, update) in updates.iter().enumerate() {
            if i > 0 {
                self.raw(",");
            }
            self.raw("[")
                .uint(update.item)
                .raw(",")
                .int(update.delta)
                .raw("]");
        }
        self.raw("]")
    }

    /// The JSON written so far.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.buf
    }

    /// Consumes the writer, returning the JSON.
    #[must_use]
    pub fn finish(self) -> String {
        self.buf
    }
}

/// Maximum nesting depth [`JsonValue::parse`] accepts — far above any
/// format this workspace writes, low enough that a hostile body cannot
/// overflow the parser's recursion.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
///
/// Numbers keep their raw token so integer precision is never lost; use
/// [`JsonValue::as_f64`] / [`JsonValue::as_u64`] / [`JsonValue::as_usize`]
/// to convert at the use site.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its raw unparsed token (e.g. `"-1.5e3"`).
    Number(String),
    /// A string (unescaped).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, as key/value pairs in source order (duplicate keys are
    /// kept; [`JsonValue::get`] returns the first).
    Object(Vec<(String, JsonValue)>),
}

/// A parse failure, with a human-readable reason naming the byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// What went wrong, and where.
    pub reason: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.reason)
    }
}

impl std::error::Error for JsonError {}

/// Why a value is not a pair list (see [`JsonValue::as_pairs`]). The
/// caller prefixes its own context, such as `update body` or
/// `snapshot: tenant …`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairListError {
    /// The value is not an array.
    NotAnArray,
    /// An entry is not a two-element array.
    NotAPair,
    /// An entry's item is not a `u64`, or its delta not an `i64`.
    NonInteger,
}

impl fmt::Display for PairListError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::NotAnArray => "not an array of [item, delta] pairs",
            Self::NotAPair => "entries must be [item, delta] pairs",
            Self::NonInteger => "non-integer [item, delta] entry",
        })
    }
}

impl std::error::Error for PairListError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: &str) -> JsonError {
        JsonError {
            reason: format!("{what} at byte {}", self.pos),
        }
    }

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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, text: &str) -> bool {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') if self.literal("null") => Ok(JsonValue::Null),
            Some(b't') if self.literal("true") => Ok(JsonValue::Bool(true)),
            Some(b'f') if self.literal("false") => Ok(JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::String),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.err("malformed number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.err("malformed number (empty fraction)"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err("malformed number (empty exponent)"));
            }
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number tokens are ASCII")
            .to_string();
        Ok(JsonValue::Number(token))
    }

    fn string(&mut self) -> Result<String, JsonError> {
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let first = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&first) {
                                // High surrogate: a \uXXXX low surrogate
                                // must follow.
                                if !(self.literal("\\u")) {
                                    return Err(self.err("lone high surrogate"));
                                }
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((first - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(code)
                            } else {
                                char::from_u32(first)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid unicode escape")),
                            }
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(self.err("unescaped control character in string"))
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // bytes are valid UTF-8; find the next char boundary).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().expect("peeked a byte");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let digit = match self.peek() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return Err(self.err("invalid \\u escape")),
            };
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value(depth + 1)?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(entries));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

impl JsonValue {
    /// Parses the first JSON value in `text`, ignoring anything after it.
    /// The tolerant form the reading parser has always used — a reading
    /// embedded in a larger document parses from its start offset.
    pub fn parse(text: &str) -> Result<Self, JsonError> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        parser.value(0)
    }

    /// Parses `text` as exactly one JSON value: trailing content other
    /// than whitespace is an error. The right form for HTTP bodies.
    pub fn parse_strict(text: &str) -> Result<Self, JsonError> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = parser.value(0)?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(parser.err("trailing content after JSON value"));
        }
        Ok(value)
    }

    /// The value under `key`, if this is an object containing it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The object's entries, if this is an object.
    #[must_use]
    pub fn entries(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// The array's items, if this is an array.
    #[must_use]
    pub fn items(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as `f64`, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(token) => token.parse().ok(),
            _ => None,
        }
    }

    /// The number as `u64`, parsed from the raw token so integers above
    /// 2⁵³ keep every digit. `None` for non-integers.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(token) => token.parse().ok(),
            _ => None,
        }
    }

    /// The number as `usize` (same exact-token contract as
    /// [`JsonValue::as_u64`]).
    #[must_use]
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            JsonValue::Number(token) => token.parse().ok(),
            _ => None,
        }
    }

    /// The number as `i64`, parsed from the raw token.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Number(token) => token.parse().ok(),
            _ => None,
        }
    }

    /// Whether this is `null`.
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }

    /// The updates of a pair list `[[item, delta], …]`, the inverse of
    /// [`JsonWriter::pairs`]. The first malformed entry is the error.
    pub fn as_pairs(&self) -> Result<Vec<Update>, PairListError> {
        let entries = self.items().ok_or(PairListError::NotAnArray)?;
        entries
            .iter()
            .map(|entry| match entry.items() {
                Some([item, delta]) => match (item.as_u64(), delta.as_i64()) {
                    (Some(item), Some(delta)) => Ok(Update::new(item, delta)),
                    _ => Err(PairListError::NonInteger),
                },
                _ => Err(PairListError::NotAPair),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The escaping contract previously pinned by ars-bench's private
    // report-writer tests; it now lives here, on the shared writer.
    #[test]
    fn writer_escapes_per_rfc_8259() {
        let mut w = JsonWriter::new();
        w.string("quote \" backslash \\ newline \n tab \t bell \u{7} done");
        let json = w.finish();
        for needle in ["\\\"", "\\\\", "\\n", "\\t", "\\u0007"] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        assert!(json.starts_with('"') && json.ends_with('"'));
        // And the parser undoes exactly what the writer did.
        let parsed = JsonValue::parse(&json).unwrap();
        assert_eq!(
            parsed.as_str().unwrap(),
            "quote \" backslash \\ newline \n tab \t bell \u{7} done"
        );
    }

    #[test]
    fn writer_floats_round_trip_and_non_finite_becomes_null() {
        let mut w = JsonWriter::new();
        w.number(0.1 + 0.2);
        assert_eq!(w.as_str(), "0.30000000000000004");
        let mut w = JsonWriter::new();
        w.number(f64::NAN).raw(",").number(f64::INFINITY);
        assert_eq!(w.finish(), "null,null");
    }

    #[test]
    fn writer_builds_objects_with_exact_integers() {
        let mut w = JsonWriter::new();
        w.raw("{")
            .key("lambda")
            .uint(u64::MAX - 1)
            .raw(",")
            .key("delta")
            .int(-3)
            .raw(",")
            .key("ok")
            .boolean(true)
            .raw(",")
            .key("gone")
            .null()
            .raw("}");
        let json = w.finish();
        assert_eq!(
            json,
            "{\"lambda\":18446744073709551614,\"delta\":-3,\"ok\":true,\"gone\":null}"
        );
        let v = JsonValue::parse_strict(&json).unwrap();
        assert_eq!(v.get("lambda").unwrap().as_u64(), Some(u64::MAX - 1));
        assert_eq!(v.get("delta").unwrap().as_i64(), Some(-3));
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert!(v.get("gone").unwrap().is_null());
    }

    #[test]
    fn parser_handles_nesting_numbers_and_unicode() {
        let v = JsonValue::parse_strict(
            "{\"a\":[1, -2.5, 1e3, 1.5e-3], \"b\":{\"c\":\"\\u00e9\\ud83d\\ude00\"}, \
             \"d\":null, \"e\":false}",
        )
        .unwrap();
        let items = v.get("a").unwrap().items().unwrap();
        assert_eq!(items[0].as_u64(), Some(1));
        assert_eq!(items[1].as_f64(), Some(-2.5));
        assert_eq!(items[2].as_f64(), Some(1000.0));
        assert_eq!(items[3].as_f64(), Some(0.0015));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("é😀"));
        assert!(v.get("d").unwrap().is_null());
        assert_eq!(v.get("e").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn large_integers_do_not_lose_precision() {
        let raw = format!("{{\"lambda\":{}}}", usize::MAX - 1);
        let v = JsonValue::parse_strict(&raw).unwrap();
        assert_eq!(v.get("lambda").unwrap().as_usize(), Some(usize::MAX - 1));
        // The f64 path would have rounded it.
        assert_ne!(
            v.get("lambda").unwrap().as_f64().unwrap() as usize,
            usize::MAX - 1
        );
    }

    #[test]
    fn prefix_parse_tolerates_trailing_content_strict_rejects_it() {
        let text = "{\"value\":1.5}]}";
        assert!(JsonValue::parse(text).is_ok());
        let err = JsonValue::parse_strict(text).unwrap_err();
        assert!(err.reason.contains("trailing"), "{err}");
        assert!(JsonValue::parse_strict("  {\"value\":1.5}  ").is_ok());
    }

    #[test]
    fn malformed_inputs_are_typed_errors_not_panics() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "\"unterminated",
            "{\"a\":01x}",
            "tru",
            "nul",
            "1.",
            "1e",
            "-",
            "{\"a\":\"\\q\"}",
            "{\"a\":\"\\ud800\"}",
            "\u{1}",
        ] {
            assert!(
                JsonValue::parse_strict(bad).is_err(),
                "{bad:?} unexpectedly parsed"
            );
        }
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        let err = JsonValue::parse_strict(&deep).unwrap_err();
        assert!(err.reason.contains("deep"), "{err}");
        let ok = "[".repeat(20) + &"]".repeat(20);
        assert!(JsonValue::parse_strict(&ok).is_ok());
    }

    #[test]
    fn duplicate_keys_resolve_to_the_first() {
        let v = JsonValue::parse_strict("{\"a\":1,\"a\":2}").unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn pair_lists_round_trip_and_name_the_first_bad_entry() {
        let updates = [Update::new(7, 1), Update::new(u64::MAX, -3)];
        let mut w = JsonWriter::new();
        w.pairs(&updates).raw(",").pairs(&[]);
        assert_eq!(w.as_str(), "[[7,1],[18446744073709551615,-3]],[]");
        let back = JsonValue::parse_strict("[[7,1],[18446744073709551615,-3]]").unwrap();
        assert_eq!(back.as_pairs().unwrap(), updates);
        for (bad, err) in [
            ("{}", PairListError::NotAnArray),
            ("[[1,1],[1]]", PairListError::NotAPair),
            ("[[1,1,1]]", PairListError::NotAPair),
            ("[7]", PairListError::NotAPair),
            ("[[-1,1]]", PairListError::NonInteger),
            ("[[1,0.5],[2]]", PairListError::NonInteger),
        ] {
            let value = JsonValue::parse_strict(bad).unwrap();
            assert_eq!(value.as_pairs(), Err(err), "{bad}");
        }
    }
}
