//! Minimal JSON value model, writer, and parser for run artifacts.
//!
//! Hand-rolled under the workspace's hermetic zero-dependency policy
//! (DESIGN.md §6). Two properties matter for artifacts and are not
//! guaranteed by a generic f64-based JSON library:
//!
//! - **integers are preserved exactly**: numbers without a fraction or
//!   exponent parse to `u64`/`i64`, so IEEE-754 bit patterns (how the
//!   artifact layer stores floats) round-trip bit-exactly;
//! - **object key order is stable**: objects are ordered vectors, so a
//!   written line is byte-reproducible.
//!
//! The subset is exactly what the manifests need: no `\uXXXX` escapes
//! beyond what [`escape`] emits, and numbers outside `u64`/`i64` fall
//! back to `f64`.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer that fits in `u64`.
    U64(u64),
    /// A negative integer that fits in `i64`.
    I64(i64),
    /// Any other number.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with stable (insertion) key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up a key in an object.
    pub fn field(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64` (exact integers only).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            Json::I64(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Renders the value on one line (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => {
                // `{:?}` is Rust's shortest round-trip f64 formatting.
                let _ = write!(out, "{v:?}");
            }
            Json::Str(s) => escape(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn escape(s: &str, out: &mut String) {
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

/// Parses one JSON value from `input`.
///
/// Returns a descriptive error (with byte offset) on malformed input or
/// trailing non-whitespace.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte at {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
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
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            s.push(char::from_u32(code).ok_or("bad \\u code point")?);
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run of plain bytes up to the next quote or
                    // backslash. Both are ASCII, so the run ends on a
                    // character boundary of the (valid UTF-8) input, and
                    // each byte is decoded once.
                    let rest = &self.bytes[self.pos..];
                    let len = rest.iter().position(|&b| b == b'"' || b == b'\\');
                    let run = &rest[..len.unwrap_or(rest.len())];
                    s.push_str(std::str::from_utf8(run).map_err(|_| "invalid utf-8")?);
                    self.pos += run.len();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if !float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::I64(v));
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Json) -> Json {
        parse(&v.render()).expect("roundtrip parse")
    }

    #[test]
    fn scalars_roundtrip() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::U64(0),
            Json::U64(u64::MAX),
            Json::I64(-42),
            Json::I64(i64::MIN),
            Json::F64(0.25),
            Json::F64(-1.5e-9),
            Json::Str("hé \"quoted\"\n\\tab\t".into()),
        ] {
            assert_eq!(roundtrip(&v), v, "{}", v.render());
        }
    }

    #[test]
    fn u64_bit_patterns_survive_exactly() {
        // The artifact layer stores f64s as bit patterns; they exceed
        // f64's exact-integer range, so integer preservation is load-
        // bearing, not cosmetic.
        let bits = std::f64::consts::PI.to_bits();
        assert!(bits > (1u64 << 53));
        let v = Json::obj(vec![("bits", Json::U64(bits))]);
        let back = roundtrip(&v);
        assert_eq!(back.field("bits").and_then(Json::as_u64), Some(bits));
        assert_eq!(f64::from_bits(bits), std::f64::consts::PI);
    }

    #[test]
    fn nested_structures_roundtrip_with_key_order() {
        let v = Json::obj(vec![
            ("zeta", Json::Arr(vec![Json::U64(1), Json::Null, Json::Str("x".into())])),
            ("alpha", Json::obj(vec![("k", Json::Bool(false))])),
        ]);
        let line = v.render();
        assert_eq!(line, r#"{"zeta":[1,null,"x"],"alpha":{"k":false}}"#);
        assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn field_lookup_and_accessors() {
        let v = parse(r#"{"a": 7, "b": [1, 2], "c": "s"}"#).unwrap();
        assert_eq!(v.field("a").and_then(Json::as_u64), Some(7));
        assert_eq!(v.field("b").and_then(Json::as_arr).map(<[Json]>::len), Some(2));
        assert_eq!(v.field("c").and_then(Json::as_str), Some("s"));
        assert_eq!(v.field("missing"), None);
    }

    #[test]
    fn malformed_inputs_error() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"open",
            "{\"a\" 1}",
            "nul",
            "1 2",
            "{\"a\":}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(parse("\"\\u0041\\u00e9\"").unwrap(), Json::Str("Aé".into()));
    }

    /// A Chrome trace of several MB parses in time linear in its size, and
    /// round-trips: long plain runs, multi-byte characters and escapes
    /// inside strings all come back unchanged.
    #[test]
    fn a_multi_megabyte_trace_round_trips() {
        let events: Vec<Json> = (0..20_000u64)
            .map(|i| {
                Json::obj(vec![
                    ("name", Json::Str(format!("nf4/galgel/d-group {} \"é\"\t→", i % 7))),
                    ("cat", Json::Str("l2".repeat(40))),
                    ("ph", Json::Str("X".into())),
                    ("ts", Json::U64(i * 1_000)),
                    ("dur", Json::F64(i as f64 + 1.0 / 3.0)),
                    ("pid", Json::U64(1)),
                    ("tid", Json::I64(-1 - i as i64 % 4)),
                    ("args", Json::obj(vec![("path", Json::Str("a\\b/c\n".repeat(10)))])),
                ])
            })
            .collect();
        let doc = Json::obj(vec![("traceEvents", Json::Arr(events))]);
        let text = doc.render();
        assert!(text.len() > 4 << 20, "{} bytes", text.len());
        // `assert!`, not `assert_eq!`: a mismatch would print the document.
        assert!(parse(&text).expect("trace parses") == doc, "the trace did not round-trip");
    }
}
