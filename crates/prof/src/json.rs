//! The workspace's one JSON codec: a compact streaming writer
//! ([`JsonWriter`]), a dependency-free reader ([`parse_json`]) and the
//! keyed accessors on [`Json`] every decoder reads through.
//!
//! Every JSON document the workspace writes goes through [`JsonWriter`]:
//! stream profiles, Chrome traces, and the sweep store's records,
//! envelopes, manifests and JSON lines. Separators, key quoting and
//! string escaping therefore live here only. Integers are
//! written exactly, never through `f64`; floats use Rust's
//! shortest-round-trip `Display`, which [`parse_json`] reads back
//! bit-exactly — the property the sweep store's byte-identical merge
//! rests on.

use std::fmt::{Display, Write as _};

/// Streams one compact JSON document into a `String`.
///
/// Inside [`obj`](Self::obj) every value follows a [`key`](Self::key);
/// inside [`arr`](Self::arr) values follow one another. The writer
/// places every separator and escapes every string.
#[derive(Debug)]
pub struct JsonWriter {
    out: String,
    /// Whether the next key or value continues a container (needs a comma).
    comma: bool,
}

impl JsonWriter {
    /// An empty writer with `capacity` bytes reserved.
    pub fn with_capacity(capacity: usize) -> JsonWriter {
        JsonWriter {
            out: String::with_capacity(capacity),
            comma: false,
        }
    }

    /// The document written.
    pub fn finish(self) -> String {
        self.out
    }

    fn separate(&mut self) {
        if self.comma {
            self.out.push(',');
        }
    }

    fn scalar(&mut self, v: impl Display) {
        self.separate();
        let _ = write!(self.out, "{v}");
        self.comma = true;
    }

    /// An object member's key; the call chained on it writes the value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.str(key);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// An integer, written exactly.
    pub fn uint(&mut self, n: u64) {
        self.scalar(n);
    }

    /// A float, in Rust's shortest-round-trip `Display` form.
    pub fn num(&mut self, x: f64) {
        self.scalar(x);
    }

    /// `true` or `false`.
    pub fn bool(&mut self, b: bool) {
        self.scalar(b);
    }

    /// `null`.
    pub fn null(&mut self) {
        self.scalar("null");
    }

    /// A string: quotes and backslashes are backslash-escaped and every
    /// control character is written as an escape, so it always parses
    /// back to `s`.
    pub fn str(&mut self, s: &str) {
        self.separate();
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(self.out, "\\u{:04x}", c as u32);
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
        self.comma = true;
    }

    /// An object whose members `members` writes.
    pub fn obj(&mut self, members: impl FnOnce(&mut Self)) {
        self.nest('{', '}', members);
    }

    /// An array whose elements `elements` writes.
    pub fn arr(&mut self, elements: impl FnOnce(&mut Self)) {
        self.nest('[', ']', elements);
    }

    fn nest(&mut self, open: char, close: char, body: impl FnOnce(&mut Self)) {
        self.separate();
        self.out.push(open);
        self.comma = false;
        body(self);
        self.out.push(close);
        self.comma = true;
    }
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (keys may repeat).
    Obj(Vec<(String, Json)>),
}

/// 2^53: every integer up to it is exact in an `f64`.
const MAX_EXACT: f64 = 9_007_199_254_740_992.0;

impl Json {
    /// Member lookup on an object (first match), else `None`.
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
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value, if this is a non-negative integer no larger than 2^53
    /// (so it was exact in the `f64` it was parsed into).
    pub fn as_uint(&self) -> Option<u64> {
        let n = self.as_num()?;
        (n >= 0.0 && n.fract() == 0.0 && n <= MAX_EXACT).then_some(n as u64)
    }

    /// Member `key` of this object; the error names the key.
    pub fn member(&self, key: &str) -> Result<&Json, String> {
        self.get(key).ok_or_else(|| format!("missing key {key:?}"))
    }

    fn typed<'a, T>(
        &'a self,
        key: &str,
        what: &str,
        cast: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<T, String> {
        cast(self.member(key)?).ok_or_else(|| format!("key {key:?} is not {what}"))
    }

    /// Member `key` as a number.
    pub fn num(&self, key: &str) -> Result<f64, String> {
        self.typed(key, "a number", Json::as_num)
    }

    /// Member `key` as a string.
    pub fn string(&self, key: &str) -> Result<&str, String> {
        self.typed(key, "a string", Json::as_str)
    }

    /// Member `key` as an array.
    pub fn array(&self, key: &str) -> Result<&[Json], String> {
        self.typed(key, "an array", Json::as_arr)
    }

    /// Member `key` as an array of exactly `len` elements.
    pub(crate) fn array_of(&self, key: &str, len: usize) -> Result<&[Json], String> {
        let items = self.array(key)?;
        if items.len() != len {
            return Err(format!(
                "key {key:?}: {} elements, expected {len}",
                items.len()
            ));
        }
        Ok(items)
    }

    /// Member `key` as a non-negative integer no larger than 2^53
    /// ([`Self::as_uint`]).
    pub fn uint(&self, key: &str) -> Result<u64, String> {
        self.typed(key, "a non-negative integer", Json::as_uint)
    }
}

/// Deepest nesting [`parse_json`] accepts. The deepest document the
/// workspace writes (a stream profile) nests 10 levels; the bound keeps
/// the recursive descent far from the end of any thread's stack, so a
/// corrupt file is an `Err`, never a stack overflow.
const MAX_DEPTH: usize = 128;

/// Parse a complete JSON document. Errors carry a byte offset and a
/// short description; trailing non-whitespace and nesting deeper than
/// 128 levels are errors.
pub fn parse_json(src: &str) -> Result<Json, String> {
    let bytes = src.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_owned()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos))
        }
        Some(b'{') => parse_object(b, pos, depth + 1),
        Some(b'[') => parse_array(b, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        expect(b, pos, b':')?;
        let val = parse_value(b, pos, depth)?;
        members.push((key, val));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {}", *pos));
    }
    *pos += 1;
    let mut out = String::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape at byte {}", *pos))?;
                        *pos += 4;
                        // Surrogate pairs are not needed for our own output.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos - 1)),
                }
            }
            c => {
                // Re-sync to char boundaries for multibyte UTF-8.
                let start = *pos - 1;
                let mut end = *pos;
                while end < b.len() && (b[end] & 0xC0) == 0x80 {
                    end += 1;
                }
                if c < 0x80 {
                    out.push(c as char);
                } else {
                    let s = std::str::from_utf8(&b[start..end])
                        .map_err(|_| format!("invalid UTF-8 at byte {start}"))?;
                    out.push_str(s);
                    *pos = end;
                }
            }
        }
    }
    Err("unterminated string".to_owned())
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| "bad number".to_owned())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number '{text}' at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_places_separators_and_escapes() {
        let mut w = JsonWriter::with_capacity(0);
        w.obj(|w| {
            w.key("n").uint(u64::MAX);
            w.key("x").num(0.1 + 0.2);
            w.key("s").str("a \"q\"\\\n\u{1}");
            w.key("e").arr(|_| {});
            w.key("a").arr(|w| {
                w.bool(true);
                w.null();
                w.obj(|w| w.key("k").num(-2.5));
            });
        });
        let json = w.finish();
        assert_eq!(
            json,
            r#"{"n":18446744073709551615,"x":0.30000000000000004,"s":"a \"q\"\\\n\u0001","e":[],"a":[true,null,{"k":-2.5}]}"#
        );
        let doc = parse_json(&json).unwrap();
        assert_eq!(doc.string("s"), Ok("a \"q\"\\\n\u{1}"));
        assert_eq!(doc.num("x").map(f64::to_bits), Ok((0.1f64 + 0.2).to_bits()));
    }

    #[test]
    fn keyed_accessors_name_the_key_and_check_integers() {
        let doc = parse_json(
            r#"{"n":7,"neg":-5,"frac":1.5,"huge":1e300,"top":9007199254740992,"s":"x","a":[1,2]}"#,
        )
        .unwrap();
        assert_eq!(doc.uint("n"), Ok(7));
        assert_eq!(doc.uint("top"), Ok(1 << 53));
        for key in ["neg", "frac", "huge", "s"] {
            let err = doc.uint(key).unwrap_err();
            assert!(err.contains(&format!("key {key:?}")), "{err}");
        }
        assert_eq!(doc.num("frac"), Ok(1.5));
        assert_eq!(doc.string("s"), Ok("x"));
        assert!(doc.string("n").unwrap_err().contains("\"n\""));
        assert_eq!(doc.array_of("a", 2).map(<[Json]>::len), Ok(2));
        assert!(doc.array_of("a", 3).unwrap_err().contains("\"a\""));
        assert!(doc.member("missing").unwrap_err().contains("\"missing\""));
    }

    #[test]
    fn parser_handles_the_usual_shapes() {
        let doc =
            parse_json(r#" {"a": [1, -2.5, 1e3], "b": {"nested": true}, "c": null, "d": "x"} "#)
                .unwrap();
        assert_eq!(doc.get("a").and_then(Json::as_arr).unwrap().len(), 3);
        assert_eq!(
            doc.get("a").unwrap().as_arr().unwrap()[2],
            Json::Num(1000.0)
        );
        assert_eq!(
            doc.get("b").and_then(|b| b.get("nested")),
            Some(&Json::Bool(true))
        );
        assert_eq!(doc.get("c"), Some(&Json::Null));
        assert_eq!(doc.get("d").and_then(Json::as_str), Some("x"));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_json("{\"a\": }").is_err());
        assert!(parse_json("[1, 2").is_err());
        assert!(parse_json("{} extra").is_err());
        assert!(parse_json("").is_err());
        // Nesting past the depth limit is an error, not a stack overflow.
        assert!(parse_json(&"[".repeat(100_000)).is_err());
        assert!(parse_json(&"{\"a\":".repeat(100_000)).is_err());
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse_json(&at_limit).is_ok());
        let past = format!("[{at_limit}]");
        assert!(parse_json(&past).is_err());
    }
}
