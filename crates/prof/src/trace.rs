//! Timeline export in the Chrome `trace_event` JSON format.
//!
//! The [`TraceRecorder`] stores duration slices (`"B"`/`"E"`) and
//! instants (`"i"`) per thread; [`TraceRecorder::to_json`] renders the
//! stable subset of the format that `chrome://tracing` and Perfetto
//! accept: one named track per simulated thread, timestamps in
//! microseconds. The simulator's unit of time is the cycle, so the
//! export uses **1 trace µs = 1 simulated cycle** — absolute numbers
//! read as cycles, and the relative widths (barrier waits, daemon
//! episodes, kernel phases) are what the view is for.
//!
//! The module also carries [`parse_json`], a minimal dependency-free
//! JSON reader, so the round-trip property test (emit → parse → check
//! nesting) needs nothing outside the tree.

/// Event kind, mirroring the `ph` field of the trace format.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TracePhase {
    /// Duration begin (`"B"`).
    Begin,
    /// Duration end (`"E"`).
    End,
    /// Thread-scoped instant (`"i"`).
    Instant,
}

/// One recorded timeline event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Slice or instant name.
    pub name: String,
    /// Begin / end / instant.
    pub ph: TracePhase,
    /// Simulated thread the event belongs to (one track each).
    pub tid: usize,
    /// Timestamp: the thread's cycle clock when the event happened.
    pub ts: u64,
}

/// An append-only timeline. The engine records; [`Self::to_json`]
/// renders.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceRecorder {
    events: Vec<TraceEvent>,
}

impl TraceRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        TraceRecorder::default()
    }

    /// Open a duration slice on `thread`'s track.
    pub fn begin(&mut self, name: &str, thread: usize, ts: u64) {
        self.push(name, TracePhase::Begin, thread, ts);
    }

    /// Close the innermost slice of this name on `thread`'s track.
    pub fn end(&mut self, name: &str, thread: usize, ts: u64) {
        self.push(name, TracePhase::End, thread, ts);
    }

    /// Record a thread-scoped instant (a vertical tick in the viewer).
    pub fn instant(&mut self, name: &str, thread: usize, ts: u64) {
        self.push(name, TracePhase::Instant, thread, ts);
    }

    fn push(&mut self, name: &str, ph: TracePhase, tid: usize, ts: u64) {
        self.events.push(TraceEvent {
            name: name.to_owned(),
            ph,
            tid,
            ts,
        });
    }

    /// The recorded events, in record order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Drop every recorded event (keeps the allocation).
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Render as a Chrome `trace_event` JSON object. `cores[t]` names
    /// thread `t`'s track (`"core C thread T"`) via `thread_name`
    /// metadata; all events share `pid` 0.
    pub fn to_json(&self, cores: &[usize]) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 64);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        for (t, &core) in cores.iter().enumerate() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"ph\":\"M\",\"pid\":0,\"tid\":{t},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"core {core} thread {t}\"}}}}"
            ));
        }
        for e in &self.events {
            if !first {
                out.push(',');
            }
            first = false;
            let name = escape_json(&e.name);
            match e.ph {
                TracePhase::Begin | TracePhase::End => {
                    let ph = if e.ph == TracePhase::Begin { 'B' } else { 'E' };
                    out.push_str(&format!(
                        "{{\"ph\":\"{ph}\",\"pid\":0,\"tid\":{},\"ts\":{},\"name\":\"{name}\"}}",
                        e.tid, e.ts
                    ));
                }
                TracePhase::Instant => {
                    out.push_str(&format!(
                        "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":{},\"ts\":{},\
                         \"name\":\"{name}\"}}",
                        e.tid, e.ts
                    ));
                }
            }
        }
        out.push_str("]}");
        out
    }
}

/// Escape `s` for use inside a JSON string literal: quotes and
/// backslashes are backslash-escaped and every control character is
/// written as an escape, so the output always parses back to `s`.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// A parsed JSON value — the minimal model the round-trip test needs.
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
}

/// Parse a complete JSON document. Errors carry a byte offset and a
/// short description; trailing non-whitespace is an error.
pub fn parse_json(src: &str) -> Result<Json, String> {
    let bytes = src.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
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

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_owned()),
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
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

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
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
        let val = parse_value(b, pos)?;
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

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
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
    fn renders_metadata_slices_and_instants() {
        let mut tr = TraceRecorder::new();
        tr.begin("cg:matvec", 0, 10);
        tr.instant("tlb-shootdown", 0, 15);
        tr.end("cg:matvec", 0, 20);
        let json = tr.to_json(&[2]);
        let doc = parse_json(&json).expect("own output parses");
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 4, "1 metadata + 3 recorded");
        assert_eq!(events[0].get("ph").and_then(Json::as_str), Some("M"));
        assert_eq!(
            events[0]
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(Json::as_str),
            Some("core 2 thread 0")
        );
        assert_eq!(events[1].get("ph").and_then(Json::as_str), Some("B"));
        assert_eq!(events[1].get("ts").and_then(Json::as_num), Some(10.0));
        assert_eq!(events[2].get("ph").and_then(Json::as_str), Some("i"));
        assert_eq!(events[2].get("s").and_then(Json::as_str), Some("t"));
        assert_eq!(events[3].get("ph").and_then(Json::as_str), Some("E"));
    }

    #[test]
    fn escaping_round_trips() {
        let mut tr = TraceRecorder::new();
        tr.instant("weird \"name\"\\with\nstuff", 0, 1);
        let json = tr.to_json(&[0]);
        let doc = parse_json(&json).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(
            events[1].get("name").and_then(Json::as_str),
            Some("weird \"name\"\\with\nstuff")
        );
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
    }

    #[test]
    fn clear_empties_the_timeline() {
        let mut tr = TraceRecorder::new();
        tr.begin("x", 0, 0);
        tr.clear();
        assert!(tr.events().is_empty());
        let doc = parse_json(&tr.to_json(&[0])).unwrap();
        assert_eq!(
            doc.get("traceEvents").and_then(Json::as_arr).unwrap().len(),
            1
        );
    }
}
