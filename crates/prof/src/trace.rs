//! Timeline export in the Chrome `trace_event` JSON format.
//!
//! The `TraceRecorder` stores duration slices (`"B"`/`"E"`) and
//! instants (`"i"`) per thread; `TraceRecorder::to_json` renders the
//! stable subset of the format that `chrome://tracing` and Perfetto
//! accept: one named track per simulated thread, timestamps in
//! microseconds. The simulator's unit of time is the cycle, so the
//! export uses **1 trace µs = 1 simulated cycle** — absolute numbers
//! read as cycles, and the relative widths (barrier waits, daemon
//! episodes, kernel phases) are what the view is for.
//!
//! The export is written with [`crate::json::JsonWriter`] and reads
//! back with [`crate::json::parse_json`], so the round-trip property
//! test (emit → parse → check nesting) needs nothing outside the tree.

use crate::json::JsonWriter;

/// Event kind, mirroring the `ph` field of the trace format.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TracePhase {
    /// Duration begin (`"B"`).
    Begin,
    /// Duration end (`"E"`).
    End,
    /// Thread-scoped instant (`"i"`).
    Instant,
}

/// One recorded timeline event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct TraceEvent {
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
pub(crate) struct TraceRecorder {
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
    #[cfg(test)]
    pub(crate) fn events(&self) -> &[TraceEvent] {
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
        let mut w = JsonWriter::with_capacity(64 + self.events.len() * 64);
        w.obj(|w| {
            w.key("displayTimeUnit").str("ms");
            w.key("traceEvents").arr(|w| {
                for (t, &core) in cores.iter().enumerate() {
                    w.obj(|w| {
                        w.key("ph").str("M");
                        w.key("pid").uint(0);
                        w.key("tid").uint(t as u64);
                        w.key("name").str("thread_name");
                        w.key("args").obj(|w| {
                            w.key("name").str(&format!("core {core} thread {t}"));
                        });
                    });
                }
                for e in &self.events {
                    w.obj(|w| {
                        let ph = match e.ph {
                            TracePhase::Begin => "B",
                            TracePhase::End => "E",
                            TracePhase::Instant => "i",
                        };
                        w.key("ph").str(ph);
                        if e.ph == TracePhase::Instant {
                            w.key("s").str("t");
                        }
                        w.key("pid").uint(0);
                        w.key("tid").uint(e.tid as u64);
                        w.key("ts").uint(e.ts);
                        w.key("name").str(&e.name);
                    });
                }
            });
        });
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse_json, Json};

    #[test]
    fn renders_metadata_slices_and_instants() {
        let mut tr = TraceRecorder::new();
        tr.begin("cg:matvec", 0, 10);
        tr.instant("tlb-shootdown", 0, 15);
        tr.end("cg:matvec", 0, 20);
        let json = tr.to_json(&[2]);
        assert_eq!(
            json,
            concat!(
                r#"{"displayTimeUnit":"ms","traceEvents":["#,
                r#"{"ph":"M","pid":0,"tid":0,"name":"thread_name","args":{"name":"core 2 thread 0"}},"#,
                r#"{"ph":"B","pid":0,"tid":0,"ts":10,"name":"cg:matvec"},"#,
                r#"{"ph":"i","s":"t","pid":0,"tid":0,"ts":15,"name":"tlb-shootdown"},"#,
                r#"{"ph":"E","pid":0,"tid":0,"ts":20,"name":"cg:matvec"}]}"#,
            )
        );
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
