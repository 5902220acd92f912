//! Host-time probes around the benchmark's calls into the simulator.
//!
//! Every public call the benchmark makes is bracketed by [`Probe::begin`]
//! / [`Probe::end`]. The probe always returns the call's host seconds (the
//! untraced passes need them for their metrics); when tracing is on it
//! also keeps a span — name, cell id, parent, start, duration and
//! optional counter arguments — in memory, written out at the end as
//! Chrome `trace_event` JSON.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished (or open) span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// The cell the span belongs to (spans of one cell share it).
    pub cell: usize,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub dur_us: f64,
    /// Counter deltas attached at a `Kernel::run` boundary.
    pub args: Vec<(&'static str, u64)>,
}

/// An open interval returned by [`Probe::begin`].
#[must_use]
pub struct Mark {
    start: Instant,
    span: Option<usize>,
}

/// Times calls; records spans when tracing.
pub struct Probe {
    tracing: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Probe {
    pub fn new(tracing: bool) -> Probe {
        Probe {
            tracing,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn tracing(&self) -> bool {
        self.tracing
    }

    pub fn begin(&mut self, name: &'static str, cell: usize) -> Mark {
        let start = Instant::now();
        let span = self.tracing.then(|| {
            self.spans.push(Span {
                name,
                cell,
                parent: self.open.last().copied(),
                start_us: (start - self.origin).as_secs_f64() * 1e6,
                dur_us: 0.0,
                args: Vec::new(),
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Mark { start, span }
    }

    /// Close `m`, returning its host seconds.
    pub fn end(&mut self, m: Mark) -> f64 {
        let secs = m.start.elapsed().as_secs_f64();
        if let Some(i) = m.span {
            let popped = self.open.pop();
            debug_assert_eq!(popped, Some(i), "spans close in LIFO order");
            self.spans[i].dur_us = secs * 1e6;
        }
        secs
    }

    /// Attach `args` to the most recently opened span (after it closed, so
    /// collecting them is not timed).
    pub fn attach_last(&mut self, args: Vec<(&'static str, u64)>) {
        if let Some(s) = self.spans.last_mut() {
            s.args = args;
        }
    }

    /// Abandon every span still open (a cell panicked inside it): close
    /// them at the current time so the trace stays well formed.
    pub fn unwind(&mut self) {
        let now = (Instant::now() - self.origin).as_secs_f64() * 1e6;
        while let Some(i) = self.open.pop() {
            self.spans[i].dur_us = now - self.spans[i].start_us;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, in seconds: each span's duration minus
    /// the part its direct children cover.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.dur_us;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_us) {
            *out.entry(s.name).or_insert(0.0) += (s.dur_us - c).max(0.0) * 1e-6;
        }
        out
    }

    /// Chrome `trace_event` JSON of every span: one complete (`"X"`)
    /// event each, on one host thread, with the cell id and any counter
    /// deltas as arguments. `meta` lands in the top-level `otherData`.
    pub fn to_chrome_json(&self, cell_names: &[String], meta: &[(&str, String)]) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let cell = cell_names.get(s.cell).map_or("", String::as_str);
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"host\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"cell\":\"{}\"",
                s.name,
                s.start_us,
                s.dur_us,
                escape(cell)
            );
            for (k, v) in &s.args {
                let _ = write!(out, ",\"{k}\":{v}");
            }
            out.push_str("}}");
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\",\"otherData\":{");
        for (i, (k, v)) in meta.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":\"{}\"", escape(k), escape(v));
        }
        out.push_str("}}\n");
        out
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut p = Probe::new(true);
        let outer = p.begin("cell", 0);
        let inner = p.begin("run", 0);
        std::thread::sleep(std::time::Duration::from_millis(5));
        p.end(inner);
        p.end(outer);
        let st = p.self_seconds();
        assert!(st["run"] >= 0.004);
        assert!(st["cell"] < st["run"]);
        let json = p.to_chrome_json(&["c0".to_owned()], &[("seed", "1".to_owned())]);
        assert!(lpomp_prof::parse_json(&json).is_ok(), "{json}");
    }

    #[test]
    fn untraced_probe_keeps_no_spans() {
        let mut p = Probe::new(false);
        let m = p.begin("run", 0);
        assert!(p.end(m) >= 0.0);
        assert!(p.spans().is_empty());
    }
}
