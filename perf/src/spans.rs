//! The benchmark's own spans.
//!
//! The benchmark records a span around every call it makes into a layer's
//! public functions: name, start, end, the span that caused it and the index
//! of the request it belongs to.  Spans stay in memory while the round runs
//! and are written out once, when the round ends, as Chrome trace events
//! (`chrome://tracing` and Perfetto load the file as it is).
//!
//! Phase spans (open, load, warm-up, ...) are always recorded — there are a
//! dozen of them and the set-up metrics are read from them.  Per-request
//! spans are recorded only by a traced round.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Marks "no parent" and "no request".
pub const NONE: u32 = u32::MAX;

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Shared, because a traced round records one span per request and the
    /// requests of a template all carry its name.
    pub name: Arc<str>,
    /// Nanoseconds since the round's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder, or [`NONE`].
    pub parent: u32,
    /// Index of the request in the measured list, or [`NONE`].
    pub request: u32,
    /// Recording thread (0 = main, clients from 1).
    pub thread: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store of one thread.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    thread: u32,
    /// Whether per-request spans are recorded (traced round).
    pub requests: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    pub fn new(epoch: Instant, thread: u32, requests: bool) -> Recorder {
        Recorder {
            epoch,
            thread,
            requests,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`, nested under whatever span is open.
    pub fn phase<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.begin(name, NONE);
        let out = f(self);
        self.end(id);
        out
    }

    /// Open a span; close it with [`Recorder::end`].
    pub fn begin(&mut self, name: &str, request: u32) -> u32 {
        let id = self.spans.len() as u32;
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name: Arc::from(name),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied().unwrap_or(NONE),
            request,
            thread: self.thread,
        });
        self.open.push(id);
        id
    }

    pub fn end(&mut self, id: u32) {
        let popped = self.open.pop();
        assert_eq!(popped, Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Record an already-timed request span (the hot loop times the request
    /// itself, so a traced round adds one push and no second clock read).
    pub fn request(&mut self, name: &Arc<str>, request: u32, start: Instant, end: Instant) {
        if !self.requests {
            return;
        }
        self.spans.push(Span {
            name: Arc::clone(name),
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.duration_since(self.epoch).as_nanos() as u64,
            parent: self.open.last().copied().unwrap_or(NONE),
            request,
            thread: self.thread,
        });
    }

    /// Append another thread's spans under the span currently open here.
    pub fn adopt(&mut self, other: Recorder) {
        let parent = self.open.last().copied().unwrap_or(NONE);
        let offset = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = if s.parent == NONE {
                parent
            } else {
                s.parent + offset
            };
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total milliseconds of every span named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| &*s.name == name)
            .fold(0.0, |total, s| total + s.duration_ns() as f64 / 1e6)
    }

    /// Chrome trace-event JSON: one complete (`"ph":"X"`) event per span,
    /// timestamps in microseconds, `args` carrying the span's own index, its
    /// parent's index and the request index.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 128);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id}",
                serde_json::to_string(&*s.name).expect("a string serializes"),
                s.thread,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
            );
            if s.parent != NONE {
                let _ = write!(out, ",\"parent\":{}", s.parent);
            }
            if s.request != NONE {
                let _ = write!(out, ",\"request\":{}", s.request);
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_nest_and_requests_hang_off_the_open_phase() {
        let epoch = Instant::now();
        let mut rec = Recorder::new(epoch, 0, true);
        rec.phase("outer", |rec| {
            rec.phase("inner", |_| ());
            let t = Instant::now();
            rec.request(&Arc::from("req"), 7, t, t);
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, NONE);
        assert_eq!(spans[1].parent, 0);
        assert_eq!((spans[2].parent, spans[2].request), (0, 7));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }

    #[test]
    fn untraced_recorders_drop_request_spans_but_keep_phases() {
        let epoch = Instant::now();
        let mut rec = Recorder::new(epoch, 0, false);
        rec.phase("setup", |rec| {
            rec.request(&Arc::from("req"), 0, epoch, epoch)
        });
        assert_eq!(rec.spans().len(), 1);
    }

    #[test]
    fn adopted_spans_keep_their_tree_under_the_open_span() {
        let epoch = Instant::now();
        let mut client = Recorder::new(epoch, 1, true);
        client.phase("client", |rec| {
            rec.request(&Arc::from("req"), 0, epoch, epoch)
        });
        let mut main = Recorder::new(epoch, 0, true);
        let id = main.begin("measured", NONE);
        main.adopt(client);
        main.end(id);
        let spans = main.spans();
        assert_eq!(spans[1].parent, 0, "client root hangs under measured");
        assert_eq!(spans[2].parent, 1, "request keeps its client parent");
    }

    #[test]
    fn trace_json_parses_and_carries_parent_and_request() {
        let epoch = Instant::now();
        let mut rec = Recorder::new(epoch, 0, true);
        rec.phase("a \"quoted\" name", |rec| {
            rec.request(&Arc::from("r"), 3, epoch, epoch)
        });
        let parsed: serde::Value = serde_json::from_str(&rec.chrome_trace_json()).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_seq().unwrap();
        assert_eq!(events.len(), 2);
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent"), Some(&serde::Value::I64(0)));
        assert_eq!(args.get("request"), Some(&serde::Value::I64(3)));
    }
}
