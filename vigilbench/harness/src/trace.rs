//! In-memory span recording for the traced runs.
//!
//! A span is one timed call into a layer's public function: its name,
//! start and end (nanoseconds since the run began), the span that caused
//! it, and the window or cell it belongs to. Where a loop calls a layer
//! once per flow or per event, one aggregate span covers the loop and
//! its `busy_ns` is the time inside that layer's calls. Spans stay in
//! memory and are written out once, when the run ends, so recording
//! costs two clock reads and a `Vec` push.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = u32;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    cell: u64,
    busy_ns: Option<u64>,
}

/// Span sink for one run. A disabled tracer records nothing.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span that is closed later with [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, cell: u64) -> SpanId {
        let id = self.spans.len() as SpanId;
        if self.enabled {
            let start_ns = self.ns(Instant::now());
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                cell,
                busy_ns: None,
            });
        }
        id
    }

    /// Closes a span opened with [`begin`](Self::begin).
    pub fn end(&mut self, id: SpanId) {
        if self.enabled {
            let end_ns = self.ns(Instant::now());
            self.spans[id as usize].end_ns = end_ns;
        }
    }

    /// Records a span whose interval was timed by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        cell: u64,
    ) {
        self.push(name, start, end, parent, cell, None);
    }

    /// Records an aggregate span: the interval of a loop, and the time
    /// `busy_ns` spent inside the named layer's calls within it.
    pub fn record_busy(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        cell: u64,
        busy_ns: u64,
    ) {
        self.push(name, start, end, parent, cell, Some(busy_ns));
    }

    fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        cell: u64,
        busy_ns: Option<u64>,
    ) {
        if self.enabled {
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                cell,
                busy_ns,
            });
        }
    }

    /// Runs `f` inside a span and returns its result.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        cell: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), parent, cell);
        out
    }

    /// Distinct span names recorded so far, in first-seen order.
    pub fn names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = Vec::new();
        for s in &self.spans {
            if !names.contains(&s.name) {
                names.push(s.name);
            }
        }
        names
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let busy = s.busy_ns.map_or("null".to_string(), |b| b.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"cell\":{},\"busy_ns\":{busy}}}",
                s.name, s.start_ns, s.end_ns, s.cell
            )?;
        }
        out.flush()
    }
}
