//! In-memory span recording for traced runs.
//!
//! A span is one call into a layer, timed from the benchmark's side of
//! the call: name, start, end, parent span and operation id. Spans stay
//! in memory while the run measures and are written out as JSONL once it
//! ends, so recording costs a clock read and a vector push per span.

use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    op: u64,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
}

/// The span store of one traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&self, name: &'static str, op: u64, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("a span recorder never panics");
        spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        spans.len() - 1
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&self, id: SpanId) {
        let end_ns = self.now_ns();
        self.spans.lock().expect("a span recorder never panics")[id].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, op, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Summed duration (ms) of every span named `name` in operation `op`.
    pub fn total_ms(&self, op: u64, name: &str) -> f64 {
        self.spans
            .lock()
            .expect("a span recorder never panics")
            .iter()
            .filter(|s| s.op == op && s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .sum()
    }

    /// Durations (ms) of every span named `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("a span recorder never panics")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("a span recorder never panics");
        let mut out = String::new();
        for (id, s) in spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}\n",
                s.name, s.op, s.start_ns, s.end_ns
            ));
        }
        std::fs::write(path, out)
    }
}
