//! In-memory spans: name, start, end, parent span and request id. Spans
//! are recorded around calls into the layer crates and written out at the
//! end of the run.

use gopher_json::Json;
use gopher_par::lock_recover;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its tracer.
pub type SpanId = usize;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `patterns.sweep`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start: u64,
    /// End, ns since the tracer's origin (`0` while open).
    pub end: u64,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// The traced request this span belongs to.
    pub request: u32,
}

impl Span {
    /// Duration in ms.
    pub fn ms(&self) -> f64 {
        self.end.saturating_sub(self.start) as f64 / 1e6
    }
}

/// Collects spans from any thread.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

/// Per-name totals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Number of spans.
    pub count: u64,
    /// Sum of durations, ms.
    pub ms: f64,
    /// Sum of self times (duration minus the time child spans cover), ms.
    pub self_ms: f64,
}

impl Tracer {
    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Self::close`].
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, request: u32) -> SpanId {
        let start = self.now();
        let mut spans = lock_recover(&self.spans);
        spans.push(Span {
            name,
            start,
            end: 0,
            parent,
            request,
        });
        spans.len() - 1
    }

    /// Closes a span opened with [`Self::open`].
    pub fn close(&self, id: SpanId) {
        let end = self.now();
        lock_recover(&self.spans)[id].end = end;
    }

    /// Records a finished span.
    pub fn record(
        &self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<SpanId>,
        request: u32,
    ) {
        lock_recover(&self.spans).push(Span {
            name,
            start,
            end,
            parent,
            request,
        });
    }

    /// Runs `f` inside a span; `f` gets the span's id for its children.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u32,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let value = f(id);
        self.close(id);
        value
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        lock_recover(&self.spans).clone()
    }

    /// Duration of span `id`, ms.
    pub fn ms(&self, id: SpanId) -> f64 {
        lock_recover(&self.spans)[id].ms()
    }

    /// Sum of the durations of `id`'s direct children, ms.
    pub fn children_ms(&self, id: SpanId) -> f64 {
        lock_recover(&self.spans)
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::ms)
            .sum()
    }
}

/// Per-name count, total and self time over `spans`.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut child_ms = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ms[p] += s.ms();
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ms) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.ms += s.ms();
        t.self_ms += (s.ms() - children).max(0.0);
    }
    out
}

/// Writes `spans` as JSON lines.
pub fn write(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    let mut text = String::new();
    for (id, s) in spans.iter().enumerate() {
        let line = Json::obj([
            ("id", Json::num(id as f64)),
            ("name", Json::str(s.name)),
            ("start_ns", Json::num(s.start as f64)),
            ("end_ns", Json::num(s.end as f64)),
            (
                "parent",
                s.parent.map_or(Json::Null, |p| Json::num(p as f64)),
            ),
            ("request", Json::num(f64::from(s.request))),
        ]);
        text.push_str(&line.to_string());
        text.push('\n');
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "a",
                start: 0,
                end: 10_000_000,
                parent: None,
                request: 0,
            },
            Span {
                name: "b",
                start: 1_000_000,
                end: 4_000_000,
                parent: Some(0),
                request: 0,
            },
            Span {
                name: "b",
                start: 5_000_000,
                end: 6_000_000,
                parent: Some(0),
                request: 0,
            },
        ];
        let t = totals(&spans);
        assert_eq!(t["a"].count, 1);
        assert!((t["a"].ms - 10.0).abs() < 1e-9);
        assert!((t["a"].self_ms - 6.0).abs() < 1e-9);
        assert_eq!(t["b"].count, 2);
        assert!((t["b"].self_ms - 4.0).abs() < 1e-9);
    }

    #[test]
    fn spans_nest_through_the_tracer() {
        let tracer = Tracer::default();
        let inner = tracer.span("outer", None, 7, |outer| {
            tracer.span("inner", Some(outer), 7, |id| id)
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[inner].parent, Some(0));
        assert!(spans[0].end >= spans[inner].end);
        assert!(spans.iter().all(|s| s.request == 7));
    }
}
