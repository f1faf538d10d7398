//! In-memory spans recorded around calls into each layer.
//!
//! A span has a name, a start, an end, a parent span and a request id.
//! With tracing off nothing is recorded, so the untraced runs that give
//! the end-to-end metrics pay only for an `Instant::now()` pair. Spans
//! are written out as JSON lines when the run ends.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One finished span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    /// 0 for a root span.
    pub parent: u64,
    /// Groups the spans of one operation (a pipeline round, a request).
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Span recorder shared by every thread of a run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    /// Counts taken at span boundaries (registry deltas, work done).
    notes: Mutex<Vec<(&'static str, f64)>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            notes: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A fresh id for a request or span.
    pub fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Run `f` inside a span named `name`. `f` receives the span's id so
    /// nested calls can name it as their parent. Returns `f`'s result and
    /// the wall time it took, recorded or not.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce(u64) -> T,
    ) -> (T, Duration) {
        let id = if self.enabled { self.fresh_id() } else { 0 };
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        if self.enabled {
            let span = Span {
                id,
                name,
                parent,
                request,
                start_ns: (start - self.origin).as_nanos() as u64,
                end_ns: (end - self.origin).as_nanos() as u64,
            };
            self.spans.lock().expect("span buffer poisoned").push(span);
        }
        (out, end - start)
    }

    /// Record a count measured at a span boundary (kept only when
    /// tracing).
    pub fn note(&self, name: &'static str, value: f64) {
        if self.enabled {
            self.notes
                .lock()
                .expect("note buffer poisoned")
                .push((name, value));
        }
    }

    /// Every value noted under `name`.
    pub fn notes_of(&self, name: &str) -> Vec<f64> {
        self.notes
            .lock()
            .expect("note buffer poisoned")
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .collect()
    }

    /// Every recorded span, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }

    /// Durations (seconds) of every span named `name`.
    pub fn seconds_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span buffer poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Per request id, the summed duration of spans named `name` — e.g.
    /// the three record loads of one pipeline round.
    pub fn seconds_per_request(&self, name: &str) -> Vec<f64> {
        let mut sums: std::collections::BTreeMap<u64, f64> = Default::default();
        for s in self.spans().iter().filter(|s| s.name == name) {
            *sums.entry(s.request).or_default() += s.seconds();
        }
        sums.into_values().collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"parent\":{},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.parent, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing_but_still_times() {
        let t = Tracer::new(false);
        let (v, d) = t.span("x", 0, 0, |_| 7);
        assert_eq!(v, 7);
        assert!(d >= Duration::ZERO);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nested_spans_carry_parent_and_self_time() {
        let t = Tracer::new(true);
        let req = t.fresh_id();
        t.span("outer", 0, req, |outer| {
            t.span("inner", outer, req, |_| {
                std::thread::sleep(Duration::from_millis(5))
            });
        });
        let spans = t.spans();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.request, req);
        assert!(inner.seconds() <= outer.seconds());
        assert_eq!(t.seconds_per_request("inner").len(), 1);
    }
}
