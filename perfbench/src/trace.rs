//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded around the benchmark's calls into each crate's
//! public functions: name, start, end, parent span, and the id of the
//! job or sweep they belong to. Nothing is written while the workload
//! runs; [`Tracer::write_jsonl`] dumps the spans at the end, and
//! [`Tracer::fold`] turns them into a per-layer self-time table (a
//! span's duration minus the part its child spans cover).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id (unique within the tracer, starting at 1).
    pub id: u64,
    /// Layer name, e.g. `core.transform`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// The enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// The job or sweep this span belongs to.
    pub unit: u64,
}

/// Per-layer totals folded from the spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Spans of this name.
    pub calls: u64,
    /// Summed self times (duration minus child coverage).
    pub self_ns: u64,
}

impl LayerTotals {
    /// Mean self time per call in milliseconds (0 without calls).
    pub fn self_ms_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64 / 1e6
        }
    }
}

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Runs `f` inside a span named `name` belonging to `unit`.
    pub fn span<T>(&self, name: &'static str, unit: u64, f: impl FnOnce() -> T) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied();
            s.push(id);
            parent
        });
        let start = self.epoch.elapsed();
        let value = f();
        let end = self.epoch.elapsed();
        STACK.with(|s| s.borrow_mut().pop());
        self.spans.lock().expect("span buffer").push(Span {
            id,
            name,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
            parent,
            unit,
        });
        value
    }

    /// Every recorded span, in close order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer").clone()
    }

    /// The per-layer self-time table.
    pub fn fold(&self) -> BTreeMap<&'static str, LayerTotals> {
        fold(&self.spans())
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id": {}, "name": "{}", "start_ns": {}, "end_ns": {}, "parent": {}, "unit": {}}}"#,
                s.id, s.name, s.start_ns, s.end_ns, parent, s.unit
            )?;
        }
        out.flush()
    }
}

/// Folds spans into per-name totals. Children of one span run
/// sequentially on its thread, so their summed durations are exactly the
/// covered part of the parent.
pub fn fold(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            *child_ns.entry(parent).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut table: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for s in spans {
        let duration = s.end_ns - s.start_ns;
        let entry = table.entry(s.name).or_default();
        entry.calls += 1;
        entry.self_ns += duration.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, name: &'static str, start: u64, end: u64, parent: Option<u64>) -> Span {
        Span {
            id,
            name,
            start_ns: start,
            end_ns: end,
            parent,
            unit: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(2, "core.transform", 10, 40, Some(1)),
            span(3, "api.derived", 40, 50, Some(1)),
            span(1, "api.het", 0, 100, None),
        ];
        let table = fold(&spans);
        assert_eq!(table["api.het"].self_ns, 60);
        assert_eq!(table["core.transform"].self_ns, 30);
    }

    #[test]
    fn recorded_spans_nest_on_one_thread() {
        let tracer = Tracer::default();
        tracer.span("job", 7, || tracer.span("gen.generate", 7, || ()));
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert_eq!(tracer.fold()["job"].calls, 1);
    }
}
