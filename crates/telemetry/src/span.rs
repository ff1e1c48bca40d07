//! Lightweight structured spans.
//!
//! A span is a named interval with a parent link, `key=value` fields and
//! point events; timestamps come from the tracer's [`Clock`](crate::Clock),
//! so the same call sites produce virtual-time spans under the simulator and
//! wall-time spans in real runs. Parents are passed explicitly (no thread-local
//! ambient span): the discrete-event harnesses interleave dozens of
//! transactions on one thread, so ambient nesting would attribute children
//! to whichever transaction's event happened to run last.
//!
//! Span ids are sequential, which — together with a deterministic clock —
//! makes a trace from a seeded simulation replay byte-for-byte.

use crate::clock::{SharedClock, VirtualClock};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Identifies an open or finished span within one [`Tracer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

/// A point event attached to a span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    pub at_us: u64,
    pub name: String,
    pub fields: Vec<(String, String)>,
}

/// A finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    pub id: u64,
    /// Parent span id; 0 for roots.
    pub parent: u64,
    pub name: String,
    pub start_us: u64,
    pub end_us: u64,
    /// Fields in insertion order.
    pub fields: Vec<(String, String)>,
    pub events: Vec<SpanEvent>,
}

impl SpanRecord {
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }

    /// Value of field `key`, if set.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

struct OpenSpan {
    parent: u64,
    name: String,
    start_us: u64,
    fields: Vec<(String, String)>,
    events: Vec<SpanEvent>,
}

#[derive(Default)]
struct TracerInner {
    next_id: u64,
    open: HashMap<u64, OpenSpan>,
    finished: Vec<SpanRecord>,
}

/// The span collector. Clones share the same buffer and clock.
#[derive(Clone)]
pub struct Tracer {
    clock: SharedClock,
    inner: Arc<Mutex<TracerInner>>,
}

impl Tracer {
    /// A tracer reading from `clock`.
    pub fn new(clock: SharedClock) -> Self {
        Self {
            clock,
            inner: Arc::new(Mutex::new(TracerInner {
                next_id: 1,
                ..Default::default()
            })),
        }
    }

    /// A tracer on a fresh [`VirtualClock`]; returns the clock handle so the
    /// harness can advance it.
    pub fn with_virtual_clock() -> (Self, VirtualClock) {
        let clock = VirtualClock::new();
        (Self::new(Arc::new(clock.clone())), clock)
    }

    /// Current time on the tracer's clock.
    pub fn now_us(&self) -> u64 {
        self.clock.now_us()
    }

    /// Begin a root span.
    pub fn begin(&self, name: &str) -> SpanId {
        self.begin_at(0, name)
    }

    /// Begin a child of `parent`.
    pub fn begin_child(&self, parent: SpanId, name: &str) -> SpanId {
        self.begin_at(parent.0, name)
    }

    fn begin_at(&self, parent: u64, name: &str) -> SpanId {
        let now = self.clock.now_us();
        let mut inner = self.inner.lock().expect("tracer lock");
        let id = inner.next_id;
        inner.next_id += 1;
        inner.open.insert(
            id,
            OpenSpan {
                parent,
                name: name.to_string(),
                start_us: now,
                fields: Vec::new(),
                events: Vec::new(),
            },
        );
        SpanId(id)
    }

    /// Attach `key=value` to an open span (no-op on finished/unknown ids).
    pub fn field(&self, span: SpanId, key: &str, value: impl fmt::Display) {
        let mut inner = self.inner.lock().expect("tracer lock");
        if let Some(s) = inner.open.get_mut(&span.0) {
            s.fields.push((key.to_string(), value.to_string()));
        }
    }

    /// Record a point event on an open span.
    pub fn event(&self, span: SpanId, name: &str, fields: &[(&str, &str)]) {
        let now = self.clock.now_us();
        let mut inner = self.inner.lock().expect("tracer lock");
        if let Some(s) = inner.open.get_mut(&span.0) {
            s.events.push(SpanEvent {
                at_us: now,
                name: name.to_string(),
                fields: fields
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect(),
            });
        }
    }

    /// Record an instantaneous root span (`start == end`) — a trace-level
    /// event with no enclosing span, e.g. a crash injection.
    pub fn instant(&self, name: &str, fields: &[(&str, &str)]) {
        let now = self.clock.now_us();
        let mut inner = self.inner.lock().expect("tracer lock");
        let id = inner.next_id;
        inner.next_id += 1;
        inner.finished.push(SpanRecord {
            id,
            parent: 0,
            name: name.to_string(),
            start_us: now,
            end_us: now,
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            events: Vec::new(),
        });
    }

    /// End an open span, moving it to the finished buffer. Unknown or
    /// already-ended ids are ignored (ending is idempotent).
    pub fn end(&self, span: SpanId) {
        let now = self.clock.now_us();
        let mut inner = self.inner.lock().expect("tracer lock");
        if let Some(s) = inner.open.remove(&span.0) {
            let rec = SpanRecord {
                id: span.0,
                parent: s.parent,
                name: s.name,
                start_us: s.start_us,
                end_us: now,
                fields: s.fields,
                events: s.events,
            };
            inner.finished.push(rec);
        }
    }

    /// Number of spans still open.
    pub fn open_count(&self) -> usize {
        self.inner.lock().expect("tracer lock").open.len()
    }

    /// Finished spans, sorted by `(start_us, id)` for a stable export order
    /// (the finish order depends on nesting; the start order is the trace).
    pub fn finished(&self) -> Vec<SpanRecord> {
        let inner = self.inner.lock().expect("tracer lock");
        let mut spans = inner.finished.clone();
        spans.sort_by_key(|s| (s.start_us, s.id));
        spans
    }
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock().expect("tracer lock");
        write!(
            f,
            "Tracer({} finished, {} open)",
            inner.finished.len(),
            inner.open.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parent_child_nesting_is_recorded() {
        let (tr, clock) = Tracer::with_virtual_clock();
        let root = tr.begin("txn");
        tr.field(root, "path", "distributed");
        clock.set(10);
        let child = tr.begin_child(root, "leg.prepare");
        clock.set(25);
        tr.end(child);
        clock.set(40);
        tr.end(root);

        let spans = tr.finished();
        assert_eq!(spans.len(), 2);
        let root_rec = spans.iter().find(|s| s.name == "txn").unwrap();
        let child_rec = spans.iter().find(|s| s.name == "leg.prepare").unwrap();
        assert_eq!(root_rec.parent, 0);
        assert_eq!(child_rec.parent, root_rec.id);
        assert_eq!((child_rec.start_us, child_rec.end_us), (10, 25));
        assert_eq!(root_rec.duration_us(), 40);
        assert_eq!(root_rec.field("path"), Some("distributed"));
    }

    #[test]
    fn events_carry_timestamps_and_fields() {
        let (tr, clock) = Tracer::with_virtual_clock();
        let s = tr.begin("transfer");
        clock.set(7);
        tr.event(s, "retry", &[("attempt", "1")]);
        clock.set(9);
        tr.end(s);
        let rec = &tr.finished()[0];
        assert_eq!(rec.events.len(), 1);
        assert_eq!(rec.events[0].at_us, 7);
        assert_eq!(rec.events[0].fields[0], ("attempt".into(), "1".into()));
    }

    #[test]
    fn end_is_idempotent_and_unknown_ids_are_ignored() {
        let (tr, _clock) = Tracer::with_virtual_clock();
        let s = tr.begin("x");
        tr.end(s);
        tr.end(s);
        tr.end(SpanId(999));
        tr.field(s, "late", "ignored");
        assert_eq!(tr.finished().len(), 1);
        assert_eq!(tr.open_count(), 0);
        assert!(tr.finished()[0].fields.is_empty());
    }

    #[test]
    fn finished_spans_sort_by_start_time() {
        let (tr, clock) = Tracer::with_virtual_clock();
        clock.set(100);
        let late = tr.begin("late");
        clock.set(100);
        tr.instant("crash", &[("target", "dn0")]);
        clock.set(200);
        tr.end(late);
        let spans = tr.finished();
        // Same start: lower id (begun first) sorts first.
        assert_eq!(spans[0].name, "late");
        assert_eq!(spans[1].name, "crash");
        assert_eq!(spans[1].start_us, spans[1].end_us);
    }
}
