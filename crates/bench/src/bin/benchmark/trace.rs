//! Bench-side spans: recorded around the benchmark's own calls into each
//! layer, kept in memory, written out when the run ends. With tracing off
//! every call is a branch on a bool.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Unique id (1-based).
    pub id: u64,
    /// Id of the enclosing span on the same thread, 0 at the root.
    pub parent: u64,
    /// Request id the span belongs to, 0 for spans outside a request.
    pub request: u64,
    /// Layer boundary name, `layer/operation`.
    pub name: String,
    /// Start, ns after the tracer's origin.
    pub start_ns: u64,
    /// End, ns after the tracer's origin.
    pub end_ns: u64,
}

/// Span recorder for one run.
pub struct Tracer {
    on: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

thread_local! {
    /// Open spans on this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

impl Tracer {
    /// A recorder that is on or off for the whole run.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span closed when the guard drops; spans opened meanwhile on
    /// this thread become its children.
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        if !self.on {
            return SpanGuard(None);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied().unwrap_or(0);
            s.push(id);
            parent
        });
        SpanGuard(Some(Open {
            tracer: self,
            id,
            parent,
            name: name.to_string(),
            start: Instant::now(),
        }))
    }

    /// Records an already-measured leaf span under the current span.
    pub fn record(&self, name: &str, request: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let parent = OPEN.with(|s| s.borrow().last().copied().unwrap_or(0));
        self.push(SpanRec {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            request,
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
    }

    fn push(&self, rec: SpanRec) {
        if let Ok(mut spans) = self.spans.lock() {
            spans.push(rec);
        }
    }

    /// Every recorded span, in completion order.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.lock().map(|s| s.clone()).unwrap_or_default()
    }
}

struct Open<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: u64,
    name: String,
    start: Instant,
}

/// Guard of an open span.
#[must_use = "a span measures the region it is alive for"]
pub struct SpanGuard<'a>(Option<Open<'a>>);

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(open) = self.0.take() {
            OPEN.with(|s| {
                let mut s = s.borrow_mut();
                if let Some(at) = s.iter().rposition(|&id| id == open.id) {
                    s.remove(at);
                }
            });
            let end = Instant::now();
            open.tracer.push(SpanRec {
                id: open.id,
                parent: open.parent,
                request: 0,
                name: open.name,
                start_ns: open.tracer.ns(open.start),
                end_ns: open.tracer.ns(end),
            });
        }
    }
}

/// Per span name: `(count, total ns, self ns)`, where self time is the
/// span's duration minus the part its direct children cover.
pub fn self_times(spans: &[SpanRec]) -> BTreeMap<String, (u64, u64, u64)> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns.saturating_sub(s.start_ns);
    }
    let mut out: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let total = s.end_ns.saturating_sub(s.start_ns);
        let own = total.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let e = out.entry(s.name.clone()).or_default();
        e.0 += 1;
        e.1 += total;
        e.2 += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_to_parents_and_split_self_time() {
        let t = Tracer::new(true);
        {
            let _outer = t.span("outer");
            {
                let _inner = t.span("inner");
            }
            let now = Instant::now();
            t.record("leaf", 7, now, now);
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        let outer = spans.iter().find(|s| s.name == "outer").expect("outer");
        let inner = spans.iter().find(|s| s.name == "inner").expect("inner");
        let leaf = spans.iter().find(|s| s.name == "leaf").expect("leaf");
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(leaf.parent, outer.id);
        assert_eq!(leaf.request, 7);
        let times = self_times(&spans);
        let (n, total, own) = times["outer"];
        assert_eq!(n, 1);
        assert_eq!(own, total - (inner.end_ns - inner.start_ns));
    }

    #[test]
    fn self_time_subtracts_children_from_fixture_spans() {
        let rec = |id, parent, name: &str, start_ns, end_ns| SpanRec {
            id,
            parent,
            request: 0,
            name: name.into(),
            start_ns,
            end_ns,
        };
        let spans = vec![
            rec(2, 1, "admit/lint", 10, 30),
            rec(3, 1, "admit/safety", 30, 90),
            rec(1, 0, "admit", 0, 100),
        ];
        let times = self_times(&spans);
        assert_eq!(times["admit"], (1, 100, 20));
        assert_eq!(times["admit/safety"], (1, 60, 60));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        {
            let _s = t.span("x");
        }
        t.record("y", 1, Instant::now(), Instant::now());
        assert!(t.spans().is_empty());
    }
}
