//! Structured telemetry for the Cocktail pipeline.
//!
//! The pipeline stages (PPO mixing, robust distillation, evaluation,
//! certification) and the server report what they do through a single
//! narrow interface: a [`Telemetry`] sink receiving typed [`Event`]s.
//! Three sinks ship with the crate:
//!
//! - [`NullSink`] — the zero-cost default. `enabled()` is `false`, so hot
//!   paths skip event construction entirely.
//! - [`JsonlSink`] — an append-only event log (one JSON object per line,
//!   written and flushed atomically per event, so a crash never leaves a
//!   torn line in the middle of the file).
//! - [`InMemorySink`] — records events in memory for tests.
//!
//! # Determinism contract
//!
//! Event **payloads** (`kind`, `name`, `fields`) must be a pure function of
//! the run's seed and configuration — never of wall-clock time, worker
//! scheduling, or iteration order of a parallel loop. Wall-clock durations
//! live exclusively in the separate [`Event::duration_us`] field, which
//! deterministic comparisons strip with [`Event::without_duration`].
//! Instrumented code must therefore never record events from inside a
//! parallel worker closure: collect per-task data, then merge and emit in
//! index order after the join (see `cocktail_core::metrics`).

use serde::{Deserialize, Serialize};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What an [`Event`] is: a span boundary, a monotonic counter increment,
/// a histogram observation, or a point-in-run structured fact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// A timed region opens. The matching [`EventKind::SpanEnd`] carries the
    /// wall-clock duration.
    SpanStart,
    /// A timed region closes.
    SpanEnd,
    /// A monotonic counter increment; the delta rides in the `delta` field.
    Counter,
    /// A single numeric observation in a named distribution.
    Histogram,
    /// A structured fact that is neither timing nor aggregation.
    Point,
}

/// One typed field in an event payload.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer (indices, counts).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating-point observation. Non-finite values serialize as `null`
    /// so the JSONL output stays strict-JSON parseable.
    F64(f64),
    /// Free-form label (stage names, reasons).
    Str(String),
    /// Boolean flag.
    Bool(bool),
}

// Hand-written (rather than derived) so the `F64` payload degrades to
// `null` instead of a bare `NaN` literal, which strict JSON parsers
// reject. `null` deserializes back to `F64(NaN)`.
impl Serialize for FieldValue {
    fn to_value(&self) -> serde::Value {
        let (tag, payload) = match self {
            FieldValue::U64(n) => ("U64", n.to_value()),
            FieldValue::I64(n) => ("I64", n.to_value()),
            FieldValue::F64(x) if !x.is_finite() => ("F64", serde::Value::Null),
            FieldValue::F64(x) => ("F64", x.to_value()),
            FieldValue::Str(s) => ("Str", s.to_value()),
            FieldValue::Bool(b) => ("Bool", b.to_value()),
        };
        serde::Value::Map(vec![(tag.to_string(), payload)])
    }
}

impl Deserialize for FieldValue {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let fields = v
            .as_map()
            .ok_or_else(|| serde::DeError::custom("expected externally-tagged FieldValue"))?;
        let [(tag, payload)] = fields else {
            return Err(serde::DeError::custom("expected a single-variant map"));
        };
        match (tag.as_str(), payload) {
            ("U64", p) => Ok(FieldValue::U64(u64::from_value(p)?)),
            ("I64", p) => Ok(FieldValue::I64(i64::from_value(p)?)),
            ("F64", serde::Value::Null) => Ok(FieldValue::F64(f64::NAN)),
            ("F64", p) => Ok(FieldValue::F64(f64::from_value(p)?)),
            ("Str", p) => Ok(FieldValue::Str(String::from_value(p)?)),
            ("Bool", p) => Ok(FieldValue::Bool(bool::from_value(p)?)),
            (other, _) => Err(serde::DeError::custom(format!(
                "unknown FieldValue variant `{other}`"
            ))),
        }
    }
}

impl From<u64> for FieldValue {
    fn from(n: u64) -> Self {
        FieldValue::U64(n)
    }
}

impl From<usize> for FieldValue {
    fn from(n: usize) -> Self {
        FieldValue::U64(n as u64)
    }
}

impl From<i64> for FieldValue {
    fn from(n: i64) -> Self {
        FieldValue::I64(n)
    }
}

impl From<f64> for FieldValue {
    fn from(x: f64) -> Self {
        FieldValue::F64(x)
    }
}

impl From<&str> for FieldValue {
    fn from(s: &str) -> Self {
        FieldValue::Str(s.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(s: String) -> Self {
        FieldValue::Str(s)
    }
}

impl From<bool> for FieldValue {
    fn from(b: bool) -> Self {
        FieldValue::Bool(b)
    }
}

/// One telemetry record.
///
/// Everything except [`Event::duration_us`] is deterministic for a fixed
/// seed and configuration (see the crate-level determinism contract).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// What kind of record this is.
    pub kind: EventKind,
    /// Hierarchical name, slash-separated: `pipeline/ppo-mixing`.
    pub name: String,
    /// Counter increment; `Some` only for [`EventKind::Counter`].
    pub delta: Option<u64>,
    /// Structured payload, in emission order.
    pub fields: Vec<(String, FieldValue)>,
    /// Wall-clock duration in microseconds (`SpanEnd` only). Excluded from
    /// deterministic comparisons — strip with [`Event::without_duration`].
    pub duration_us: Option<u64>,
}

impl Event {
    /// A bare event of the given kind and name.
    #[must_use]
    pub fn new(kind: EventKind, name: &str) -> Self {
        Self {
            kind,
            name: name.to_string(),
            delta: None,
            fields: Vec::new(),
            duration_us: None,
        }
    }

    /// A counter increment.
    #[must_use]
    pub fn counter(name: &str, delta: u64) -> Self {
        let mut e = Self::new(EventKind::Counter, name);
        e.delta = Some(delta);
        e
    }

    /// A histogram observation.
    #[must_use]
    pub fn histogram(name: &str, value: f64) -> Self {
        Self::new(EventKind::Histogram, name).with("value", value)
    }

    /// A point event.
    #[must_use]
    pub fn point(name: &str) -> Self {
        Self::new(EventKind::Point, name)
    }

    /// Appends a payload field (builder-style).
    #[must_use]
    pub fn with(mut self, key: &str, value: impl Into<FieldValue>) -> Self {
        self.fields.push((key.to_string(), value.into()));
        self
    }

    /// The event with its wall-clock duration stripped, for deterministic
    /// stream comparisons.
    #[must_use]
    pub fn without_duration(mut self) -> Self {
        self.duration_us = None;
        self
    }

    /// The payload field with the given key, if present.
    #[must_use]
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// A telemetry sink.
///
/// Implementations must be cheap to call and must not panic: telemetry is
/// advisory, a sink failure must never take the pipeline down. The provided
/// counter/point helpers check [`Telemetry::enabled`] first, so a disabled
/// sink pays nothing beyond one virtual call.
pub trait Telemetry: Send + Sync {
    /// Whether events are worth constructing at all. The [`NullSink`]
    /// returns `false`; instrumented hot paths gate on this to skip
    /// payload-building entirely.
    fn enabled(&self) -> bool {
        true
    }

    /// Records one event.
    fn record(&self, event: Event);

    /// Increments the named monotonic counter.
    fn counter(&self, name: &str, delta: u64) {
        if self.enabled() && delta > 0 {
            self.record(Event::counter(name, delta));
        }
    }

    /// Records one histogram observation.
    fn observe(&self, name: &str, value: f64) {
        if self.enabled() {
            self.record(Event::histogram(name, value));
        }
    }
}

/// An RAII timing guard for a named region.
///
/// Emits [`EventKind::SpanStart`] on construction and [`EventKind::SpanEnd`]
/// (carrying the identifying fields plus the wall-clock duration) on drop.
/// When the sink is disabled the guard is inert and allocation-free.
#[must_use = "a span measures the region it is alive for"]
pub struct Span<'a> {
    tel: Option<&'a dyn Telemetry>,
    name: String,
    fields: Vec<(String, FieldValue)>,
    start: Instant,
}

impl<'a> Span<'a> {
    /// Opens a span on `tel`.
    pub fn enter(tel: &'a dyn Telemetry, name: &str) -> Self {
        Self::enter_with(tel, name, Vec::new())
    }

    /// Opens a span carrying identifying fields (e.g. an epoch index),
    /// repeated on both the start and end events.
    pub fn enter_with(
        tel: &'a dyn Telemetry,
        name: &str,
        fields: Vec<(String, FieldValue)>,
    ) -> Self {
        if !tel.enabled() {
            return Self {
                tel: None,
                name: String::new(),
                fields: Vec::new(),
                start: Instant::now(),
            };
        }
        let mut start_event = Event::new(EventKind::SpanStart, name);
        start_event.fields.clone_from(&fields);
        tel.record(start_event);
        Self {
            tel: Some(tel),
            name: name.to_string(),
            fields,
            start: Instant::now(),
        }
    }

    /// Records, from the calling thread, a region that took `elapsed`:
    /// its start and its end, as a span around it would have. For work
    /// another thread ran, so that a stream's events keep the order the
    /// caller records them in.
    pub fn record(tel: &dyn Telemetry, name: &str, elapsed: Duration) {
        if tel.enabled() {
            tel.record(Event::new(EventKind::SpanStart, name));
            let mut end = Event::new(EventKind::SpanEnd, name);
            end.duration_us = Some(u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX));
            tel.record(end);
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(tel) = self.tel {
            let mut end = Event::new(EventKind::SpanEnd, &self.name);
            end.fields = std::mem::take(&mut self.fields);
            end.duration_us =
                Some(u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX));
            tel.record(end);
        }
    }
}

/// The zero-cost default sink: reports `enabled() == false` and drops
/// everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl Telemetry for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _event: Event) {}
}

/// An in-memory sink for tests.
#[derive(Debug, Default)]
pub struct InMemorySink {
    events: Mutex<Vec<Event>>,
}

impl InMemorySink {
    /// An empty sink.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A snapshot of the recorded events.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().map(|e| e.clone()).unwrap_or_default()
    }

    /// Drains and returns the recorded events.
    #[must_use]
    pub fn take(&self) -> Vec<Event> {
        self.events
            .lock()
            .map(|mut e| std::mem::take(&mut *e))
            .unwrap_or_default()
    }

    /// The recorded events with the given name, in order.
    #[must_use]
    pub fn events_named(&self, name: &str) -> Vec<Event> {
        self.events
            .lock()
            .map(|e| e.iter().filter(|ev| ev.name == name).cloned().collect())
            .unwrap_or_default()
    }

    /// The sum of all increments of the named counter.
    #[must_use]
    pub fn counter_total(&self, name: &str) -> u64 {
        self.events()
            .iter()
            .filter(|e| e.kind == EventKind::Counter && e.name == name)
            .map(|e| e.delta.unwrap_or(0))
            .sum()
    }
}

impl Telemetry for InMemorySink {
    fn record(&self, event: Event) {
        if let Ok(mut events) = self.events.lock() {
            events.push(event);
        }
    }
}

/// An append-only JSONL sink: one JSON object per line, written and
/// flushed per event so a crash can at worst truncate the final line.
///
/// Write or serialization failures flip the sink into a disabled state
/// instead of panicking — telemetry must never take the pipeline down.
#[derive(Debug)]
pub struct JsonlSink {
    file: Mutex<std::fs::File>,
    failed: AtomicBool,
}

impl JsonlSink {
    /// Creates (truncating) the log at `path`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the file cannot be created.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        Ok(Self {
            file: Mutex::new(std::fs::File::create(path)?),
            failed: AtomicBool::new(false),
        })
    }

    /// Opens the log at `path` for appending, creating it if absent.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the file cannot be opened.
    pub fn append(path: &Path) -> std::io::Result<Self> {
        Ok(Self {
            file: Mutex::new(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?,
            ),
            failed: AtomicBool::new(false),
        })
    }
}

impl Telemetry for JsonlSink {
    fn enabled(&self) -> bool {
        !self.failed.load(Ordering::Relaxed)
    }

    fn record(&self, event: Event) {
        if self.failed.load(Ordering::Relaxed) {
            return;
        }
        let Ok(mut line) = serde_json::to_string(&event) else {
            self.failed.store(true, Ordering::Relaxed);
            return;
        };
        line.push('\n');
        let ok = self
            .file
            .lock()
            .map(|mut f| {
                f.write_all(line.as_bytes())
                    .and_then(|()| f.flush())
                    .is_ok()
            })
            .unwrap_or(false);
        if !ok {
            self.failed.store(true, Ordering::Relaxed);
        }
    }
}

/// Reads every event back from a JSONL log written by [`JsonlSink`].
///
/// # Errors
///
/// Returns a message naming the first unparseable line.
pub fn read_jsonl(path: &Path) -> Result<Vec<Event>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| {
            serde_json::from_str::<Event>(line).map_err(|e| format!("line {}: {e:?}", i + 1))
        })
        .collect()
}

/// Aggregate view of an event stream, for summary rendering.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSummary {
    /// `(span name, completions, total wall-clock µs)` sorted by name.
    pub spans: Vec<(String, u64, u64)>,
    /// `(counter name, total)` sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(histogram name, observations, min, max)` sorted by name.
    pub histograms: Vec<(String, u64, f64, f64)>,
    /// Point events, in order.
    pub points: u64,
}

/// Aggregates an event stream into per-name totals.
#[must_use]
pub fn summarize(events: &[Event]) -> StreamSummary {
    let mut spans: Vec<(String, u64, u64)> = Vec::new();
    let mut counters: Vec<(String, u64)> = Vec::new();
    let mut histograms: Vec<(String, u64, f64, f64)> = Vec::new();
    let mut points = 0u64;
    for e in events {
        match e.kind {
            EventKind::SpanEnd => {
                let us = e.duration_us.unwrap_or(0);
                match spans.iter_mut().find(|(n, _, _)| *n == e.name) {
                    Some((_, count, total)) => {
                        *count += 1;
                        *total += us;
                    }
                    None => spans.push((e.name.clone(), 1, us)),
                }
            }
            EventKind::Counter => {
                let delta = e.delta.unwrap_or(0);
                match counters.iter_mut().find(|(n, _)| *n == e.name) {
                    Some((_, total)) => *total += delta,
                    None => counters.push((e.name.clone(), delta)),
                }
            }
            EventKind::Histogram => {
                let v = match e.field("value") {
                    Some(&FieldValue::F64(x)) => x,
                    _ => f64::NAN,
                };
                match histograms.iter_mut().find(|(n, _, _, _)| *n == e.name) {
                    Some((_, count, lo, hi)) => {
                        *count += 1;
                        *lo = lo.min(v);
                        *hi = hi.max(v);
                    }
                    None => histograms.push((e.name.clone(), 1, v, v)),
                }
            }
            EventKind::Point => points += 1,
            EventKind::SpanStart => {}
        }
    }
    spans.sort_by(|a, b| a.0.cmp(&b.0));
    counters.sort_by(|a, b| a.0.cmp(&b.0));
    histograms.sort_by(|a, b| a.0.cmp(&b.0));
    StreamSummary {
        spans,
        counters,
        histograms,
        points,
    }
}

#[cfg(test)]
mod tests {
    #![allow(
        clippy::unwrap_used,
        clippy::expect_used,
        reason = "tests panic freely by design"
    )]

    use super::*;

    #[test]
    fn null_sink_is_disabled_and_silent() {
        let sink = NullSink;
        assert!(!sink.enabled());
        sink.counter("x", 3);
        sink.record(Event::point("y"));
        // spans on a disabled sink are inert
        drop(Span::enter(&sink, "z"));
    }

    #[test]
    fn in_memory_sink_records_counters_and_spans() {
        let sink = InMemorySink::new();
        sink.counter("eval.samples", 5);
        sink.counter("eval.samples", 7);
        {
            let _span = Span::enter_with(&sink, "stage", vec![("epoch".into(), 3u64.into())]);
        }
        assert_eq!(sink.counter_total("eval.samples"), 12);
        let events = sink.events();
        assert_eq!(events.len(), 4);
        assert_eq!(events[2].kind, EventKind::SpanStart);
        assert_eq!(events[3].kind, EventKind::SpanEnd);
        assert_eq!(events[3].field("epoch"), Some(&FieldValue::U64(3)));
        assert!(events[3].duration_us.is_some(), "spans carry wall-clock");
        assert!(
            events[3].clone().without_duration().duration_us.is_none(),
            "deterministic comparisons strip the duration"
        );
    }

    #[test]
    fn jsonl_sink_round_trips_and_stays_strict_json() {
        let path = std::env::temp_dir().join(format!("cocktail-obs-{}.jsonl", std::process::id()));
        let sink = JsonlSink::create(&path).expect("create");
        sink.counter("rollout.nan_detected", 1);
        sink.record(
            Event::point("eval")
                .with("mean_energy", f64::NAN)
                .with("safe", true),
        );
        {
            let _span = Span::enter(&sink, "pipeline");
        }
        let text = std::fs::read_to_string(&path).expect("read back");
        assert!(
            !text.contains("NaN") && !text.contains("Infinity"),
            "non-finite payloads must degrade to null, got: {text}"
        );
        let events = read_jsonl(&path).expect("every line parses");
        assert_eq!(events.len(), 4);
        match events[1].field("mean_energy") {
            Some(FieldValue::F64(x)) => assert!(x.is_nan()),
            other => panic!("expected F64(NaN), got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn summarize_aggregates_by_name() {
        let sink = InMemorySink::new();
        sink.counter("a", 2);
        sink.counter("a", 3);
        sink.observe("h", 1.0);
        sink.observe("h", -4.0);
        {
            let _s = Span::enter(&sink, "s");
        }
        {
            let _s = Span::enter(&sink, "s");
        }
        let summary = summarize(&sink.events());
        assert_eq!(summary.counters, vec![("a".to_string(), 5)]);
        assert_eq!(summary.spans.len(), 1);
        assert_eq!(summary.spans[0].1, 2);
        assert_eq!(summary.histograms[0].1, 2);
        assert_eq!(summary.histograms[0].2, -4.0);
        assert_eq!(summary.histograms[0].3, 1.0);
    }
}
