//! A telemetry sink that folds the program's own events into per-name
//! aggregates as they arrive. The serving engine emits a point event per
//! request when a sink is attached, so keeping every event (as
//! `InMemorySink` does) would grow by hundreds of megabytes per run.

use cocktail_obs::{Event, EventKind, FieldValue, Telemetry};
use std::collections::BTreeMap;
use std::sync::Mutex;

#[derive(Default)]
struct Folded {
    /// Counter totals.
    counters: BTreeMap<String, u64>,
    /// Every observation of each histogram.
    histograms: BTreeMap<String, Vec<f64>>,
    /// `(completions, total µs)` of each span.
    spans: BTreeMap<String, (u64, u64)>,
}

/// Aggregating sink; see the module docs.
#[derive(Default)]
pub struct FoldingSink {
    folded: Mutex<Folded>,
}

impl FoldingSink {
    /// Total of counter `name`.
    pub fn total(&self, name: &str) -> u64 {
        self.folded
            .lock()
            .map(|f| f.counters.get(name).copied().unwrap_or(0))
            .unwrap_or(0)
    }

    /// Every observation of histogram `name`.
    pub fn histogram(&self, name: &str) -> Vec<f64> {
        self.folded
            .lock()
            .map(|f| f.histograms.get(name).cloned().unwrap_or_default())
            .unwrap_or_default()
    }

    /// Total wall time of span `name` in seconds.
    pub fn span_s(&self, name: &str) -> f64 {
        self.folded
            .lock()
            .map(|f| f.spans.get(name).map_or(0.0, |&(_, us)| us as f64 / 1e6))
            .unwrap_or(0.0)
    }
}

impl Telemetry for FoldingSink {
    fn record(&self, event: Event) {
        let Ok(mut f) = self.folded.lock() else {
            return;
        };
        match event.kind {
            EventKind::Counter => {
                *f.counters.entry(event.name).or_default() += event.delta.unwrap_or(0);
            }
            EventKind::Histogram => {
                if let Some(FieldValue::F64(v)) = event.field("value") {
                    let v = *v;
                    f.histograms.entry(event.name).or_default().push(v);
                }
            }
            EventKind::SpanEnd => {
                let s = f.spans.entry(event.name).or_default();
                s.0 += 1;
                s.1 += event.duration_us.unwrap_or(0);
            }
            EventKind::SpanStart | EventKind::Point => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocktail_obs::Span;

    #[test]
    fn folds_counters_histograms_and_spans() {
        let sink = FoldingSink::default();
        sink.counter("serve.requests", 3);
        sink.counter("serve.requests", 4);
        sink.observe("serve.batch_size", 2.0);
        sink.observe("serve.batch_size", 5.0);
        sink.record(Event::point("serve.request").with("id", 1u64));
        {
            let _s = Span::enter(&sink, "pipeline/dataset");
        }
        assert!(sink.enabled());
        assert_eq!(sink.total("serve.requests"), 7);
        assert_eq!(sink.histogram("serve.batch_size"), vec![2.0, 5.0]);
        assert!(sink.span_s("pipeline/dataset") >= 0.0);
        assert_eq!(sink.total("absent"), 0);
    }
}
