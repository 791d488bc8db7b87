//! Observability for the GPMR simulator: a metrics registry, a structured
//! span recorder, exporters (Perfetto JSON, JSONL, utilization summaries),
//! and a performance-diagnosis layer ([`analyze`]: critical-path
//! extraction, straggler/imbalance findings; [`baseline`]: benchmark
//! baselines with a pass/warn/fail regression gate). On top of the
//! registry sit a continuous-observability layer ([`timeseries`]:
//! ring-buffered windowed aggregation over the virtual clock;
//! [`alerts`]: declarative threshold/burn-rate rules evaluated at event
//! boundaries) and a crash-scoped [`flight`] recorder that dumps
//! Perfetto-valid postmortem traces.
//!
//! The entry point is [`Telemetry`], a cheaply cloneable handle that is
//! either *enabled* (backed by a shared [`Registry`] and [`SpanRecorder`])
//! or *disabled* (every operation is a single `Option` branch, so leaving
//! instrumentation in hot paths costs almost nothing).
//!
//! ```
//! use gpmr_telemetry::Telemetry;
//!
//! let tel = Telemetry::enabled();
//! tel.set_track_name(0, "rank 0");
//! let chunks = tel.counter("engine.chunks_dispatched");
//! chunks.inc();
//! tel.span(0, "Map", 0.0, 1.5).attr("chunk", "0").record();
//! let snap = tel.snapshot();
//! assert_eq!(snap.metrics.counter("engine.chunks_dispatched"), 1);
//! assert_eq!(snap.spans[0].track, 0);
//! assert_eq!(snap.spans_of("Map").count(), 1);
//! let perfetto = gpmr_telemetry::export::to_perfetto_json(&snap);
//! gpmr_telemetry::export::validate_perfetto(&perfetto).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alerts;
pub mod analyze;
pub mod baseline;
pub mod export;
pub mod flight;
pub mod json;
pub mod kind;
pub mod metrics;
pub mod span;
pub mod timeseries;

use std::sync::Arc;

pub use alerts::{Alert, AlertEngine, AlertRule};
pub use flight::{FlightRecorder, Postmortem};
pub use kind::SpanKind;
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, Registry};
pub use span::{CounterSample, SpanRecord, SpanRecorder, TelemetrySnapshot};
pub use timeseries::TimeSeriesStore;

/// A time in seconds as the fault-plan, service workload and alert-rule
/// grammars read it: a number, finite and non-negative, or `None`.
pub fn parse_secs(s: &str) -> Option<f64> {
    s.trim()
        .parse::<f64>()
        .ok()
        .filter(|v| v.is_finite() && *v >= 0.0)
}

/// Default ring-buffer capacity for spans and counter samples.
pub const DEFAULT_SPAN_CAPACITY: usize = 65_536;

#[derive(Debug)]
struct Inner {
    metrics: Registry,
    spans: SpanRecorder,
}

/// Handle to the telemetry subsystem. `Default`/[`Telemetry::disabled`]
/// produces a no-op handle; [`Telemetry::enabled`] records everything.
/// Clones share the same underlying registry and recorder.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
    /// Seconds added to every time recorded ([`Telemetry::shifted`]).
    origin_s: f64,
}

impl Telemetry {
    /// A handle that records nothing and hands out no-op metric handles.
    pub fn disabled() -> Self {
        Telemetry::default()
    }

    /// An enabled handle with the default span capacity.
    pub fn enabled() -> Self {
        Self::with_capacity(DEFAULT_SPAN_CAPACITY)
    }

    /// An enabled handle whose ring buffers hold at most `capacity` spans
    /// (and as many counter samples).
    pub fn with_capacity(capacity: usize) -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                metrics: Registry::new(),
                spans: SpanRecorder::new(capacity),
            })),
            origin_s: 0.0,
        }
    }

    /// This handle's recorder and registry, with every span and sample
    /// time placed `by_s` seconds later: how a pass whose clock restarts at
    /// zero records on an enclosing clock (each round of a multi-round
    /// drive, on the cross-round clock).
    pub fn shifted(&self, by_s: f64) -> Telemetry {
        Telemetry {
            inner: self.inner.clone(),
            origin_s: self.origin_s + by_s,
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The metrics registry, when enabled.
    pub fn registry(&self) -> Option<&Registry> {
        self.inner.as_ref().map(|i| &i.metrics)
    }

    /// Counter handle for `name` (no-op when disabled).
    pub fn counter(&self, name: &str) -> Counter {
        match &self.inner {
            Some(i) => i.metrics.counter(name),
            None => Counter::noop(),
        }
    }

    /// Gauge handle for `name` (no-op when disabled).
    pub fn gauge(&self, name: &str) -> Gauge {
        match &self.inner {
            Some(i) => i.metrics.gauge(name),
            None => Gauge::noop(),
        }
    }

    /// Histogram handle for `name` with the given bucket bounds (no-op when
    /// disabled).
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        match &self.inner {
            Some(i) => i.metrics.histogram(name, bounds),
            None => Histogram::noop(),
        }
    }

    /// Name a track (Perfetto thread name). No-op when disabled.
    pub fn set_track_name(&self, track: u32, name: &str) {
        if let Some(i) = &self.inner {
            i.spans.set_track_name(track, name);
        }
    }

    /// Reserve a span id for a parent recorded after its children.
    /// Returns 0 when disabled.
    pub fn reserve_span_id(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.spans.reserve_id())
    }

    /// Start building a span on `track` covering `[start_s, end_s]`
    /// simulated seconds. The span is written when [`SpanBuilder::record`]
    /// is called; when disabled the builder does nothing and costs nothing.
    pub fn span(&self, track: u32, kind: &str, start_s: f64, end_s: f64) -> SpanBuilder<'_> {
        SpanBuilder {
            tel: self,
            span: self.inner.as_ref().map(|_| SpanRecord {
                id: 0,
                parent: None,
                track,
                kind: kind.to_string(),
                name: kind.to_string(),
                start_s: start_s + self.origin_s,
                end_s: end_s + self.origin_s,
                attrs: Vec::new(),
            }),
        }
    }

    /// Record a counter sample (queue depth, occupancy, ...) at `ts_s`.
    pub fn sample(&self, track: u32, series: &str, ts_s: f64, value: f64) {
        if let Some(i) = &self.inner {
            i.spans.sample(CounterSample {
                track,
                series: series.to_string(),
                ts_s: ts_s + self.origin_s,
                value,
            });
        }
    }

    /// Run `f` over the span ring in place; `None` when disabled.
    pub(crate) fn with_ring<R>(&self, f: impl FnOnce(&span::RecorderState) -> R) -> Option<R> {
        self.inner.as_ref().map(|i| i.spans.with_ring(f))
    }

    /// Snapshot all spans, samples, track names, and metrics. Disabled
    /// handles return an empty snapshot.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        match &self.inner {
            Some(i) => i.spans.snapshot(i.metrics.snapshot()),
            None => TelemetrySnapshot::default(),
        }
    }
}

/// Builder returned by [`Telemetry::span`]. All methods are no-ops when
/// the owning handle is disabled.
#[derive(Debug)]
pub struct SpanBuilder<'a> {
    tel: &'a Telemetry,
    span: Option<SpanRecord>,
}

impl SpanBuilder<'_> {
    /// Use a pre-reserved id (see [`Telemetry::reserve_span_id`]).
    pub fn id(mut self, id: u64) -> Self {
        if let Some(s) = &mut self.span {
            s.id = id;
        }
        self
    }

    /// Set the enclosing span. Ignores the reserved "no span" id 0, so
    /// callers can pass a disabled handle's reservation straight through.
    pub fn parent(mut self, parent: u64) -> Self {
        if let Some(s) = &mut self.span {
            if parent != 0 {
                s.parent = Some(parent);
            }
        }
        self
    }

    /// Override the display name (defaults to the kind).
    pub fn name(mut self, name: impl Into<String>) -> Self {
        if let Some(s) = &mut self.span {
            s.name = name.into();
        }
        self
    }

    /// Attach a key=value attribute.
    pub fn attr(mut self, key: &str, value: impl Into<String>) -> Self {
        if let Some(s) = &mut self.span {
            s.attrs.push((key.to_string(), value.into()));
        }
        self
    }

    /// Attach an attribute computed lazily — the closure only runs when
    /// telemetry is enabled, keeping `format!` off disabled hot paths.
    pub fn attr_with(mut self, key: &str, value: impl FnOnce() -> String) -> Self {
        if let Some(s) = &mut self.span {
            s.attrs.push((key.to_string(), value()));
        }
        self
    }

    /// Write the span; returns its id (0 when disabled).
    pub fn record(self) -> u64 {
        match (self.span, &self.tel.inner) {
            (Some(span), Some(i)) => i.spans.record(span),
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        assert!(tel.registry().is_none());
        tel.counter("x").inc();
        tel.gauge("y").set(1.0);
        tel.histogram("z", &[1.0]).observe(0.5);
        tel.set_track_name(0, "rank 0");
        assert_eq!(tel.reserve_span_id(), 0);
        let id = tel
            .span(0, "Map", 0.0, 1.0)
            .attr("k", "v")
            .attr_with("lazy", || unreachable!("must not run when disabled"))
            .record();
        assert_eq!(id, 0);
        tel.sample(0, "queue_depth", 0.0, 1.0);
        let snap = tel.snapshot();
        assert!(snap.spans.is_empty());
        assert!(snap.metrics.counters.is_empty());
    }

    #[test]
    fn enabled_handle_records_and_clones_share() {
        let tel = Telemetry::enabled();
        let clone = tel.clone();
        clone.counter("jobs").inc();
        tel.counter("jobs").inc();
        let parent = tel.reserve_span_id();
        let child = tel
            .span(0, "Upload", 0.0, 0.5)
            .parent(parent)
            .attr("chunk", "3")
            .record();
        tel.span(0, "Chunk", 0.0, 0.5)
            .id(parent)
            .name("chunk 3")
            .record();
        let snap = tel.snapshot();
        assert_eq!(snap.metrics.counter("jobs"), 2);
        assert_eq!(snap.spans.len(), 2);
        assert_eq!(snap.spans[0].id, child);
        assert_eq!(snap.spans[0].parent, Some(parent));
        assert_eq!(snap.spans[1].name, "chunk 3");
    }

    #[test]
    fn a_shifted_handle_records_later_into_the_same_recorder() {
        let tel = Telemetry::enabled();
        let round = tel.shifted(2.0);
        round.shifted(0.5).span(1, "Map", 0.0, 1.0).record();
        round.sample(1, "queue_depth", 0.25, 3.0);
        tel.span(0, "Round", 0.0, 4.0).record();
        let snap = tel.snapshot();
        let times: Vec<(f64, f64)> = snap.spans.iter().map(|s| (s.start_s, s.end_s)).collect();
        assert_eq!(times, [(2.5, 3.5), (0.0, 4.0)]);
        assert_eq!(snap.samples[0].ts_s, 2.25);
        assert!(!Telemetry::disabled().shifted(1.0).is_enabled());
    }

    #[test]
    fn parent_zero_means_no_parent() {
        let tel = Telemetry::enabled();
        tel.span(0, "Map", 0.0, 1.0).parent(0).record();
        let snap = tel.snapshot();
        assert_eq!(snap.spans[0].parent, None);
    }
}
