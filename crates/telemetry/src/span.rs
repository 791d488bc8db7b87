//! Structured spans: timed intervals on named tracks, with parents and
//! key=value attributes, recorded into a bounded ring buffer.
//!
//! A *track* is an integer lane spans are drawn on — one per GPU rank, one
//! per NIC, etc. Exporters map tracks to Perfetto threads. Span times are
//! simulated seconds (`f64`), matching the engine's `SimTime`, so traces
//! derived from spans are bit-identical to the values the engine computed.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::Mutex;

use crate::metrics::MetricsSnapshot;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// Unique id within the recorder (starts at 1; 0 means "no span").
    pub id: u64,
    /// Enclosing span id, if any.
    pub parent: Option<u64>,
    /// Track (lane) index — typically the GPU rank or a NIC lane.
    pub track: u32,
    /// Coarse category: a [`SpanKind`](crate::SpanKind) name for everything
    /// the product records; callers' own spans may carry any string.
    pub kind: String,
    /// Human-readable label (Perfetto slice name).
    pub name: String,
    /// Start time in simulated seconds.
    pub start_s: f64,
    /// End time in simulated seconds.
    pub end_s: f64,
    /// Additional key=value attributes.
    pub attrs: Vec<(String, String)>,
}

impl SpanRecord {
    /// Attribute value by key, if present.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Span duration in simulated seconds.
    pub fn duration_s(&self) -> f64 {
        (self.end_s - self.start_s).max(0.0)
    }
}

/// One sample of a time-varying counter series (queue depth, occupancy...).
#[derive(Clone, Debug, PartialEq)]
pub struct CounterSample {
    /// Track the sample belongs to.
    pub track: u32,
    /// Series name, e.g. `"queue_depth"`.
    pub series: String,
    /// Sample time in simulated seconds.
    pub ts_s: f64,
    /// Sample value.
    pub value: f64,
}

/// What a recorder holds. Record `i` of a queue is the `dropped + i`-th
/// ever recorded there.
#[derive(Debug, Default)]
pub(crate) struct RecorderState {
    pub(crate) spans: VecDeque<SpanRecord>,
    pub(crate) samples: VecDeque<CounterSample>,
    pub(crate) tracks: BTreeMap<u32, String>,
    next_id: u64,
    pub(crate) dropped_spans: u64,
    pub(crate) dropped_samples: u64,
}

/// Bounded ring-buffer recorder for spans and counter samples. When full,
/// the oldest records are dropped and counted, so a long run degrades to
/// "most recent window" rather than unbounded memory.
#[derive(Debug)]
pub struct SpanRecorder {
    state: Mutex<RecorderState>,
    capacity: usize,
}

impl SpanRecorder {
    /// A recorder holding at most `capacity` spans (and `capacity` samples).
    pub fn new(capacity: usize) -> Self {
        SpanRecorder {
            state: Mutex::new(RecorderState {
                next_id: 1,
                ..RecorderState::default()
            }),
            capacity: capacity.max(1),
        }
    }

    /// Reserve a span id without recording anything yet (used for parents
    /// whose children are recorded first).
    pub fn reserve_id(&self) -> u64 {
        let mut st = self.state.lock().unwrap();
        let id = st.next_id;
        st.next_id += 1;
        id
    }

    /// Record a span with a fresh id; returns the id.
    pub fn record(&self, mut span: SpanRecord) -> u64 {
        let mut st = self.state.lock().unwrap();
        if span.id == 0 {
            span.id = st.next_id;
            st.next_id += 1;
        }
        let id = span.id;
        if st.spans.len() >= self.capacity {
            st.spans.pop_front();
            st.dropped_spans += 1;
        }
        st.spans.push_back(span);
        id
    }

    /// Record a counter sample.
    pub fn sample(&self, sample: CounterSample) {
        let mut st = self.state.lock().unwrap();
        if st.samples.len() >= self.capacity {
            st.samples.pop_front();
            st.dropped_samples += 1;
        }
        st.samples.push_back(sample);
    }

    /// Name a track (shown as the Perfetto thread name).
    pub fn set_track_name(&self, track: u32, name: &str) {
        let mut st = self.state.lock().unwrap();
        st.tracks.insert(track, name.to_string());
    }

    /// Run `f` over what the ring holds, in place. A reader that
    /// remembers how far it got sees exactly what is new (the flight
    /// recorder renders each record once that way, not a copy per dump).
    pub(crate) fn with_ring<R>(&self, f: impl FnOnce(&RecorderState) -> R) -> R {
        f(&self.state.lock().unwrap())
    }

    /// Copy out everything recorded so far, paired with `metrics`.
    pub fn snapshot(&self, metrics: MetricsSnapshot) -> TelemetrySnapshot {
        let st = self.state.lock().unwrap();
        TelemetrySnapshot {
            spans: st.spans.iter().cloned().collect(),
            samples: st.samples.iter().cloned().collect(),
            tracks: st.tracks.clone(),
            dropped_spans: st.dropped_spans,
            dropped_samples: st.dropped_samples,
            metrics,
        }
    }
}

/// A point-in-time copy of everything telemetry has recorded: spans,
/// counter samples, track names, drop counts, and a metrics snapshot.
#[derive(Clone, Debug, Default)]
pub struct TelemetrySnapshot {
    /// Recorded spans, in record order.
    pub spans: Vec<SpanRecord>,
    /// Recorded counter samples, in record order.
    pub samples: Vec<CounterSample>,
    /// Track index → display name.
    pub tracks: BTreeMap<u32, String>,
    /// Spans evicted from the ring buffer before this snapshot.
    pub dropped_spans: u64,
    /// Samples evicted from the ring buffer before this snapshot.
    pub dropped_samples: u64,
    /// Metrics captured at the same moment.
    pub metrics: MetricsSnapshot,
}

impl TelemetrySnapshot {
    /// Spans of the given kind, in record order.
    pub fn spans_of(&self, kind: &str) -> impl Iterator<Item = &SpanRecord> + '_ {
        let kind = kind.to_string();
        self.spans.iter().filter(move |s| s.kind == kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(track: u32, kind: &str, start: f64, end: f64) -> SpanRecord {
        SpanRecord {
            id: 0,
            parent: None,
            track,
            kind: kind.into(),
            name: kind.into(),
            start_s: start,
            end_s: end,
            attrs: vec![],
        }
    }

    #[test]
    fn ids_are_sequential_and_reservable() {
        let rec = SpanRecorder::new(16);
        let a = rec.record(span(0, "Map", 0.0, 1.0));
        let reserved = rec.reserve_id();
        let b = rec.record(span(0, "Sort", 1.0, 2.0));
        assert_eq!(a, 1);
        assert_eq!(reserved, 2);
        assert_eq!(b, 3);
        let mut parent = span(0, "Chunk", 0.0, 2.0);
        parent.id = reserved;
        rec.record(parent);
        let snap = rec.snapshot(MetricsSnapshot::default());
        assert_eq!(snap.spans.len(), 3);
        assert_eq!(snap.spans[2].id, reserved);
    }

    #[test]
    fn ring_buffer_drops_oldest_and_counts() {
        let rec = SpanRecorder::new(2);
        for i in 0..5 {
            rec.record(span(0, "Map", i as f64, i as f64 + 1.0));
        }
        let snap = rec.snapshot(MetricsSnapshot::default());
        assert_eq!(snap.spans.len(), 2);
        assert_eq!(snap.dropped_spans, 3);
        assert_eq!(snap.spans[0].start_s, 3.0);
    }

    #[test]
    fn snapshot_filters_by_track_and_kind() {
        let rec = SpanRecorder::new(16);
        rec.set_track_name(0, "rank 0");
        rec.set_track_name(1, "rank 1");
        rec.record(span(0, "Map", 0.0, 1.5));
        rec.record(span(1, "Map", 0.0, 2.5));
        rec.record(span(0, "Sort", 1.5, 2.0));
        let snap = rec.snapshot(MetricsSnapshot::default());
        assert_eq!(snap.spans.iter().filter(|s| s.track == 0).count(), 2);
        assert_eq!(snap.spans_of("Map").count(), 2);
        assert_eq!(snap.tracks[&1], "rank 1");
    }

    #[test]
    fn attrs_lookup() {
        let mut s = span(0, "Upload", 0.0, 1.0);
        s.attrs.push(("chunk".into(), "7".into()));
        assert_eq!(s.attr("chunk"), Some("7"));
        assert_eq!(s.attr("missing"), None);
        assert_eq!(s.duration_s(), 1.0);
    }
}
