//! Crash-scoped flight recorder: a small bounded ring of recent spans and
//! samples that is dumped as a Perfetto-valid postmortem trace when
//! something goes wrong (a missed deadline, a lost GPU, a cancel, an
//! alert firing).
//!
//! The recorder owns a bounded [`Telemetry`] ring; the host mirrors the
//! spans and samples it cares about into [`FlightRecorder::ring`] as it
//! emits them. On a trigger, [`FlightRecorder::dump`] lists what the ring
//! holds, optionally splices in an engine-scoped snapshot of the
//! triggering job (offset onto the service clock and onto tracks past the
//! service's own), and keeps the result as a [`Postmortem`]. Dumps are
//! kept in firing order with stable sequence numbers so a run's
//! postmortem set is bit-identical across repeats.
//!
//! ## What a dump costs
//!
//! Consecutive dumps cover nearly the same ring, so each ring record is
//! rendered to its Perfetto event **once**, into a shared fragment. A dump
//! renders only what was recorded since the previous dump plus the spliced
//! engine snapshot, sorts the fragments into document order and keeps that
//! list with the document's track preamble. The document itself exists
//! only while someone reads it ([`Postmortem::trace_json`],
//! [`Postmortem::write_trace`]); its bytes equal
//! [`to_perfetto_json`](crate::export::to_perfetto_json) of
//! [`FlightRecorder::snapshot_for`] at the moment of the dump.

use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::sync::Arc;

use crate::export::{
    name_used_tracks, write_counter_event, write_preamble, write_span_event, SpanPlace,
    PERFETTO_CLOSE,
};
use crate::span::{CounterSample, SpanRecord, TelemetrySnapshot};
use crate::Telemetry;

/// One postmortem dump: why it fired, what it covers, and the Perfetto
/// document's pieces.
#[derive(Clone, Debug)]
pub struct Postmortem {
    /// Dump sequence number within the recorder (starts at 1).
    pub seq: u64,
    /// Trigger, e.g. `"deadline-missed"`, `"gpu-lost"`, `"cancelled"`,
    /// `"alert:deep_queue"`.
    pub reason: String,
    /// The triggering subject — a job id like `"job3"` or an alert rule.
    pub subject: String,
    /// Virtual instant of the trigger.
    pub at_s: f64,
    /// The document up to its first timed event: process and track names.
    preamble: String,
    /// The timed events in document order, each shared with the recorder
    /// and with every other postmortem that covers the same record.
    events: Vec<Arc<str>>,
}

impl Postmortem {
    /// Stable on-disk file name, e.g.
    /// `postmortem-0001-deadline-missed-job3.json`.
    pub fn file_name(&self) -> String {
        format!(
            "postmortem-{:04}-{}-{}.json",
            self.seq,
            sanitize(&self.reason),
            sanitize(&self.subject)
        )
    }

    /// The document in order: preamble, each event after a comma, close.
    fn pieces(&self) -> impl Iterator<Item = &str> {
        std::iter::once(self.preamble.as_str())
            .chain(self.events.iter().flat_map(|e| [",", &**e]))
            .chain(std::iter::once(PERFETTO_CLOSE))
    }

    /// Assemble the Perfetto JSON trace.
    pub fn trace_json(&self) -> String {
        let mut out = String::with_capacity(self.pieces().map(str::len).sum());
        out.extend(self.pieces());
        out
    }

    /// Write the Perfetto JSON trace to `w` piece by piece, without
    /// assembling it in memory. Hand it a buffered writer.
    pub fn write_trace(&self, w: &mut impl io::Write) -> io::Result<()> {
        self.pieces().try_for_each(|p| w.write_all(p.as_bytes()))
    }
}

fn sanitize(s: &str) -> String {
    let mut out: String = s
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '-'
            }
        })
        .collect();
    if out.is_empty() {
        out.push('x');
    }
    out
}

/// How a spliced snapshot's records move onto the host trace: times shift
/// by `time_offset_s`, tracks by `track_offset`, span ids (and parents)
/// past the host's largest id.
#[derive(Clone, Copy)]
struct Splice {
    time_offset_s: f64,
    track_offset: u32,
    id_base: u64,
}

impl Splice {
    fn span(&self, s: &SpanRecord) -> SpanPlace {
        SpanPlace {
            id: s.id + self.id_base,
            parent: s.parent.map(|p| p + self.id_base),
            track: s.track + self.track_offset,
            start_s: s.start_s + self.time_offset_s,
            end_s: s.end_s + self.time_offset_s,
        }
    }

    /// A sample's shifted track and timestamp.
    fn sample(&self, c: &CounterSample) -> (u32, f64) {
        (c.track + self.track_offset, c.ts_s + self.time_offset_s)
    }

    /// Add `extra`'s shifted track names to `tracks`, prefixed with
    /// `label` so the merged trace reads unambiguously.
    fn name_tracks(
        &self,
        extra: &BTreeMap<u32, String>,
        label: &str,
        tracks: &mut BTreeMap<u32, String>,
    ) {
        for (&track, name) in extra {
            let name = if label.is_empty() {
                name.clone()
            } else {
                format!("{label} {name}")
            };
            tracks.insert(track + self.track_offset, name);
        }
    }
}

/// Splice `extra` into `base`: span/sample times shift by
/// `time_offset_s`, tracks shift by `track_offset`, span ids are rebased
/// past `base`'s largest id (parents follow), and shifted track names are
/// prefixed with `label` so the merged trace reads unambiguously.
pub fn splice_snapshot(
    base: &mut TelemetrySnapshot,
    extra: &TelemetrySnapshot,
    time_offset_s: f64,
    track_offset: u32,
    label: &str,
) {
    let splice = Splice {
        time_offset_s,
        track_offset,
        id_base: base.spans.iter().map(|s| s.id).max().unwrap_or(0),
    };
    for s in &extra.spans {
        let at = splice.span(s);
        base.spans.push(SpanRecord {
            id: at.id,
            parent: at.parent,
            track: at.track,
            start_s: at.start_s,
            end_s: at.end_s,
            ..s.clone()
        });
    }
    for c in &extra.samples {
        let (track, ts_s) = splice.sample(c);
        base.samples.push(CounterSample {
            track,
            ts_s,
            ..c.clone()
        });
    }
    splice.name_tracks(&extra.tracks, label, &mut base.tracks);
}

/// One rendered event and what a dump needs to place it.
#[derive(Clone, Debug)]
struct Fragment {
    ts_s: f64,
    track: u32,
    /// Span id; 0 for a sample.
    id: u64,
    json: Arc<str>,
}

impl Fragment {
    fn span(s: &SpanRecord, at: &SpanPlace, scratch: &mut String) -> Fragment {
        scratch.clear();
        write_span_event(s, at, scratch);
        Fragment {
            ts_s: at.start_s,
            track: at.track,
            id: at.id,
            json: Arc::from(scratch.as_str()),
        }
    }

    fn sample(c: &CounterSample, track: u32, ts_s: f64, scratch: &mut String) -> Fragment {
        scratch.clear();
        write_counter_event(c, track, ts_s, scratch);
        Fragment {
            ts_s,
            track,
            id: 0,
            json: Arc::from(scratch.as_str()),
        }
    }
}

/// The fragments of one of the ring's two queues, oldest first.
#[derive(Clone, Debug, Default)]
struct Rendered {
    frags: VecDeque<Fragment>,
    /// How many records the ring had dropped when `frags[0]` was its
    /// oldest, i.e. that record's position among all ever recorded.
    base: u64,
}

impl Rendered {
    /// Bring the fragments in step with the ring: forget what it dropped,
    /// render what it gained.
    fn sync<'a, T: 'a>(
        &mut self,
        dropped: u64,
        held: impl Iterator<Item = &'a T>,
        render: impl FnMut(&'a T) -> Fragment,
    ) {
        let evicted = (dropped - self.base).min(self.frags.len() as u64) as usize;
        self.frags.drain(..evicted);
        self.base = dropped;
        let have = self.frags.len();
        self.frags.extend(held.skip(have).map(render));
    }
}

/// Bounded ring of recent telemetry plus the postmortems dumped from it.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    ring: Telemetry,
    spans: Rendered,
    samples: Rendered,
    /// Rendering buffer, so a fragment costs one allocation.
    scratch: String,
    dumps: Vec<Postmortem>,
    next_seq: u64,
}

impl FlightRecorder {
    /// A recorder whose ring holds at most `capacity` spans (and as many
    /// samples).
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            ring: Telemetry::with_capacity(capacity),
            spans: Rendered::default(),
            samples: Rendered::default(),
            scratch: String::new(),
            dumps: Vec::new(),
            next_seq: 1,
        }
    }

    /// The ring to mirror spans and samples into. Cloning the handle is
    /// cheap and shares the same ring.
    pub fn ring(&self) -> &Telemetry {
        &self.ring
    }

    /// Postmortems dumped so far, in firing order.
    pub fn postmortems(&self) -> &[Postmortem] {
        &self.dumps
    }

    /// What a [`FlightRecorder::dump`] for `subject` would cover right
    /// now, as a snapshot: the ring, the spliced `engine` snapshot, every
    /// used track named. The reference for the dump's document, and the
    /// form the analysis passes read.
    pub fn snapshot_for(
        &self,
        subject: &str,
        engine: Option<(&TelemetrySnapshot, f64, u32)>,
    ) -> TelemetrySnapshot {
        let mut snap = self.ring.snapshot();
        if let Some((extra, time_offset_s, track_offset)) = engine {
            splice_snapshot(&mut snap, extra, time_offset_s, track_offset, subject);
        }
        let used: Vec<u32> = snap
            .spans
            .iter()
            .map(|s| s.track)
            .chain(snap.samples.iter().map(|c| c.track))
            .collect();
        name_used_tracks(used.into_iter(), &mut snap.tracks);
        snap
    }

    /// List what the ring holds, optionally splice in an engine-scoped
    /// snapshot of the triggering job (`(snapshot, time_offset_s,
    /// track_offset)` — the engine records on its own zero-based clock
    /// and rank tracks), and keep the result as a [`Postmortem`].
    /// Every track used by a timed event is guaranteed a name, so the
    /// document always passes [`crate::export::validate_perfetto`].
    pub fn dump(
        &mut self,
        reason: &str,
        subject: &str,
        at_s: f64,
        engine: Option<(&TelemetrySnapshot, f64, u32)>,
    ) -> &Postmortem {
        let FlightRecorder {
            ring,
            spans,
            samples,
            scratch,
            ..
        } = self;
        let mut tracks = ring
            .with_ring(|ring| {
                spans.sync(ring.dropped_spans, ring.spans.iter(), |s| {
                    Fragment::span(s, &SpanPlace::of(s), scratch)
                });
                samples.sync(ring.dropped_samples, ring.samples.iter(), |c| {
                    Fragment::sample(c, c.track, c.ts_s, scratch)
                });
                ring.tracks.clone()
            })
            .expect("the flight ring is an enabled handle");

        let mut engine_spans = Vec::new();
        let mut engine_samples = Vec::new();
        if let Some((extra, time_offset_s, track_offset)) = engine {
            let splice = Splice {
                time_offset_s,
                track_offset,
                id_base: spans.frags.iter().map(|f| f.id).max().unwrap_or(0),
            };
            engine_spans.extend(
                extra
                    .spans
                    .iter()
                    .map(|s| Fragment::span(s, &splice.span(s), scratch)),
            );
            engine_samples.extend(extra.samples.iter().map(|c| {
                let (track, ts_s) = splice.sample(c);
                Fragment::sample(c, track, ts_s, scratch)
            }));
            splice.name_tracks(&extra.tracks, subject, &mut tracks);
        }

        // Document order is `to_perfetto_json`'s over the equivalent
        // snapshot: a stable sort by timestamp of the spans (ring, then
        // splice) followed by the samples (ring, then splice).
        let mut order: Vec<&Fragment> = spans
            .frags
            .iter()
            .chain(&engine_spans)
            .chain(&samples.frags)
            .chain(&engine_samples)
            .collect();
        name_used_tracks(order.iter().map(|f| f.track), &mut tracks);
        order.sort_by(|a, b| {
            a.ts_s
                .partial_cmp(&b.ts_s)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut preamble = String::new();
        write_preamble(&tracks, &mut preamble);
        let pm = Postmortem {
            seq: self.next_seq,
            reason: reason.to_string(),
            subject: subject.to_string(),
            at_s,
            preamble,
            events: order.into_iter().map(|f| Arc::clone(&f.json)).collect(),
        };
        self.next_seq += 1;
        self.dumps.push(pm);
        self.dumps.last().expect("just pushed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::{to_perfetto_json, validate_perfetto};

    fn engine_snapshot() -> TelemetrySnapshot {
        let tel = Telemetry::enabled();
        tel.set_track_name(0, "rank 0");
        let parent = tel.reserve_span_id();
        tel.span(0, "Map", 0.0, 0.5).parent(parent).record();
        tel.span(0, "Chunk", 0.0, 0.5).id(parent).record();
        tel.sample(0, "queue_depth", 0.25, 2.0);
        tel.snapshot()
    }

    #[test]
    fn dump_is_perfetto_valid_and_contains_the_ring() {
        let mut fr = FlightRecorder::new(64);
        fr.ring().set_track_name(0, "tenant alice");
        fr.ring().span(0, "Job", 1.0, 2.0).name("job3 sio").record();
        let pm = fr.dump("deadline-missed", "job3", 2.0, None).clone();
        assert_eq!(pm.seq, 1);
        assert_eq!(pm.file_name(), "postmortem-0001-deadline-missed-job3.json");
        let stats = validate_perfetto(&pm.trace_json()).expect("valid trace");
        assert_eq!(stats.complete_events, 1);
        assert!(pm.trace_json().contains("job3 sio"));
    }

    #[test]
    fn splice_offsets_time_tracks_and_ids() {
        let mut fr = FlightRecorder::new(64);
        fr.ring().set_track_name(0, "service");
        fr.ring().span(0, "QueueWait", 0.5, 1.5).record();
        let eng = engine_snapshot();
        let pm = fr
            .dump("gpu-lost", "job7", 1.5, Some((&eng, 1.5, 4)))
            .clone();
        let stats = validate_perfetto(&pm.trace_json()).expect("valid trace");
        assert_eq!(stats.complete_events, 3);
        assert_eq!(stats.counter_events, 1);
        // Engine spans moved onto the service clock: 1.5 + 0.5 = 2.0s end.
        assert!((stats.end_ts_us - 2.0e6).abs() < 1e-6);
        assert!(pm.trace_json().contains("job7 rank 0"));
    }

    #[test]
    fn unnamed_tracks_are_named_before_render() {
        let mut fr = FlightRecorder::new(64);
        fr.ring().span(9, "Job", 0.0, 1.0).record();
        let pm = fr.dump("cancelled", "job1", 1.0, None).clone();
        validate_perfetto(&pm.trace_json()).expect("auto-named track");
        assert!(pm.trace_json().contains("track 9"));
    }

    #[test]
    fn every_dump_equals_the_reference_as_the_ring_wraps() {
        // Fragments are rendered once and shared between dumps; whatever
        // the ring dropped or gained in between, each document must be
        // the one the whole-snapshot exporter writes.
        let mut fr = FlightRecorder::new(8);
        fr.ring().set_track_name(0, "svc");
        let eng = engine_snapshot();
        let mut written = Vec::new();
        for round in 0..6u32 {
            // 3, 6, 9, ... records between dumps: less than, then more
            // than, the ring holds.
            for i in 0..3 * (round + 1) {
                let t = f64::from((i * 7 + round) % 5);
                fr.ring().span(i % 3, "Job", t, t + 0.5).record();
                fr.ring().sample(2, "depth", t, f64::from(i));
            }
            let engine = (round % 2 == 1).then_some((&eng, 1.5, 4));
            let want = to_perfetto_json(&fr.snapshot_for("job9", engine));
            let pm = fr.dump("cancelled", "job9", 9.0, engine);
            assert_eq!(pm.trace_json(), want, "dump {round}");
            let mut bytes = Vec::new();
            pm.write_trace(&mut bytes).unwrap();
            assert_eq!(bytes, want.as_bytes());
            written.push(want);
        }
        // Later dumps leave earlier postmortems as they were.
        for (pm, want) in fr.postmortems().iter().zip(&written) {
            assert_eq!(&pm.trace_json(), want);
        }
    }

    #[test]
    fn sequence_numbers_and_ring_bound() {
        let mut fr = FlightRecorder::new(2);
        fr.ring().set_track_name(0, "svc");
        for i in 0..5 {
            fr.ring().span(0, "Job", i as f64, i as f64 + 1.0).record();
        }
        let pm = fr.dump("alert:deep", "deep", 5.0, None).clone();
        assert_eq!(pm.seq, 1);
        let stats = validate_perfetto(&pm.trace_json()).unwrap();
        assert_eq!(stats.complete_events, 2, "ring kept only the newest 2");
        fr.dump("cancelled", "job2", 6.0, None);
        assert_eq!(fr.postmortems().len(), 2);
        assert_eq!(fr.postmortems()[1].seq, 2);
        assert_eq!(sanitize("alert:deep queue!"), "alert-deep-queue-");
    }
}
