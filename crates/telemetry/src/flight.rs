//! Crash-scoped flight recorder: postmortem traces of a recording's most
//! recent spans and samples, dumped as Perfetto-valid documents when
//! something goes wrong (a missed deadline, a lost GPU, a cancel, an
//! alert firing).
//!
//! The recorder keeps no records of its own. It reads a recording the
//! host writes anyway; its *window* is that recording's newest `capacity`
//! spans and samples. On a trigger, [`FlightRecorder::dump`] lists the
//! window, optionally followed by a capture of the triggering job that
//! recorded already placed on the host's clock and tracks
//! ([`Telemetry::placed`]), whose span ids it numbers past the window's,
//! and keeps the result as a [`Postmortem`]. Dumps are kept in firing
//! order with stable sequence numbers so a run's postmortem set is
//! bit-identical across repeats.
//!
//! ## What a dump costs
//!
//! Consecutive dumps cover nearly the same window, so each window record
//! is rendered to its Perfetto event **once**, into a shared fragment. A
//! dump renders only what was recorded since the previous dump plus the
//! capture, sorts the fragments into document order and keeps that list
//! with the document's track preamble. The document itself exists only
//! while someone reads it ([`Postmortem::trace_json`],
//! [`Postmortem::write_trace`]); its bytes equal
//! [`to_perfetto_json`](crate::export::to_perfetto_json) of the window
//! and the capture taken as one snapshot at the moment of the dump.

use std::collections::VecDeque;
use std::io;
use std::sync::Arc;

use crate::export::{
    name_used_tracks, write_counter_event, write_preamble, write_span_event, PERFETTO_CLOSE,
};
use crate::span::{CounterSample, SpanRecord};
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
    /// Span `s`, its ids `id_base` higher.
    fn span(s: &SpanRecord, id_base: u64, scratch: &mut String) -> Fragment {
        scratch.clear();
        write_span_event(s, id_base, scratch);
        Fragment {
            ts_s: s.start_s,
            track: s.track,
            id: s.id + id_base,
            json: Arc::from(scratch.as_str()),
        }
    }

    fn sample(c: &CounterSample, scratch: &mut String) -> Fragment {
        scratch.clear();
        write_counter_event(c, scratch);
        Fragment {
            ts_s: c.ts_s,
            track: c.track,
            id: 0,
            json: Arc::from(scratch.as_str()),
        }
    }
}

/// The fragments of one of the window's two queues, oldest first.
#[derive(Clone, Debug, Default)]
struct Rendered {
    frags: VecDeque<Fragment>,
    /// The position of `frags[0]`'s record among all ever recorded.
    base: u64,
}

impl Rendered {
    /// Bring the fragments in step with the newest `capacity` records of
    /// `queue`, whose oldest is the `dropped`-th ever recorded: forget
    /// what left the window, render what entered it.
    fn sync<'a, T>(
        &mut self,
        queue: &'a VecDeque<T>,
        dropped: u64,
        capacity: usize,
        render: impl FnMut(&'a T) -> Fragment,
    ) {
        let older = queue.len().saturating_sub(capacity);
        let first = dropped + older as u64;
        let evicted = (first - self.base).min(self.frags.len() as u64) as usize;
        self.frags.drain(..evicted);
        self.base = first;
        let have = self.frags.len();
        self.frags.extend(queue.range(older + have..).map(render));
    }
}

/// A window onto a recording, plus the postmortems dumped from it.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    recording: Telemetry,
    capacity: usize,
    spans: Rendered,
    samples: Rendered,
    /// Rendering buffer, so a fragment costs one allocation.
    scratch: String,
    dumps: Vec<Postmortem>,
    next_seq: u64,
}

impl FlightRecorder {
    /// A recorder whose window is the newest `capacity` spans (and as many
    /// samples) of `recording`, an enabled handle.
    pub fn new(recording: &Telemetry, capacity: usize) -> FlightRecorder {
        FlightRecorder {
            recording: recording.clone(),
            capacity,
            spans: Rendered::default(),
            samples: Rendered::default(),
            scratch: String::new(),
            dumps: Vec::new(),
            next_seq: 1,
        }
    }

    /// Postmortems dumped so far, in firing order.
    pub fn postmortems(&self) -> &[Postmortem] {
        &self.dumps
    }

    /// List the window and, when given an enabled one, the triggering
    /// job's `capture` after it (recorded already placed; its span ids
    /// are numbered past the window's), and keep the result as a
    /// [`Postmortem`]. Every track used by a timed event is guaranteed a
    /// name, so the document always passes
    /// [`crate::export::validate_perfetto`].
    pub fn dump(
        &mut self,
        reason: &str,
        subject: &str,
        at_s: f64,
        capture: Option<&Telemetry>,
    ) -> &Postmortem {
        let FlightRecorder {
            recording,
            capacity,
            spans,
            samples,
            scratch,
            ..
        } = self;
        let mut tracks = recording
            .with_ring(|ring| {
                spans.sync(&ring.spans, ring.dropped_spans, *capacity, |s| {
                    Fragment::span(s, 0, scratch)
                });
                samples.sync(&ring.samples, ring.dropped_samples, *capacity, |c| {
                    Fragment::sample(c, scratch)
                });
                ring.tracks.clone()
            })
            .expect("the recording is an enabled handle");

        let id_base = spans.frags.iter().map(|f| f.id).max().unwrap_or(0);
        let (capture_spans, capture_samples) = capture
            .and_then(|c| {
                c.with_ring(|ring| {
                    tracks.extend(ring.tracks.iter().map(|(&t, name)| (t, name.clone())));
                    let spans: Vec<Fragment> = ring
                        .spans
                        .iter()
                        .map(|s| Fragment::span(s, id_base, scratch))
                        .collect();
                    let samples: Vec<Fragment> = ring
                        .samples
                        .iter()
                        .map(|c| Fragment::sample(c, scratch))
                        .collect();
                    (spans, samples)
                })
            })
            .unwrap_or_default();

        // Document order is `to_perfetto_json`'s over the equivalent
        // snapshot: a stable sort by timestamp of the spans (window, then
        // capture) followed by the samples (window, then capture).
        let mut order: Vec<&Fragment> = spans
            .frags
            .iter()
            .chain(&capture_spans)
            .chain(&samples.frags)
            .chain(&capture_samples)
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
    use crate::export::validate_perfetto;

    /// A capture placed `at_s` later and `tracks` higher under `label`:
    /// a rank track, a parent recorded after its child, a sample.
    fn capture(at_s: f64, tracks: u32, label: &str) -> Telemetry {
        let tel = Telemetry::enabled().placed(at_s, tracks, label);
        tel.set_track_name(0, "rank 0");
        let parent = tel.reserve_span_id();
        tel.span(0, "Map", 0.0, 0.5).parent(parent).record();
        tel.span(0, "Chunk", 0.0, 0.5).id(parent).record();
        tel.sample(0, "queue_depth", 0.25, 2.0);
        tel
    }

    #[test]
    fn dump_is_perfetto_valid_and_contains_the_window() {
        let rec = Telemetry::enabled();
        let mut fr = FlightRecorder::new(&rec, 64);
        rec.set_track_name(0, "tenant alice");
        rec.span(0, "Job", 1.0, 2.0).name("job3 sio").record();
        let pm = fr.dump("deadline-missed", "job3", 2.0, None).clone();
        assert_eq!(pm.seq, 1);
        assert_eq!(pm.file_name(), "postmortem-0001-deadline-missed-job3.json");
        let stats = validate_perfetto(&pm.trace_json()).expect("valid trace");
        assert_eq!(stats.complete_events, 1);
        assert!(pm.trace_json().contains("job3 sio"));
    }

    #[test]
    fn a_capture_keeps_its_placement_and_numbers_its_ids_past_the_window() {
        let rec = Telemetry::enabled();
        let mut fr = FlightRecorder::new(&rec, 64);
        rec.set_track_name(0, "service");
        rec.span(0, "QueueWait", 0.5, 1.5).record();
        let pm = fr
            .dump("gpu-lost", "job7", 1.5, Some(&capture(1.5, 4, "job7")))
            .clone();
        let doc = pm.trace_json();
        let stats = validate_perfetto(&doc).expect("valid trace");
        assert_eq!(stats.complete_events, 3);
        assert_eq!(stats.counter_events, 1);
        // The capture recorded on the service clock: 1.5 + 0.5 = 2.0s end.
        assert!((stats.end_ts_us - 2.0e6).abs() < 1e-6);
        assert!(doc.contains(r#""tid":4,"args":{"name":"job7 rank 0"}"#));
        // Map (id 2, parent 1) lands past the window's one span.
        assert!(doc.contains(r#""id":3,"args":{"kind":"Map","parent_span":2}"#));
        // A disabled capture adds nothing.
        let plain = fr.dump("cancelled", "job8", 2.0, Some(&Telemetry::disabled()));
        assert_eq!(
            validate_perfetto(&plain.trace_json())
                .unwrap()
                .complete_events,
            1
        );
    }

    #[test]
    fn unnamed_tracks_are_named_before_render() {
        let rec = Telemetry::enabled();
        let mut fr = FlightRecorder::new(&rec, 64);
        rec.span(9, "Job", 0.0, 1.0).record();
        let pm = fr.dump("cancelled", "job1", 1.0, None).clone();
        validate_perfetto(&pm.trace_json()).expect("auto-named track");
        assert!(pm.trace_json().contains("track 9"));
    }

    #[test]
    fn sequence_numbers_and_window_bound() {
        let rec = Telemetry::with_capacity(3);
        let mut fr = FlightRecorder::new(&rec, 2);
        rec.set_track_name(0, "svc");
        for i in 0..5 {
            rec.span(0, "Job", i as f64, i as f64 + 1.0).record();
        }
        let pm = fr.dump("alert:deep", "deep", 5.0, None).clone();
        assert_eq!(pm.seq, 1);
        let stats = validate_perfetto(&pm.trace_json()).unwrap();
        assert_eq!(stats.complete_events, 2, "the window is the newest 2");
        fr.dump("cancelled", "job2", 6.0, None);
        assert_eq!(fr.postmortems().len(), 2);
        assert_eq!(fr.postmortems()[1].seq, 2);
        assert_eq!(sanitize("alert:deep queue!"), "alert-deep-queue-");
    }
}
