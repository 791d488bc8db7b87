//! Crash-scoped flight recorder: a small bounded ring of recent spans and
//! samples that is dumped as a Perfetto-valid postmortem trace when
//! something goes wrong (a missed deadline, a lost GPU, a cancel, an
//! alert firing).
//!
//! The recorder owns a bounded [`Telemetry`] ring; the host mirrors the
//! spans and samples it cares about into [`FlightRecorder::ring`] as it
//! emits them. On a trigger, [`FlightRecorder::dump`] snapshots the ring,
//! optionally splices in an engine-scoped snapshot of the triggering job
//! (offset onto the service clock and onto tracks past the service's
//! own), and renders a self-contained Perfetto JSON document. Dumps are
//! kept in firing order with stable sequence numbers so a run's
//! postmortem set is bit-identical across repeats.

use crate::export::to_perfetto_json;
use crate::span::TelemetrySnapshot;
use crate::Telemetry;

/// One postmortem dump: why it fired, what it covers, and the rendered
/// Perfetto document.
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
    /// The rendered Perfetto JSON trace.
    pub trace_json: String,
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
    let id_base = base.spans.iter().map(|s| s.id).max().unwrap_or(0);
    for s in &extra.spans {
        let mut s = s.clone();
        s.id += id_base;
        s.parent = s.parent.map(|p| p + id_base);
        s.track += track_offset;
        s.start_s += time_offset_s;
        s.end_s += time_offset_s;
        base.spans.push(s);
    }
    for c in &extra.samples {
        let mut c = c.clone();
        c.track += track_offset;
        c.ts_s += time_offset_s;
        base.samples.push(c);
    }
    for (&track, name) in &extra.tracks {
        let name = if label.is_empty() {
            name.clone()
        } else {
            format!("{label} {name}")
        };
        base.tracks.insert(track + track_offset, name);
    }
}

/// Bounded ring of recent telemetry plus the postmortems dumped from it.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    ring: Telemetry,
    dumps: Vec<Postmortem>,
    next_seq: u64,
}

impl FlightRecorder {
    /// A recorder whose ring holds at most `capacity` spans (and as many
    /// samples).
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            ring: Telemetry::with_capacity(capacity),
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

    /// Snapshot the ring, optionally splice in an engine-scoped snapshot
    /// of the triggering job (`(snapshot, time_offset_s, track_offset)` —
    /// the engine records on its own zero-based clock and rank tracks),
    /// and keep the rendered Perfetto document as a [`Postmortem`].
    /// Every track used by a timed event is guaranteed a name, so the
    /// result always passes [`crate::export::validate_perfetto`].
    pub fn dump(
        &mut self,
        reason: &str,
        subject: &str,
        at_s: f64,
        engine: Option<(&TelemetrySnapshot, f64, u32)>,
    ) -> &Postmortem {
        let mut snap = self.ring.snapshot();
        if let Some((extra, time_offset_s, track_offset)) = engine {
            splice_snapshot(&mut snap, extra, time_offset_s, track_offset, subject);
        }
        // Name any track that carries events but was never named — the
        // validator (and Perfetto itself) wants a thread_name per tid.
        let used: Vec<u32> = snap
            .spans
            .iter()
            .map(|s| s.track)
            .chain(snap.samples.iter().map(|c| c.track))
            .collect();
        for track in used {
            snap.tracks
                .entry(track)
                .or_insert_with(|| format!("track {track}"));
        }
        // Postmortems are kept until the service ends: do not keep the
        // slack the document's buffer grew by along with each of them.
        let mut trace_json = to_perfetto_json(&snap);
        trace_json.shrink_to_fit();
        let pm = Postmortem {
            seq: self.next_seq,
            reason: reason.to_string(),
            subject: subject.to_string(),
            at_s,
            trace_json,
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
        let stats = validate_perfetto(&pm.trace_json).expect("valid trace");
        assert_eq!(stats.complete_events, 1);
        assert!(pm.trace_json.contains("job3 sio"));
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
        let stats = validate_perfetto(&pm.trace_json).expect("valid trace");
        assert_eq!(stats.complete_events, 3);
        assert_eq!(stats.counter_events, 1);
        // Engine spans moved onto the service clock: 1.5 + 0.5 = 2.0s end.
        assert!((stats.end_ts_us - 2.0e6).abs() < 1e-6);
        assert!(pm.trace_json.contains("job7 rank 0"));
    }

    #[test]
    fn unnamed_tracks_are_named_before_render() {
        let mut fr = FlightRecorder::new(64);
        fr.ring().span(9, "Job", 0.0, 1.0).record();
        let pm = fr.dump("cancelled", "job1", 1.0, None).clone();
        validate_perfetto(&pm.trace_json).expect("auto-named track");
        assert!(pm.trace_json.contains("track 9"));
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
        let stats = validate_perfetto(&pm.trace_json).unwrap();
        assert_eq!(stats.complete_events, 2, "ring kept only the newest 2");
        fr.dump("cancelled", "job2", 6.0, None);
        assert_eq!(fr.postmortems().len(), 2);
        assert_eq!(fr.postmortems()[1].seq, 2);
        assert_eq!(sanitize("alert:deep queue!"), "alert-deep-queue-");
    }
}
