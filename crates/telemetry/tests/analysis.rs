//! Edge-case and property tests for the analysis layer:
//! degenerate recordings (no spans, one track, zero-duration spans) must
//! produce well-formed reports, and the union-based per-track activity
//! accounting must never attribute more busy time than wall time.

use gpmr_telemetry::analyze::analyze;
use gpmr_telemetry::metrics::MetricsSnapshot;
use gpmr_telemetry::span::{SpanRecord, SpanRecorder};
use gpmr_telemetry::TelemetrySnapshot;
use proptest::prelude::*;

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

fn snap_of(spans: Vec<SpanRecord>) -> TelemetrySnapshot {
    let rec = SpanRecorder::new(4096);
    for s in spans {
        rec.record(s);
    }
    rec.snapshot(MetricsSnapshot::default())
}

#[test]
fn zero_span_recorder_yields_empty_reports() {
    let a = analyze(&snap_of(vec![]));
    assert_eq!(a.makespan_s, 0.0);
    assert!(a.critical_path.is_empty());
    assert!(a.ranks.is_empty());
    assert!(a.findings.is_empty());
    // Rendering a degenerate analysis must not panic or divide by zero.
    assert!(a.render_text().contains("makespan = 0.000000s"));
}

#[test]
fn single_track_job_analyzes() {
    let snap = snap_of(vec![
        span(0, "Upload", 0.0, 1.0),
        span(0, "Map", 1.0, 3.0),
        span(0, "Sort", 3.0, 4.0),
    ]);
    let a = analyze(&snap);
    assert_eq!(a.ranks.len(), 1);
    assert!((a.ranks[0].busy_s - 4.0).abs() < 1e-12);
    // One rank can never be a straggler relative to itself.
    assert!(a
        .findings
        .iter()
        .all(|f| !f.code().starts_with("Straggler")));
}

#[test]
fn identical_start_and_end_spans_are_harmless() {
    // Zero-duration spans (instant events) plus a real one.
    let snap = snap_of(vec![
        span(0, "Requeue", 1.0, 1.0),
        span(0, "Requeue", 1.0, 1.0),
        span(0, "Map", 0.0, 2.0),
    ]);
    let a = analyze(&snap);
    assert_eq!(a.makespan_s, 2.0);
    assert!((a.ranks[0].busy_s - 2.0).abs() < 1e-12);
    assert_eq!(a.ranks[0].blocked_s, 0.0);
    let total: f64 = a.critical_path.iter().map(|s| s.contribution_s).sum();
    assert!((total - a.makespan_s).abs() < 1e-12);
}

#[test]
fn all_zero_duration_spans_do_not_blow_up() {
    let snap = snap_of(vec![span(0, "Map", 1.0, 1.0), span(1, "Sort", 1.0, 1.0)]);
    let a = analyze(&snap);
    assert_eq!(a.makespan_s, 1.0);
    for r in &a.ranks {
        assert_eq!(r.busy_s, 0.0);
        assert!((r.idle_s - 1.0).abs() < 1e-12);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Union-based activity accounting: per-track busy time never exceeds
    /// wall time, and busy + blocked + idle tiles the makespan exactly,
    /// for arbitrary (possibly overlapping, possibly zero-length) spans.
    #[test]
    fn per_track_busy_never_exceeds_wall_time(
        raw in prop::collection::vec(
            (0u32..4, 0usize..6, 0.0f64..10.0, 0.0f64..5.0),
            1..40,
        )
    ) {
        const KINDS: [&str; 6] = ["Upload", "Map", "Send", "Sort", "Reduce", "Stall"];
        let spans: Vec<SpanRecord> = raw
            .iter()
            .map(|&(track, kind, start, len)| span(track, KINDS[kind], start, start + len))
            .collect();
        let a = analyze(&snap_of(spans));
        prop_assert!(a.makespan_s >= 0.0);
        for r in &a.ranks {
            prop_assert!(
                r.busy_s <= a.makespan_s + 1e-9,
                "track {}: busy {} > makespan {}",
                r.track, r.busy_s, a.makespan_s
            );
            prop_assert!(r.busy_s >= 0.0 && r.blocked_s >= 0.0 && r.idle_s >= 0.0);
            let tiled = r.busy_s + r.blocked_s + r.idle_s;
            prop_assert!(
                (tiled - a.makespan_s).abs() < 1e-9,
                "track {}: busy+blocked+idle = {} != makespan {}",
                r.track, tiled, a.makespan_s
            );
        }
        // The critical path always tiles the makespan.
        let total: f64 = a.critical_path.iter().map(|s| s.contribution_s).sum();
        prop_assert!((total - a.makespan_s).abs() < 1e-9 * a.makespan_s.max(1.0));
    }
}
