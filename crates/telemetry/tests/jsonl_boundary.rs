//! The JSONL reader is where a recording enters the program: whatever it
//! accepts must export to a document the Perfetto validator accepts, and
//! what it cannot represent is a line-numbered error, not a coerced value.

use gpmr_telemetry::export::{snapshot_from_jsonl, to_perfetto_json, validate_perfetto};
use proptest::prelude::*;

const TRACK_LINE: &str = r#"{"type":"track","track":0,"name":"rank 0"}"#;

fn span_line(track: &str, start_s: &str, end_s: &str) -> String {
    format!(
        r#"{{"type":"span","id":1,"track":{track},"kind":"Map","name":"Map","start_s":{start_s},"end_s":{end_s}}}"#
    )
}

fn sample_line(ts_s: &str) -> String {
    format!(r#"{{"type":"sample","track":0,"series":"queue_depth","ts_s":{ts_s},"value":1}}"#)
}

#[test]
fn values_a_snapshot_cannot_hold_are_line_numbered_errors() {
    // Each of these used to be read (a track cast to 0 or 4294967295, a
    // time kept as it was) and exported to a document `trace check`
    // rejects, or printed as `end = infs`.
    for (bad, field) in [
        (span_line("-1", "0", "1"), "track"),
        (span_line("1e30", "0", "1"), "track"),
        (span_line("0.5", "0", "1"), "track"),
        (span_line("0", "-5", "1"), "start_s"),
        (span_line("0", "0", "1e308"), "end_s"),
        (sample_line("1e999"), "ts_s"),
    ] {
        let text = format!("{TRACK_LINE}\n{bad}\n");
        let err = snapshot_from_jsonl(&text).expect_err(&bad);
        assert!(err.starts_with("line 2: "), "{err}");
        assert!(err.contains(field), "{err}");
    }
}

#[test]
fn a_recording_without_track_lines_exports_to_a_valid_document() {
    let text = format!("{}\n{}\n", span_line("3", "0", "1"), sample_line("0.5"));
    let snap = snapshot_from_jsonl(&text).expect("well-formed");
    assert!(snap.tracks.is_empty());
    let doc = to_perfetto_json(&snap);
    let stats = validate_perfetto(&doc).expect("every used track is named");
    assert_eq!(stats.named_tracks, 2);
    assert!(doc.contains(r#""args":{"name":"track 3"}"#));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Numbers from the edges of what JSON can say, in every numeric
    /// field, with and without track lines: the reader may refuse, but
    /// what it accepts must export to a valid document.
    #[test]
    fn accepted_recordings_export_to_valid_documents(
        lines in prop::collection::vec(
            (0usize..3, prop::collection::vec(0usize..8 * EDGES.len(), 4)),
            0..12,
        )
    ) {
        let mut text = String::new();
        for (ty, n) in &lines {
            let (a, b, c, d) = (num(n[0]), num(n[1]), num(n[2]), num(n[3]));
            text.push_str(&match ty {
                0 => format!(r#"{{"type":"track","track":{a},"name":"t"}}"#),
                1 => format!(
                    r#"{{"type":"span","id":{a},"parent":{a},"track":{b},"kind":"Map","name":"m","start_s":{c},"end_s":{d}}}"#
                ),
                _ => format!(
                    r#"{{"type":"sample","track":{a},"series":"s","ts_s":{b},"value":{c}}}"#
                ),
            });
            text.push('\n');
        }
        if let Ok(snap) = snapshot_from_jsonl(&text) {
            let doc = to_perfetto_json(&snap);
            prop_assert!(validate_perfetto(&doc).is_ok(), "{:?}\n{text}", validate_perfetto(&doc));
        }
    }
}

/// One draw in eight is an edge; the rest are small whole numbers, which
/// every field takes, so that whole recordings get through.
fn num(i: usize) -> String {
    EDGES
        .get(i)
        .map_or_else(|| (i % 10).to_string(), |e| e.to_string())
}

const EDGES: [&str; 10] = [
    "0.25",
    "1.5e-7",
    "4294967295",
    "4294967296",
    "18446744073709551616",
    "1e302",
    "1e308",
    "1e999",
    "-1",
    "-0.0",
];
