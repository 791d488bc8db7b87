//! Exporters: Chrome trace-event / Perfetto JSON, a JSONL event stream
//! and an ASCII Gantt chart — plus a structural validator used by tests
//! and CI.
//!
//! ## Perfetto mapping
//!
//! Everything lives in process 0. Each telemetry track becomes one thread
//! (`tid` = track index) named via a `thread_name` metadata event. Spans
//! become complete events (`ph:"X"`) with `ts`/`dur` in microseconds of
//! simulated time; counter samples become counter events (`ph:"C"`).

use std::collections::BTreeMap;

use crate::json::{parse, render_num, render_string, Value};
use crate::kind::SpanKind;
use crate::span::{CounterSample, SpanRecord, TelemetrySnapshot};

const US_PER_S: f64 = 1e6;

/// Render a snapshot as a Chrome trace-event / Perfetto JSON document.
/// Open the result at <https://ui.perfetto.dev> (drag and drop the file).
///
/// Events are written straight into the output string, with no
/// [`Value`] tree in between. The flight recorder assembles its
/// postmortems from the same pieces (the track preamble, one fragment
/// per event, the closing) without going through a snapshot; this
/// function is the reference those documents must equal byte for byte.
pub fn to_perfetto_json(snap: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    let mut tracks = snap.tracks.clone();
    let used = snap.spans.iter().map(|s| s.track);
    name_used_tracks(
        used.chain(snap.samples.iter().map(|c| c.track)),
        &mut tracks,
    );
    write_preamble(&tracks, &mut out);

    // Emit timed events sorted by timestamp (Perfetto requires no ordering,
    // but sorted output is stable, diffs cleanly, and lets the validator
    // assert monotonicity). Spans come before samples at equal times; the
    // second field indexes the spans, then the samples.
    let mut timed: Vec<(f64, usize)> = snap
        .spans
        .iter()
        .map(|s| s.start_s)
        .chain(snap.samples.iter().map(|c| c.ts_s))
        .zip(0..)
        .collect();
    timed.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    for (_, i) in timed {
        out.push(',');
        match snap.spans.get(i) {
            Some(s) => write_span_event(s, 0, &mut out),
            None => write_counter_event(&snap.samples[i - snap.spans.len()], &mut out),
        }
    }
    out.push_str(PERFETTO_CLOSE);
    out
}

/// What follows a document's last event.
pub(crate) const PERFETTO_CLOSE: &str = r#"],"displayTimeUnit":"ms"}"#;

/// Open a document: the `traceEvents` array, the process name and one
/// `thread_name` record per track. Every timed event follows a comma.
pub(crate) fn write_preamble(tracks: &BTreeMap<u32, String>, out: &mut String) {
    out.push_str(r#"{"traceEvents":[{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"gpmr"}}"#);
    for (&track, name) in tracks {
        out.push_str(r#",{"name":"thread_name","ph":"M","pid":0,"tid":"#);
        render_num(f64::from(track), out);
        out.push_str(r#","args":{"name":"#);
        render_string(name, out);
        out.push_str("}}");
    }
}

/// Name any track that carries events but was never named — the
/// validator (and Perfetto itself) wants a thread_name per tid.
pub(crate) fn name_used_tracks(
    used: impl Iterator<Item = u32>,
    tracks: &mut BTreeMap<u32, String>,
) {
    for track in used {
        tracks
            .entry(track)
            .or_insert_with(|| format!("track {track}"));
    }
}

/// One complete (`ph:"X"`) event: span `s`, its id and parent id
/// `id_base` higher (a postmortem's capture numbers its spans past its
/// window's).
pub(crate) fn write_span_event(s: &SpanRecord, id_base: u64, out: &mut String) {
    out.push_str(r#"{"name":"#);
    render_string(&s.name, out);
    out.push_str(r#","cat":"#);
    render_string(&s.kind, out);
    out.push_str(r#","ph":"X","pid":0,"tid":"#);
    render_num(f64::from(s.track), out);
    out.push_str(r#","ts":"#);
    render_num(s.start_s * US_PER_S, out);
    out.push_str(r#","dur":"#);
    render_num(s.duration_s() * US_PER_S, out);
    out.push_str(r#","id":"#);
    render_num((s.id + id_base) as f64, out);
    out.push_str(r#","args":{"kind":"#);
    render_string(&s.kind, out);
    if let Some(p) = s.parent {
        out.push_str(r#","parent_span":"#);
        render_num((p + id_base) as f64, out);
    }
    for (k, v) in &s.attrs {
        out.push(',');
        render_string(k, out);
        out.push(':');
        render_string(v, out);
    }
    out.push_str("}}");
}

/// One counter (`ph:"C"`) event: sample `c`.
pub(crate) fn write_counter_event(c: &CounterSample, out: &mut String) {
    out.push_str(r#"{"name":"#);
    render_string(&c.series, out);
    out.push_str(r#","ph":"C","pid":0,"tid":"#);
    render_num(f64::from(c.track), out);
    out.push_str(r#","ts":"#);
    render_num(c.ts_s * US_PER_S, out);
    out.push_str(r#","args":{"value":"#);
    render_num(c.value, out);
    out.push_str("}}");
}

/// Render a snapshot as a JSONL event stream: one `track`, `span`, or
/// `sample` object per line, ending with a `summary` line carrying drop
/// counts and the metrics snapshot.
pub fn to_jsonl(snap: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    for (&track, name) in &snap.tracks {
        let line = Value::Obj(vec![
            ("type".into(), Value::str("track")),
            ("track".into(), Value::Num(track as f64)),
            ("name".into(), Value::str(name.clone())),
        ]);
        out.push_str(&line.render());
        out.push('\n');
    }
    for s in &snap.spans {
        let mut fields = vec![
            ("type".into(), Value::str("span")),
            ("id".into(), Value::Num(s.id as f64)),
            ("track".into(), Value::Num(s.track as f64)),
            ("kind".into(), Value::str(s.kind.clone())),
            ("name".into(), Value::str(s.name.clone())),
            ("start_s".into(), Value::Num(s.start_s)),
            ("end_s".into(), Value::Num(s.end_s)),
        ];
        if let Some(p) = s.parent {
            fields.push(("parent".into(), Value::Num(p as f64)));
        }
        if !s.attrs.is_empty() {
            fields.push((
                "attrs".into(),
                Value::Obj(
                    s.attrs
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::str(v.clone())))
                        .collect(),
                ),
            ));
        }
        out.push_str(&Value::Obj(fields).render());
        out.push('\n');
    }
    for c in &snap.samples {
        let line = Value::Obj(vec![
            ("type".into(), Value::str("sample")),
            ("track".into(), Value::Num(c.track as f64)),
            ("series".into(), Value::str(c.series.clone())),
            ("ts_s".into(), Value::Num(c.ts_s)),
            ("value".into(), Value::Num(c.value)),
        ]);
        out.push_str(&line.render());
        out.push('\n');
    }
    let summary = Value::Obj(vec![
        ("type".into(), Value::str("summary")),
        (
            "dropped_spans".into(),
            Value::Num(snap.dropped_spans as f64),
        ),
        (
            "dropped_samples".into(),
            Value::Num(snap.dropped_samples as f64),
        ),
        ("metrics".into(), snap.metrics.to_value()),
    ]);
    out.push_str(&summary.render());
    out.push('\n');
    out
}

/// Rebuild a [`TelemetrySnapshot`] from a JSONL event stream produced by
/// [`to_jsonl`]. Metrics inside the `summary` line are restored for
/// counters and gauges; histogram buckets are restored verbatim.
pub fn snapshot_from_jsonl(text: &str) -> Result<TelemetrySnapshot, String> {
    let mut snap = TelemetrySnapshot::default();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let ty = v
            .get("type")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {}: missing type", lineno + 1))?;
        match ty {
            "track" => {
                let track = field_uint(&v, "track", U32_LIMIT, lineno)? as u32;
                let name = field_str(&v, "name", lineno)?;
                snap.tracks.insert(track, name);
            }
            "span" => {
                let attrs = match v.get("attrs") {
                    Some(Value::Obj(fields)) => fields
                        .iter()
                        .map(|(k, val)| (k.clone(), val.as_str().unwrap_or_default().to_string()))
                        .collect(),
                    _ => Vec::new(),
                };
                snap.spans.push(SpanRecord {
                    id: field_uint(&v, "id", U64_LIMIT, lineno)?,
                    parent: v
                        .get("parent")
                        .map(|_| field_uint(&v, "parent", U64_LIMIT, lineno))
                        .transpose()?,
                    track: field_uint(&v, "track", U32_LIMIT, lineno)? as u32,
                    kind: field_str(&v, "kind", lineno)?,
                    name: field_str(&v, "name", lineno)?,
                    start_s: field_time(&v, "start_s", lineno)?,
                    end_s: field_time(&v, "end_s", lineno)?,
                    attrs,
                });
            }
            "sample" => {
                snap.samples.push(CounterSample {
                    track: field_uint(&v, "track", U32_LIMIT, lineno)? as u32,
                    series: field_str(&v, "series", lineno)?,
                    ts_s: field_time(&v, "ts_s", lineno)?,
                    value: field_num(&v, "value", lineno)?,
                });
            }
            "summary" => {
                snap.dropped_spans = field_uint(&v, "dropped_spans", U64_LIMIT, lineno)?;
                snap.dropped_samples = field_uint(&v, "dropped_samples", U64_LIMIT, lineno)?;
                if let Some(metrics) = v.get("metrics") {
                    restore_metrics(metrics, &mut snap);
                }
            }
            other => return Err(format!("line {}: unknown type {other:?}", lineno + 1)),
        }
    }
    Ok(snap)
}

fn restore_metrics(metrics: &Value, snap: &mut TelemetrySnapshot) {
    if let Some(Value::Obj(fields)) = metrics.get("counters").cloned().as_ref() {
        for (k, v) in fields {
            if let Some(n) = v.as_f64() {
                snap.metrics.counters.insert(k.clone(), n as u64);
            }
        }
    }
    if let Some(Value::Obj(fields)) = metrics.get("gauges").cloned().as_ref() {
        for (k, v) in fields {
            if let Some(n) = v.as_f64() {
                snap.metrics.gauges.insert(k.clone(), n);
            }
        }
    }
    if let Some(Value::Obj(fields)) = metrics.get("histograms").cloned().as_ref() {
        for (k, h) in fields {
            let nums = |key: &str| -> Vec<f64> {
                h.get(key)
                    .and_then(Value::as_arr)
                    .map(|a| a.iter().filter_map(Value::as_f64).collect())
                    .unwrap_or_default()
            };
            snap.metrics.histograms.insert(
                k.clone(),
                crate::metrics::HistogramSnapshot {
                    bounds: nums("bounds"),
                    counts: nums("counts").into_iter().map(|c| c as u64).collect(),
                    count: h.get("count").and_then(Value::as_f64).unwrap_or(0.0) as u64,
                    sum: h.get("sum").and_then(Value::as_f64).unwrap_or(0.0),
                },
            );
        }
    }
}

fn field_num(v: &Value, key: &str, lineno: usize) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("line {}: missing numeric field {key:?}", lineno + 1))
}

/// One past `u32::MAX` / `u64::MAX`, as `f64`.
const U32_LIMIT: f64 = 4_294_967_296.0;
const U64_LIMIT: f64 = 18_446_744_073_709_551_616.0;

/// A whole number in `0..limit`. A cast would turn `-1`, `0.5` and `1e30`
/// into some other track or id without a word.
fn field_uint(v: &Value, key: &str, limit: f64, lineno: usize) -> Result<u64, String> {
    let n = field_num(v, key, lineno)?;
    if n >= 0.0 && n < limit && n.fract() == 0.0 {
        Ok(n as u64)
    } else {
        Err(format!(
            "line {}: field {key:?} is not an integer in range: {n:?}",
            lineno + 1
        ))
    }
}

/// A simulated time in seconds: not negative, and finite in the
/// microseconds [`to_perfetto_json`] writes — anything else would export
/// to a document [`validate_perfetto`] rejects.
fn field_time(v: &Value, key: &str, lineno: usize) -> Result<f64, String> {
    let t = field_num(v, key, lineno)?;
    if t >= 0.0 && (t * US_PER_S).is_finite() {
        Ok(t)
    } else {
        Err(format!(
            "line {}: field {key:?} is not a time: {t:?}",
            lineno + 1
        ))
    }
}

fn field_str(v: &Value, key: &str, lineno: usize) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("line {}: missing string field {key:?}", lineno + 1))
}

/// Render an ASCII Gantt chart of the spans whose [`SpanKind`] has a
/// tag in the table, one row per track `0..ranks`, `width` columns of
/// simulated time. Later spans overwrite earlier ones in a cell; kernels
/// therefore show through the longer transfer windows they overlap.
pub fn gantt(snap: &TelemetrySnapshot, ranks: u32, width: usize) -> String {
    let width = width.max(10);
    let drawn: Vec<(&SpanRecord, char)> = snap
        .spans
        .iter()
        .filter_map(|s| Some((s, SpanKind::from_name(&s.kind)?.tag()?)))
        .collect();
    let end = drawn.iter().map(|(s, _)| s.end_s).fold(0.0, f64::max);
    if end <= 0.0 {
        return String::from("(empty trace)\n");
    }
    let col = |t: f64| (((t / end) * width as f64) as usize).min(width.saturating_sub(1));
    let mut out = String::new();
    // Wrap the header to ~78 columns.
    let header = format!(
        "time 0 .. {:.3} ms ({} columns; legend: {})",
        end * 1e3,
        width,
        SpanKind::legend()
    );
    let mut line_len = 0;
    for (i, word) in header.split(' ').enumerate() {
        if i > 0 {
            if line_len + 1 + word.len() > 78 {
                out.push('\n');
                line_len = 0;
            } else {
                out.push(' ');
                line_len += 1;
            }
        }
        out.push_str(word);
        line_len += word.len();
    }
    out.push('\n');
    for r in 0..ranks {
        let mut row = vec![' '; width];
        for (s, tag) in drawn.iter().filter(|(s, _)| s.track == r) {
            let (c0, c1) = (col(s.start_s), col(s.end_s).max(col(s.start_s)));
            for cell in row.iter_mut().take(c1 + 1).skip(c0) {
                *cell = *tag;
            }
        }
        out.push_str(&format!("rank {r:>3} |"));
        out.extend(row);
        out.push_str("|\n");
    }
    out
}

/// Structural statistics from a validated Perfetto file.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PerfettoStats {
    /// Number of complete (`ph:"X"`) events.
    pub complete_events: usize,
    /// Number of counter (`ph:"C"`) events.
    pub counter_events: usize,
    /// Distinct tids that have a `thread_name` metadata event.
    pub named_tracks: usize,
    /// Largest `ts + dur` seen, in microseconds.
    pub end_ts_us: f64,
}

/// Validate a Perfetto JSON document produced by [`to_perfetto_json`]:
/// well-formed JSON, a `traceEvents` array, every timed event carries
/// `pid`/`tid`/`ts >= 0` (and `dur >= 0`, and a `name` for `X` events),
/// timed events are sorted by non-decreasing `ts`, and every `tid` used by
/// a timed event has a `thread_name` metadata record.
pub fn validate_perfetto(text: &str) -> Result<PerfettoStats, String> {
    let doc = parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or("missing traceEvents array")?;
    let mut stats = PerfettoStats::default();
    let mut named: Vec<f64> = Vec::new();
    let mut used: Vec<f64> = Vec::new();
    let mut last_ts = f64::NEG_INFINITY;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        let tid = ev
            .get("tid")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("event {i}: missing tid"))?;
        ev.get("pid")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("event {i}: missing pid"))?;
        match ph {
            "M" => {
                if ev.get("name").and_then(Value::as_str) == Some("thread_name") {
                    named.push(tid);
                }
            }
            "X" | "C" => {
                let ts = ev
                    .get("ts")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("event {i}: missing ts"))?;
                if ts < 0.0 {
                    return Err(format!("event {i}: negative ts {ts}"));
                }
                if ts < last_ts {
                    return Err(format!("event {i}: ts {ts} decreases (previous {last_ts})"));
                }
                last_ts = ts;
                used.push(tid);
                if ph == "X" {
                    let dur = ev
                        .get("dur")
                        .and_then(Value::as_f64)
                        .ok_or_else(|| format!("event {i}: X event missing dur"))?;
                    if dur < 0.0 {
                        return Err(format!("event {i}: negative dur {dur}"));
                    }
                    if ev.get("name").and_then(Value::as_str).is_none() {
                        return Err(format!("event {i}: X event missing name"));
                    }
                    stats.complete_events += 1;
                    stats.end_ts_us = stats.end_ts_us.max(ts + dur);
                } else {
                    stats.counter_events += 1;
                    stats.end_ts_us = stats.end_ts_us.max(ts);
                }
            }
            other => return Err(format!("event {i}: unsupported ph {other:?}")),
        }
    }
    sort_tids(&mut named);
    for tid in &used {
        if !named.contains(tid) {
            return Err(format!("tid {tid} has timed events but no thread_name"));
        }
    }
    stats.named_tracks = named.len();
    Ok(stats)
}

/// Sort-and-dedup a tid list. Uses [`f64::total_cmp`], not
/// `partial_cmp().unwrap()`: tids come from untrusted trace documents, and
/// a NaN must fail validation downstream (as an unmatched tid), not panic
/// the validator itself.
fn sort_tids(named: &mut Vec<f64>) {
    named.sort_by(f64::total_cmp);
    named.dedup_by(|a, b| a.total_cmp(b).is_eq());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;
    use crate::span::SpanRecorder;

    fn sample_snapshot() -> TelemetrySnapshot {
        let rec = SpanRecorder::new(64);
        rec.set_track_name(0, "rank 0");
        rec.set_track_name(1, "rank 1");
        rec.record(SpanRecord {
            id: 0,
            parent: None,
            track: 0,
            kind: "Upload".into(),
            name: "upload".into(),
            start_s: 0.0,
            end_s: 0.25,
            attrs: vec![("chunk".into(), "0".into())],
        });
        rec.record(SpanRecord {
            id: 0,
            parent: Some(1),
            track: 1,
            kind: "Map".into(),
            name: "map".into(),
            start_s: 0.25,
            end_s: 1.0,
            attrs: vec![],
        });
        rec.sample(CounterSample {
            track: 0,
            series: "queue_depth".into(),
            ts_s: 0.5,
            value: 3.0,
        });
        let reg = Registry::new();
        reg.counter("engine.chunks_dispatched").add(2);
        reg.gauge("gpu.rank0.mem_peak_bytes").set(4096.0);
        rec.snapshot(reg.snapshot())
    }

    #[test]
    fn perfetto_export_validates() {
        let text = to_perfetto_json(&sample_snapshot());
        let stats = validate_perfetto(&text).expect("valid Perfetto JSON");
        assert_eq!(stats.complete_events, 2);
        assert_eq!(stats.counter_events, 1);
        assert_eq!(stats.named_tracks, 2);
        assert!((stats.end_ts_us - 1e6).abs() < 1e-6);
    }

    /// A snapshot that reaches every formatting branch of the exporter:
    /// equal and out-of-order timestamps across spans and samples,
    /// fractional and huge numbers, a non-finite value, an inverted span,
    /// strings that need escaping, parents and attributes.
    fn awkward_snapshot() -> TelemetrySnapshot {
        let mut snap = TelemetrySnapshot::default();
        snap.tracks.insert(0, "rank 0".into());
        snap.tracks.insert(7, "tenant \"q\"\\\n\u{1}é".into());
        snap.tracks.insert(4_000_000_000, "wide".into());
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 33
        };
        for i in 0..400u64 {
            // A coarse grid, so spans and samples collide on timestamps.
            let start_s =
                (next() % 64) as f64 * 0.125e-3 + if i % 5 == 0 { 1e-7 / 3.0 } else { 0.0 };
            let len_s = match i % 7 {
                0 => -1e-4, // inverted: duration clamps to 0
                1 => 0.0,
                _ => (next() % 1000) as f64 * 1e-6,
            };
            snap.spans.push(SpanRecord {
                id: if i == 13 { 1 << 60 } else { i + 1 },
                parent: (i % 3 == 0).then_some(i / 3),
                track: [0, 7, 4_000_000_000][(next() % 3) as usize],
                kind: ["Map", "Upload", "Net\tSend"][(i % 3) as usize].into(),
                name: format!("span \"{i}\"\r\n"),
                start_s,
                end_s: start_s + len_s,
                attrs: (0..i % 4)
                    .map(|a| (format!("k{a}"), format!("v\\{}\u{1f}", next() % 10)))
                    .collect(),
            });
            if i % 2 == 0 {
                snap.samples.push(CounterSample {
                    track: 7,
                    series: "queue_depth".into(),
                    ts_s: (next() % 64) as f64 * 0.125e-3,
                    value: match i % 10 {
                        0 => f64::NAN,
                        2 => 1e300,
                        4 => -2.5,
                        _ => (next() % 9) as f64,
                    },
                });
            }
        }
        snap
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn perfetto_documents_are_pinned_byte_for_byte() {
        // Length and FNV-1a of the documents the `Value`-tree exporter
        // produced for the same two snapshots, recorded on the commit
        // before events were written straight into the output string.
        let small = to_perfetto_json(&sample_snapshot());
        assert_eq!(
            (small.len(), fnv1a(small.as_bytes())),
            (581, 0x873c_28b1_0f52_8535)
        );
        let awkward = to_perfetto_json(&awkward_snapshot());
        assert_eq!(
            (awkward.len(), fnv1a(awkward.as_bytes())),
            (96_029, 0x8ee1_086f_d31c_1da8)
        );
        let stats = validate_perfetto(&awkward).expect("valid Perfetto JSON");
        assert_eq!((stats.complete_events, stats.counter_events), (400, 200));
    }

    #[test]
    fn validator_rejects_broken_documents() {
        assert!(validate_perfetto("not json").is_err());
        assert!(validate_perfetto("{}").is_err());
        // X event without a thread_name for its tid.
        let bad = r#"{"traceEvents":[{"name":"x","ph":"X","pid":0,"tid":9,"ts":0,"dur":1}]}"#;
        assert!(validate_perfetto(bad).unwrap_err().contains("thread_name"));
        // Decreasing timestamps.
        let bad = r#"{"traceEvents":[
            {"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"t"}},
            {"name":"a","ph":"X","pid":0,"tid":0,"ts":5,"dur":1},
            {"name":"b","ph":"X","pid":0,"tid":0,"ts":4,"dur":1}]}"#;
        assert!(validate_perfetto(bad).unwrap_err().contains("decreases"));
    }

    #[test]
    fn jsonl_round_trips() {
        let snap = sample_snapshot();
        let text = to_jsonl(&snap);
        let restored = snapshot_from_jsonl(&text).expect("JSONL parses");
        assert_eq!(restored.spans, snap.spans);
        assert_eq!(restored.samples, snap.samples);
        assert_eq!(restored.tracks, snap.tracks);
        assert_eq!(
            restored.metrics.counter("engine.chunks_dispatched"),
            snap.metrics.counter("engine.chunks_dispatched")
        );
        assert_eq!(
            restored.metrics.gauge("gpu.rank0.mem_peak_bytes"),
            snap.metrics.gauge("gpu.rank0.mem_peak_bytes")
        );
    }

    #[test]
    fn gantt_renders_rows_and_tags() {
        let tel = crate::Telemetry::enabled();
        tel.span(0, "Upload", 0.0, 0.1).record();
        tel.span(0, "Map", 0.1, 0.4).record();
        tel.span(1, "Map", 0.2, 0.3).record();
        tel.span(0, "Sort", 0.5, 0.8).record();
        // Neither has a tag: not drawn, and the chart ends at Sort's end.
        tel.span(1, "Chunk", 0.0, 0.9).record();
        tel.span(1, "NetSend", 0.0, 0.9).record();
        let g = gantt(&tel.snapshot(), 2, 40);
        assert!(g.starts_with("time 0 .. 800.000 ms (40 columns; legend: # setup,"));
        assert!(g.contains("X gpu-lost"), "fault tags are in every header");
        let rows: Vec<&str> = g.lines().filter(|l| l.starts_with("rank")).collect();
        assert_eq!(rows.len(), 2);
        assert!(rows[0].contains('M'));
        assert!(rows[0].contains('S'));
        assert!(rows[1].contains('M'));
        // All rows same width.
        assert_eq!(rows[0].len(), rows[1].len());
    }

    #[test]
    fn empty_trace_renders_placeholder() {
        assert_eq!(
            gantt(&TelemetrySnapshot::default(), 4, 40),
            "(empty trace)\n"
        );
    }

    #[test]
    fn tid_sort_survives_nan_and_non_finite() {
        // Regression: this used to be `partial_cmp().unwrap()`, which
        // panics the moment a NaN tid reaches the validator. NaN must be
        // kept (so an unmatched-tid check can reject it), sorted last,
        // and deduplicated like any other tid.
        let mut tids = vec![2.0, f64::NAN, 1.0, f64::NAN, f64::INFINITY, 1.0, -0.0];
        sort_tids(&mut tids);
        assert_eq!(tids.len(), 5);
        assert_eq!(&tids[..3], &[-0.0, 1.0, 2.0]);
        assert_eq!(tids[3], f64::INFINITY);
        assert!(tids[4].is_nan());

        // Non-finite tids still parse out of a real document (1e999
        // overflows to +inf) and validate without panicking.
        let doc = r#"{"traceEvents":[
            {"name":"thread_name","ph":"M","pid":0,"tid":1e999,"args":{"name":"t"}},
            {"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"u"}},
            {"name":"x","ph":"X","pid":0,"tid":0,"ts":0,"dur":1}
        ]}"#;
        let stats = validate_perfetto(doc).unwrap();
        assert_eq!(stats.named_tracks, 2);
    }
}
