//! Performance diagnosis over a recorded [`TelemetrySnapshot`]: critical-path
//! extraction with per-stage attribution, per-rank busy/idle/blocked
//! accounting, load-imbalance and overlap scores, and named findings.
//!
//! ## Critical path
//!
//! The simulator records every span with exact simulated timestamps, so the
//! longest dependency chain can be recovered from times alone: starting from
//! the span that ends last, repeatedly pick the latest-ending span that
//! finishes no later than the current span starts. Each chain element is
//! charged for the interval from its predecessor's end to its own end (so a
//! gap spent waiting for a span is charged to that span's stage). The
//! segments therefore tile `[0, makespan]` exactly and the per-stage shares
//! sum to 100% of the makespan by construction.
//!
//! ## Rank accounting
//!
//! Busy/blocked time is computed as the length of the *union* of span
//! intervals per track (unlike [`crate::export::summary_report`], which sums
//! durations and can double-count overlapping spans). Busy covers pipeline
//! work (Upload/Map/Bin/Sort/Reduce...), blocked covers recovery and fault
//! spans (Retry/Stall/Requeue/Steal/GpuLost); the remainder of the makespan
//! is idle. By construction `busy + blocked + idle == makespan` per rank.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use crate::json::Value;
use crate::kind::SpanKind;
pub use crate::kind::Stage;
use crate::span::{SpanRecord, TelemetrySnapshot};

/// One element of the critical path.
#[derive(Clone, Debug)]
pub struct PathSegment {
    /// Id of the span charged for this segment.
    pub span_id: u64,
    /// Track the span ran on.
    pub track: u32,
    /// Recorded span kind.
    pub kind: String,
    /// Stage the segment is attributed to.
    pub stage: Stage,
    /// Span start (simulated seconds).
    pub start_s: f64,
    /// Span end (simulated seconds).
    pub end_s: f64,
    /// Seconds of makespan charged to this segment (predecessor end → this
    /// end, so any wait before the span is included).
    pub contribution_s: f64,
}

/// Busy/blocked/idle accounting for one rank track.
#[derive(Clone, Debug)]
pub struct RankActivity {
    /// Track index (== rank for engine-recorded traces).
    pub track: u32,
    /// Track display name (empty if unnamed).
    pub name: String,
    /// Union length of pipeline-work spans (seconds).
    pub busy_s: f64,
    /// Union length of recovery/fault spans not already busy (seconds).
    pub blocked_s: f64,
    /// Makespan minus busy minus blocked (seconds).
    pub idle_s: f64,
    /// Latest span end on this track (seconds).
    pub finish_s: f64,
}

/// Map-compute / send overlap accounting across rank tracks.
#[derive(Clone, Copy, Debug)]
pub struct OverlapStats {
    /// Total send-span seconds on rank tracks.
    pub send_s: f64,
    /// Seconds of send time overlapped by map compute on the same rank.
    pub overlapped_s: f64,
    /// `overlapped_s / send_s`.
    pub ratio: f64,
}

/// A named diagnostic with the evidence that triggered it.
#[derive(Clone, Debug)]
pub enum Finding {
    /// One rank's active time is far above the mean — it delays the job.
    Straggler {
        /// The straggling rank's track index.
        rank: u32,
        /// Its busy + blocked seconds.
        active_s: f64,
        /// Mean busy + blocked seconds across ranks.
        mean_active_s: f64,
    },
    /// Sends are mostly not hidden behind map compute.
    PoorOverlap {
        /// Achieved overlap ratio.
        ratio: f64,
        /// Total send seconds judged.
        send_s: f64,
    },
    /// Sort dominates the critical path.
    SortBound {
        /// Sort's share of the makespan on the critical path.
        share: f64,
    },
    /// Transfer retries are concentrated enough to matter.
    TransferRetryHotspot {
        /// Total retries observed.
        retries: u64,
        /// Track with the most retry spans.
        worst_track: u32,
        /// Retry spans on that track.
        worst_track_retries: u64,
    },
    /// A declarative alert rule fired (see [`crate::alerts`]).
    Alert {
        /// Name of the rule that fired.
        rule: String,
        /// Virtual instant it fired.
        at_s: f64,
        /// The breaching value.
        value: f64,
        /// The rule's threshold.
        threshold: f64,
    },
}

impl Finding {
    /// Stable machine-readable code, e.g. `"Straggler(rank 2)"`.
    pub fn code(&self) -> String {
        match self {
            Finding::Straggler { rank, .. } => format!("Straggler(rank {rank})"),
            Finding::PoorOverlap { .. } => "PoorOverlap".to_string(),
            Finding::SortBound { .. } => "SortBound".to_string(),
            Finding::TransferRetryHotspot { .. } => "TransferRetryHotspot".to_string(),
            Finding::Alert { rule, .. } => format!("Alert({rule})"),
        }
    }

    /// Human-readable description with the triggering evidence.
    pub fn describe(&self) -> String {
        match self {
            Finding::Straggler {
                rank,
                active_s,
                mean_active_s,
            } => format!(
                "rank {rank} is active {active_s:.6}s vs {mean_active_s:.6}s mean — \
                 it bounds the job finish"
            ),
            Finding::PoorOverlap { ratio, send_s } => format!(
                "only {:.1}% of {send_s:.6}s of sends overlap map compute — \
                 binning is not hidden behind the map stage",
                ratio * 100.0
            ),
            Finding::SortBound { share } => format!(
                "sort holds {:.1}% of the critical path — consider a faster sort \
                 or partial reduction upstream",
                share * 100.0
            ),
            Finding::TransferRetryHotspot {
                retries,
                worst_track,
                worst_track_retries,
            } => format!(
                "{retries} transfer retries ({worst_track_retries} on track \
                 {worst_track}) — the fabric is lossy or contended"
            ),
            Finding::Alert {
                rule,
                at_s,
                value,
                threshold,
            } => format!(
                "alert rule {rule} fired at {at_s:.6}s: observed {value} \
                 against threshold {threshold}"
            ),
        }
    }
}

/// Complete analysis of one recorded job.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// Latest span end (simulated seconds); 0 for an empty snapshot.
    pub makespan_s: f64,
    /// Critical path, earliest segment first; contributions sum to the
    /// makespan.
    pub critical_path: Vec<PathSegment>,
    /// Seconds of critical path charged to each stage.
    pub stage_s: BTreeMap<Stage, f64>,
    /// Stage holding the largest critical-path share.
    pub bounding_stage: Stage,
    /// That stage's share of the makespan, in `[0, 1]`.
    pub bounding_share: f64,
    /// Per-rank activity, ordered by track index.
    pub ranks: Vec<RankActivity>,
    /// Coefficient of variation (stddev / mean) of per-rank busy time.
    pub imbalance_cv: f64,
    /// Map/send overlap, when any sends were recorded on rank tracks.
    pub overlap: Option<OverlapStats>,
    /// Diagnostics that crossed their thresholds.
    pub findings: Vec<Finding>,
}

/// Analyze a snapshot. Container spans are left out of all accounting:
/// they wrap their children and would count twice.
pub fn analyze(snap: &TelemetrySnapshot) -> Analysis {
    let spans: Vec<&SpanRecord> = snap
        .spans
        .iter()
        .filter(|s| !SpanKind::from_name(&s.kind).is_some_and(SpanKind::is_container))
        .collect();
    let makespan_s = spans.iter().map(|s| s.end_s).fold(0.0, f64::max);

    let critical_path = critical_path(&spans, makespan_s);
    let mut stage_s: BTreeMap<Stage, f64> = BTreeMap::new();
    for seg in &critical_path {
        *stage_s.entry(seg.stage).or_insert(0.0) += seg.contribution_s;
    }
    let (bounding_stage, bounding_secs) = stage_s
        .iter()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(s, v)| (*s, *v))
        .unwrap_or((Stage::Other, 0.0));
    let bounding_share = if makespan_s > 0.0 {
        bounding_secs / makespan_s
    } else {
        0.0
    };

    let ranks = rank_activity(snap, &spans, makespan_s);
    let imbalance_cv = coefficient_of_variation(ranks.iter().map(|r| r.busy_s));
    let overlap = overlap_stats(&spans, &ranks);

    let findings = find_findings(makespan_s, &stage_s, &ranks, overlap, snap, &spans);

    Analysis {
        makespan_s,
        critical_path,
        stage_s,
        bounding_stage,
        bounding_share,
        ranks,
        imbalance_cv,
        overlap,
        findings,
    }
}

/// Backward-greedy longest chain: from the latest-ending span, repeatedly
/// hop to the latest-ending span that finishes by the current one's start.
fn critical_path(spans: &[&SpanRecord], makespan_s: f64) -> Vec<PathSegment> {
    if spans.is_empty() {
        return Vec::new();
    }
    let eps = makespan_s.abs() * 1e-9 + 1e-15;
    let mut cur = spans[0];
    for s in &spans[1..] {
        if s.end_s > cur.end_s + eps
            || ((s.end_s - cur.end_s).abs() <= eps && (s.track, s.id) < (cur.track, cur.id))
        {
            cur = s;
        }
    }

    let mut visited: BTreeSet<u64> = BTreeSet::new();
    visited.insert(cur.id);
    let mut chain: Vec<&SpanRecord> = vec![cur];
    while cur.start_s > eps {
        let mut best: Option<&SpanRecord> = None;
        for s in spans {
            if visited.contains(&s.id) || s.end_s > cur.start_s + eps {
                continue;
            }
            let better = match best {
                None => true,
                Some(b) => {
                    if s.end_s > b.end_s + eps {
                        true
                    } else if (s.end_s - b.end_s).abs() <= eps {
                        // Tie on end time: prefer the current span's own
                        // track (the true local dependency), then the
                        // lowest (track, id) for determinism.
                        let s_local = s.track == cur.track;
                        let b_local = b.track == cur.track;
                        s_local && !b_local
                            || (s_local == b_local && (s.track, s.id) < (b.track, b.id))
                    } else {
                        false
                    }
                }
            };
            if better {
                best = Some(s);
            }
        }
        match best {
            Some(p) => {
                visited.insert(p.id);
                chain.push(p);
                cur = p;
            }
            None => break,
        }
    }
    chain.reverse();

    let mut segments = Vec::with_capacity(chain.len());
    let mut prev_end = 0.0f64;
    for s in chain {
        let contribution = (s.end_s - prev_end).max(0.0);
        segments.push(PathSegment {
            span_id: s.id,
            track: s.track,
            kind: s.kind.clone(),
            stage: Stage::of_kind(&s.kind),
            start_s: s.start_s,
            end_s: s.end_s,
            contribution_s: contribution,
        });
        prev_end = prev_end.max(s.end_s);
    }
    segments
}

/// Merge intervals and return total covered length.
fn union_len(mut iv: Vec<(f64, f64)>) -> f64 {
    iv.retain(|(a, b)| b > a);
    iv.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

/// A track is a rank lane if it is named like one, or (unnamed) carries any
/// non-fabric span. NIC lanes only ever carry `NetSend` spans.
fn is_rank_track(snap: &TelemetrySnapshot, track: u32, spans: &[&SpanRecord]) -> bool {
    if let Some(name) = snap.tracks.get(&track) {
        return name.starts_with("rank");
    }
    spans
        .iter()
        .any(|s| s.track == track && s.kind != SpanKind::NetSend.name())
}

fn rank_activity(
    snap: &TelemetrySnapshot,
    spans: &[&SpanRecord],
    makespan_s: f64,
) -> Vec<RankActivity> {
    let mut tracks: BTreeSet<u32> = snap.tracks.keys().copied().collect();
    tracks.extend(spans.iter().map(|s| s.track));
    let mut out = Vec::new();
    for track in tracks {
        if !is_rank_track(snap, track, spans) {
            continue;
        }
        let mut busy = Vec::new();
        let mut active = Vec::new();
        let mut finish_s = 0.0f64;
        for s in spans.iter().filter(|s| s.track == track) {
            finish_s = finish_s.max(s.end_s);
            let iv = (s.start_s, s.end_s);
            active.push(iv);
            if Stage::of_kind(&s.kind) != Stage::Recovery {
                busy.push(iv);
            }
        }
        let busy_s = union_len(busy);
        let active_s = union_len(active);
        let blocked_s = (active_s - busy_s).max(0.0);
        out.push(RankActivity {
            track,
            name: snap.tracks.get(&track).cloned().unwrap_or_default(),
            busy_s,
            blocked_s,
            idle_s: (makespan_s - active_s).max(0.0),
            finish_s,
        });
    }
    out
}

fn coefficient_of_variation(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    if v.is_empty() {
        return 0.0;
    }
    let mean = v.iter().sum::<f64>() / v.len() as f64;
    if mean <= 0.0 {
        return 0.0;
    }
    let var = v.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / v.len() as f64;
    var.sqrt() / mean
}

/// How much of each rank's `Send` time is covered by map compute on the
/// same rank (the paper's map/bin overlap claim). `None` when no sends.
fn overlap_stats(spans: &[&SpanRecord], ranks: &[RankActivity]) -> Option<OverlapStats> {
    let mut send_s = 0.0;
    let mut overlapped_s = 0.0;
    for r in ranks {
        let map_iv: Vec<(f64, f64)> = spans
            .iter()
            .filter(|s| s.track == r.track && Stage::of_kind(&s.kind) == Stage::Map)
            .map(|s| (s.start_s, s.end_s))
            .collect();
        for s in spans
            .iter()
            .filter(|s| s.track == r.track && s.kind == SpanKind::Send.name())
        {
            send_s += s.duration_s();
            for &(a, b) in &map_iv {
                let lo = s.start_s.max(a);
                let hi = s.end_s.min(b);
                if hi > lo {
                    overlapped_s += hi - lo;
                }
            }
        }
    }
    if send_s > 0.0 {
        Some(OverlapStats {
            send_s,
            overlapped_s,
            ratio: (overlapped_s / send_s).min(1.0),
        })
    } else {
        None
    }
}

/// A rank is a straggler when its active (busy + blocked) time exceeds
/// the mean across ranks by this factor...
const STRAGGLER_FACTOR: f64 = 1.25;
/// ...and by at least this share of the makespan in absolute terms
/// (guards against flagging noise on tiny jobs).
const STRAGGLER_MIN_SHARE: f64 = 0.02;
/// Map/send overlap is only judged when sends total at least this share
/// of the makespan.
const OVERLAP_MIN_SEND_SHARE: f64 = 0.05;
/// Overlap ratio below this flags `PoorOverlap`.
const POOR_OVERLAP_RATIO: f64 = 0.5;
/// Sort's critical-path share above this flags `SortBound`.
const SORT_BOUND_SHARE: f64 = 0.35;
/// Transfer retries at or above this flag `TransferRetryHotspot`.
const RETRY_HOTSPOT_MIN: u64 = 3;

fn find_findings(
    makespan_s: f64,
    stage_s: &BTreeMap<Stage, f64>,
    ranks: &[RankActivity],
    overlap: Option<OverlapStats>,
    snap: &TelemetrySnapshot,
    spans: &[&SpanRecord],
) -> Vec<Finding> {
    let mut findings = Vec::new();

    if ranks.len() >= 2 && makespan_s > 0.0 {
        let mean_active =
            ranks.iter().map(|r| r.busy_s + r.blocked_s).sum::<f64>() / ranks.len() as f64;
        for r in ranks {
            let active = r.busy_s + r.blocked_s;
            if active > mean_active * STRAGGLER_FACTOR
                && active - mean_active > STRAGGLER_MIN_SHARE * makespan_s
            {
                findings.push(Finding::Straggler {
                    rank: r.track,
                    active_s: active,
                    mean_active_s: mean_active,
                });
            }
        }
    }

    if let Some(o) = overlap {
        if o.send_s >= OVERLAP_MIN_SEND_SHARE * makespan_s && o.ratio < POOR_OVERLAP_RATIO {
            findings.push(Finding::PoorOverlap {
                ratio: o.ratio,
                send_s: o.send_s,
            });
        }
    }

    if makespan_s > 0.0 {
        let sort_share = stage_s.get(&Stage::Sort).copied().unwrap_or(0.0) / makespan_s;
        if sort_share > SORT_BOUND_SHARE {
            findings.push(Finding::SortBound { share: sort_share });
        }
    }

    let mut retries_by_track: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.kind == SpanKind::Retry.name()) {
        *retries_by_track.entry(s.track).or_insert(0) += 1;
    }
    let span_retries: u64 = retries_by_track.values().sum();
    let retries = span_retries.max(snap.metrics.counter("engine.transfer_retries"));
    if retries >= RETRY_HOTSPOT_MIN {
        let (worst_track, worst_track_retries) = retries_by_track
            .iter()
            .max_by_key(|(_, n)| **n)
            .map(|(t, n)| (*t, *n))
            .unwrap_or((0, 0));
        findings.push(Finding::TransferRetryHotspot {
            retries,
            worst_track,
            worst_track_retries,
        });
    }

    findings
}

impl Analysis {
    /// Critical-path stage attributions sorted by descending seconds:
    /// `(stage, seconds, share of makespan)`.
    pub fn stage_shares(&self) -> Vec<(Stage, f64, f64)> {
        let mut shares: Vec<(Stage, f64, f64)> = self
            .stage_s
            .iter()
            .map(|(s, v)| {
                let share = if self.makespan_s > 0.0 {
                    v / self.makespan_s
                } else {
                    0.0
                };
                (*s, *v, share)
            })
            .collect();
        shares.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        shares
    }

    /// Stable human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "performance analysis (makespan = {:.6}s)\n",
            self.makespan_s
        );
        out.push_str(&format!(
            "critical path: {} segments, stage shares:\n",
            self.critical_path.len()
        ));
        for (stage, secs, share) in self.stage_shares() {
            out.push_str(&format!(
                "  {stage:<13} {:6.1}%  ({secs:.6}s)\n",
                share * 100.0
            ));
        }
        out.push_str(&format!(
            "bounding stage: {} ({:.1}% of makespan)\n",
            self.bounding_stage,
            self.bounding_share * 100.0
        ));
        if !self.ranks.is_empty() {
            out.push_str("ranks:\n");
            for r in &self.ranks {
                let label = if r.name.is_empty() {
                    format!("track {}", r.track)
                } else {
                    r.name.clone()
                };
                let pct = |v: f64| {
                    if self.makespan_s > 0.0 {
                        v / self.makespan_s * 100.0
                    } else {
                        0.0
                    }
                };
                out.push_str(&format!(
                    "  {label}: busy {:5.1}%  blocked {:5.1}%  idle {:5.1}%  (finish {:.6}s)\n",
                    pct(r.busy_s),
                    pct(r.blocked_s),
                    pct(r.idle_s),
                    r.finish_s
                ));
            }
            out.push_str(&format!(
                "imbalance (CV of busy time): {:.4}\n",
                self.imbalance_cv
            ));
        }
        match self.overlap {
            Some(o) => out.push_str(&format!(
                "map/send overlap: {:.1}% of {:.6}s send time hidden behind map\n",
                o.ratio * 100.0,
                o.send_s
            )),
            None => out.push_str("map/send overlap: no sends recorded\n"),
        }
        if self.findings.is_empty() {
            out.push_str("findings: none\n");
        } else {
            out.push_str("findings:\n");
            for f in &self.findings {
                out.push_str(&format!("  - {}: {}\n", f.code(), f.describe()));
            }
        }
        out
    }

    /// JSON form of the analysis (machine-readable twin of `render_text`).
    pub fn to_value(&self) -> Value {
        let stages = self
            .stage_shares()
            .into_iter()
            .map(|(stage, secs, share)| {
                Value::Obj(vec![
                    ("stage".into(), Value::str(stage.name())),
                    ("seconds".into(), Value::Num(secs)),
                    ("share".into(), Value::Num(share)),
                ])
            })
            .collect();
        let ranks = self
            .ranks
            .iter()
            .map(|r| {
                Value::Obj(vec![
                    ("track".into(), Value::Num(r.track as f64)),
                    ("name".into(), Value::str(r.name.clone())),
                    ("busy_s".into(), Value::Num(r.busy_s)),
                    ("blocked_s".into(), Value::Num(r.blocked_s)),
                    ("idle_s".into(), Value::Num(r.idle_s)),
                    ("finish_s".into(), Value::Num(r.finish_s)),
                ])
            })
            .collect();
        let findings = self
            .findings
            .iter()
            .map(|f| {
                Value::Obj(vec![
                    ("code".into(), Value::str(f.code())),
                    ("detail".into(), Value::str(f.describe())),
                ])
            })
            .collect();
        let mut fields = vec![
            ("makespan_s".into(), Value::Num(self.makespan_s)),
            (
                "critical_path_segments".into(),
                Value::Num(self.critical_path.len() as f64),
            ),
            ("stages".into(), Value::Arr(stages)),
            (
                "bounding_stage".into(),
                Value::str(self.bounding_stage.name()),
            ),
            ("bounding_share".into(), Value::Num(self.bounding_share)),
            ("ranks".into(), Value::Arr(ranks)),
            ("imbalance_cv".into(), Value::Num(self.imbalance_cv)),
        ];
        if let Some(o) = self.overlap {
            fields.push((
                "overlap".into(),
                Value::Obj(vec![
                    ("send_s".into(), Value::Num(o.send_s)),
                    ("overlapped_s".into(), Value::Num(o.overlapped_s)),
                    ("ratio".into(), Value::Num(o.ratio)),
                ]),
            ));
        }
        fields.push(("findings".into(), Value::Arr(findings)));
        Value::Obj(fields)
    }

    /// Rendered JSON document.
    pub fn to_json(&self) -> String {
        self.to_value().render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsSnapshot;
    use crate::span::SpanRecorder;

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
        let rec = SpanRecorder::new(1024);
        for s in spans {
            rec.record(s);
        }
        rec.snapshot(MetricsSnapshot::default())
    }

    #[test]
    fn empty_snapshot_analyzes_to_zero() {
        let a = analyze(&snap_of(vec![]));
        assert_eq!(a.makespan_s, 0.0);
        assert!(a.critical_path.is_empty());
        assert!(a.ranks.is_empty());
        assert!(a.findings.is_empty());
    }

    #[test]
    fn critical_path_tiles_the_makespan() {
        // rank 0: Upload [0,1], Map [1,3]; rank 1: Map [0,2], Sort [3.5,4.5].
        // Path: Upload → Map(r0) → Sort; gap [3,3.5] charged to Sort.
        let a = analyze(&snap_of(vec![
            span(0, "Upload", 0.0, 1.0),
            span(0, "Map", 1.0, 3.0),
            span(1, "Map", 0.0, 2.0),
            span(1, "Sort", 3.5, 4.5),
        ]));
        assert_eq!(a.makespan_s, 4.5);
        let total: f64 = a.critical_path.iter().map(|s| s.contribution_s).sum();
        assert!((total - a.makespan_s).abs() < 1e-12, "{total} vs 4.5");
        let kinds: Vec<&str> = a.critical_path.iter().map(|s| s.kind.as_str()).collect();
        assert_eq!(kinds, ["Upload", "Map", "Sort"]);
        assert!((a.stage_s[&Stage::Sort] - 1.5).abs() < 1e-12);
        assert_eq!(a.bounding_stage, Stage::Map);
        assert!((a.bounding_share - 2.0 / 4.5).abs() < 1e-12);
    }

    #[test]
    fn container_kinds_are_excluded_from_the_path() {
        let a = analyze(&snap_of(vec![
            span(0, "Chunk", 0.0, 5.0),
            span(0, "Map", 0.0, 5.0),
        ]));
        assert_eq!(a.critical_path.len(), 1);
        assert_eq!(a.critical_path[0].kind, "Map");
    }

    #[test]
    fn busy_uses_interval_union_not_sums() {
        // Two fully-overlapping map spans: busy is 2s, not 4s.
        let a = analyze(&snap_of(vec![
            span(0, "Map", 0.0, 2.0),
            span(0, "Map", 0.0, 2.0),
            span(0, "Stall", 2.0, 3.0),
        ]));
        let r = &a.ranks[0];
        assert!((r.busy_s - 2.0).abs() < 1e-12);
        assert!((r.blocked_s - 1.0).abs() < 1e-12);
        assert!((r.idle_s - 0.0).abs() < 1e-12);
        assert!((r.busy_s + r.blocked_s + r.idle_s - a.makespan_s).abs() < 1e-12);
    }

    #[test]
    fn straggler_and_retry_findings_fire() {
        let mut spans = vec![
            span(0, "Map", 0.0, 10.0),
            span(1, "Map", 0.0, 1.0),
            span(2, "Map", 0.0, 1.0),
        ];
        for i in 0..4 {
            spans.push(span(1, "Retry", 1.0 + i as f64, 1.5 + i as f64));
        }
        let a = analyze(&snap_of(spans));
        let codes: Vec<String> = a.findings.iter().map(Finding::code).collect();
        assert!(
            codes.contains(&"Straggler(rank 0)".to_string()),
            "{codes:?}"
        );
        assert!(
            codes.contains(&"TransferRetryHotspot".to_string()),
            "{codes:?}"
        );
    }

    #[test]
    fn sort_bound_and_poor_overlap_fire() {
        let a = analyze(&snap_of(vec![
            span(0, "Map", 0.0, 1.0),
            // Send entirely outside map compute: 0% overlap.
            span(0, "Send", 1.0, 2.0),
            span(0, "Sort", 2.0, 10.0),
        ]));
        let codes: Vec<String> = a.findings.iter().map(Finding::code).collect();
        assert!(codes.contains(&"SortBound".to_string()), "{codes:?}");
        assert!(codes.contains(&"PoorOverlap".to_string()), "{codes:?}");
        let o = a.overlap.unwrap();
        assert_eq!(o.ratio, 0.0);
    }

    #[test]
    fn overlapped_sends_do_not_fire_poor_overlap() {
        let a = analyze(&snap_of(vec![
            span(0, "Map", 0.0, 4.0),
            span(0, "Send", 1.0, 3.0),
        ]));
        let o = a.overlap.unwrap();
        assert!((o.ratio - 1.0).abs() < 1e-12);
        assert!(a.findings.is_empty(), "{:?}", a.findings);
    }

    #[test]
    fn nic_tracks_are_not_ranks() {
        let rec = SpanRecorder::new(64);
        rec.set_track_name(0, "rank 0");
        rec.set_track_name(4, "node 0 NIC");
        rec.record(span(0, "Map", 0.0, 1.0));
        rec.record(span(4, "NetSend", 0.0, 1.0));
        let a = analyze(&rec.snapshot(MetricsSnapshot::default()));
        assert_eq!(a.ranks.len(), 1);
        assert_eq!(a.ranks[0].track, 0);
    }

    #[test]
    fn render_text_and_json_are_consistent() {
        let a = analyze(&snap_of(vec![
            span(0, "Upload", 0.0, 1.0),
            span(0, "Map", 1.0, 3.0),
        ]));
        let text = a.render_text();
        assert!(text.contains("bounding stage: Map"));
        let json = a.to_json();
        let v = crate::json::parse(&json).expect("valid JSON");
        assert_eq!(v.get("bounding_stage").and_then(Value::as_str), Some("Map"));
        let shares = v.get("stages").and_then(Value::as_arr).unwrap();
        let total: f64 = shares
            .iter()
            .filter_map(|s| s.get("share").and_then(Value::as_f64))
            .sum();
        assert!((total - 1.0).abs() < 1e-9, "shares sum to 1, got {total}");
    }

    #[test]
    fn an_alert_finding_names_its_rule_and_evidence() {
        let f = Finding::Alert {
            rule: "deep".into(),
            at_s: 0.25,
            value: 5.0,
            threshold: 2.0,
        };
        assert_eq!(f.code(), "Alert(deep)");
        assert!(f.describe().contains("5"));
    }
}
