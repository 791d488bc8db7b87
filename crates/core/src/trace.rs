//! Job execution traces.
//!
//! A run recorded into an enabled telemetry handle
//! ([`run_job_instrumented`](crate::engine::run_job_instrumented)) holds
//! every pipeline event — chunk uploads, map kernels, partial reductions,
//! downloads, bin sends, chunk steals, sort and reduce phases — with its
//! simulated start/end window; [`JobTrace::from_telemetry`] derives the
//! trace from its snapshot. Traces power debugging ("why is rank 3
//! idle?"), the Gantt renderer below, and tests that assert structural
//! properties of the schedule (overlap, stealing, barrier behaviour).

use std::fmt;

use gpmr_sim_gpu::{SimDuration, SimTime};

/// What a trace event represents.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// Job setup (scheduler/communicator startup).
    Setup,
    /// Chunk upload over PCI-e (host to device).
    Upload,
    /// Map kernel execution (includes accumulate-mode maps).
    Map,
    /// Partial Reduction kernel.
    PartialReduce,
    /// Accumulation-state initialization kernel.
    AccumulateInit,
    /// Partition kernel.
    Partition,
    /// Pair download over PCI-e (device to host).
    Download,
    /// Bin-stage network send (CPU thread; ends at receiver arrival).
    Send,
    /// Global Combine (upload + combine kernel) in combine mode.
    Combine,
    /// Chunk migration from another rank's queue.
    Steal,
    /// Sort stage (upload of received pairs, sort, key dedup).
    Sort,
    /// Reduce stage (chunked reduce kernels + output download).
    Reduce,
    /// Fail-stop GPU loss detected by the scheduler (fault injection).
    GpuLost,
    /// Orphaned chunk migrated off a lost rank onto a survivor.
    Requeue,
    /// Transfer retry backoff after a plan-injected fabric failure.
    Retry,
    /// Injected straggler stall (fault injection).
    Stall,
    /// A GPU joined the running job (elastic add).
    GpuAdded,
    /// Write-ahead journal flush (zero simulated duration; host-side I/O
    /// is never charged to the schedule).
    JournalFlush,
    /// Caller-requested stop (service cancellation or missed deadline):
    /// the engine halted at a chunk boundary and drained its queues.
    Cancelled,
}

impl TraceKind {
    /// Every kind, in pipeline order. Extending the enum without updating
    /// this list is a compile error (see `exhaustive_all` test), which is
    /// what keeps the Gantt legend and exporters complete.
    pub const ALL: [TraceKind; 19] = [
        TraceKind::Setup,
        TraceKind::Upload,
        TraceKind::Map,
        TraceKind::PartialReduce,
        TraceKind::AccumulateInit,
        TraceKind::Partition,
        TraceKind::Download,
        TraceKind::Send,
        TraceKind::Combine,
        TraceKind::Steal,
        TraceKind::Sort,
        TraceKind::Reduce,
        TraceKind::GpuLost,
        TraceKind::Requeue,
        TraceKind::Retry,
        TraceKind::Stall,
        TraceKind::GpuAdded,
        TraceKind::JournalFlush,
        TraceKind::Cancelled,
    ];

    /// One-letter tag used by the Gantt renderer.
    pub fn tag(self) -> char {
        match self {
            TraceKind::Setup => '#',
            TraceKind::Upload => 'u',
            TraceKind::Map => 'M',
            TraceKind::PartialReduce => 'p',
            TraceKind::AccumulateInit => 'a',
            TraceKind::Partition => 't',
            TraceKind::Download => 'd',
            TraceKind::Send => 's',
            TraceKind::Combine => 'C',
            TraceKind::Steal => '!',
            TraceKind::Sort => 'S',
            TraceKind::Reduce => 'R',
            TraceKind::GpuLost => 'X',
            TraceKind::Requeue => 'q',
            TraceKind::Retry => 'r',
            TraceKind::Stall => 'z',
            TraceKind::GpuAdded => '+',
            TraceKind::JournalFlush => 'J',
            TraceKind::Cancelled => 'c',
        }
    }

    /// Stable identifier (the variant name); also the telemetry span kind.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Setup => "Setup",
            TraceKind::Upload => "Upload",
            TraceKind::Map => "Map",
            TraceKind::PartialReduce => "PartialReduce",
            TraceKind::AccumulateInit => "AccumulateInit",
            TraceKind::Partition => "Partition",
            TraceKind::Download => "Download",
            TraceKind::Send => "Send",
            TraceKind::Combine => "Combine",
            TraceKind::Steal => "Steal",
            TraceKind::Sort => "Sort",
            TraceKind::Reduce => "Reduce",
            TraceKind::GpuLost => "GpuLost",
            TraceKind::Requeue => "Requeue",
            TraceKind::Retry => "Retry",
            TraceKind::Stall => "Stall",
            TraceKind::GpuAdded => "GpuAdded",
            TraceKind::JournalFlush => "JournalFlush",
            TraceKind::Cancelled => "Cancelled",
        }
    }

    /// Short human label used in the generated Gantt legend.
    pub fn label(self) -> &'static str {
        match self {
            TraceKind::Setup => "setup",
            TraceKind::Upload => "upload",
            TraceKind::Map => "map",
            TraceKind::PartialReduce => "partial-reduce",
            TraceKind::AccumulateInit => "accum-init",
            TraceKind::Partition => "partition",
            TraceKind::Download => "download",
            TraceKind::Send => "send",
            TraceKind::Combine => "combine",
            TraceKind::Steal => "steal",
            TraceKind::Sort => "sort",
            TraceKind::Reduce => "reduce",
            TraceKind::GpuLost => "gpu-lost",
            TraceKind::Requeue => "requeue",
            TraceKind::Retry => "retry",
            TraceKind::Stall => "stall",
            TraceKind::GpuAdded => "gpu-added",
            TraceKind::JournalFlush => "journal-flush",
            TraceKind::Cancelled => "cancelled",
        }
    }

    /// Inverse of [`TraceKind::name`]; `None` for non-stage span kinds
    /// (container spans like `"Chunk"`, fabric spans like `"NetSend"`).
    pub fn from_name(name: &str) -> Option<TraceKind> {
        TraceKind::ALL.iter().copied().find(|k| k.name() == name)
    }

    /// The full `tag label` legend, generated from [`TraceKind::ALL`] so
    /// every kind — including the fault tags `X`/`q`/`r`/`z` — is always
    /// listed.
    pub fn legend() -> String {
        TraceKind::ALL
            .iter()
            .map(|k| format!("{} {}", k.tag(), k.label()))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

impl fmt::Display for TraceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// One recorded event.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Rank (GPU/process) the event belongs to.
    pub rank: u32,
    /// Event kind.
    pub kind: TraceKind,
    /// Simulated start instant.
    pub start: SimTime,
    /// Simulated end instant.
    pub end: SimTime,
    /// Free-form detail (chunk id, destination rank, pair count, ...).
    pub detail: String,
}

impl TraceEvent {
    /// Event duration.
    pub fn duration(&self) -> SimDuration {
        self.end.since(self.start)
    }
}

/// A full job trace.
#[derive(Clone, Debug, Default)]
pub struct JobTrace {
    /// All events, in recording order.
    pub events: Vec<TraceEvent>,
}

impl JobTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Derive a classic trace from a telemetry snapshot. Spans whose kind
    /// names a [`TraceKind`] become events (rank = telemetry track, detail
    /// = the span's `detail` attribute), in record order; container spans
    /// (`"Chunk"`) and fabric spans (`"NetSend"`) are skipped. Because
    /// spans store simulated seconds as `f64`, the result is bit-identical
    /// to the trace the engine recorded directly before telemetry existed.
    pub fn from_telemetry(snap: &gpmr_telemetry::TelemetrySnapshot) -> Self {
        let mut trace = JobTrace::new();
        for span in &snap.spans {
            if let Some(kind) = TraceKind::from_name(&span.kind) {
                trace.record(
                    span.track,
                    kind,
                    SimTime::from_secs(span.start_s),
                    SimTime::from_secs(span.end_s),
                    span.attr("detail").unwrap_or(""),
                );
            }
        }
        trace
    }

    pub(crate) fn record(
        &mut self,
        rank: u32,
        kind: TraceKind,
        start: SimTime,
        end: SimTime,
        detail: impl Into<String>,
    ) {
        self.events.push(TraceEvent {
            rank,
            kind,
            start,
            end,
            detail: detail.into(),
        });
    }

    /// Events of one rank, in recording order.
    pub fn events_for(&self, rank: u32) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.rank == rank)
    }

    /// Events of one kind.
    pub fn events_of(&self, kind: TraceKind) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.kind == kind)
    }

    /// The latest end instant in the trace.
    pub fn span_end(&self) -> SimTime {
        self.events
            .iter()
            .map(|e| e.end)
            .fold(SimTime::ZERO, SimTime::max)
    }

    /// Render an ASCII Gantt chart, one row per rank, `width` columns of
    /// simulated time. Later events overwrite earlier ones in a cell;
    /// kernels therefore show through the longer transfer windows they
    /// overlap.
    pub fn gantt(&self, ranks: u32, width: usize) -> String {
        let width = width.max(10);
        let end = self.span_end().as_secs();
        if end <= 0.0 {
            return String::from("(empty trace)\n");
        }
        let col = |t: SimTime| {
            (((t.as_secs() / end) * width as f64) as usize).min(width.saturating_sub(1))
        };
        let mut out = String::new();
        // Legend is generated from TraceKind::ALL so new kinds (and the
        // fault tags X/q/r/z) can never be missing; wrap to ~78 columns.
        let header = format!(
            "time 0 .. {:.3} ms ({} columns; legend: {})",
            end * 1e3,
            width,
            TraceKind::legend()
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
            for e in self.events_for(r) {
                let (c0, c1) = (col(e.start), col(e.end).max(col(e.start)));
                for cell in row.iter_mut().take(c1 + 1).skip(c0) {
                    *cell = e.kind.tag();
                }
            }
            out.push_str(&format!("rank {r:>3} |"));
            out.extend(row);
            out.push_str("|\n");
        }
        out
    }

    /// Export all events as CSV (`rank,kind,start_s,end_s,detail`) for
    /// external visualization tools.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("rank,kind,start_s,end_s,detail\n");
        for e in &self.events {
            out.push_str(&format!(
                "{},{:?},{:.9},{:.9},{}\n",
                e.rank,
                e.kind,
                e.start.as_secs(),
                e.end.as_secs(),
                e.detail.replace(',', ";"),
            ));
        }
        out
    }

    /// Aggregate busy time per kind per rank (diagnostics).
    pub fn busy_by_kind(&self, rank: u32, kind: TraceKind) -> SimDuration {
        self.events_for(rank)
            .filter(|e| e.kind == kind)
            .map(TraceEvent::duration)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn sample() -> JobTrace {
        let mut tr = JobTrace::new();
        tr.record(0, TraceKind::Upload, t(0.0), t(0.1), "chunk 0");
        tr.record(0, TraceKind::Map, t(0.1), t(0.4), "chunk 0");
        tr.record(1, TraceKind::Map, t(0.2), t(0.3), "chunk 1");
        tr.record(0, TraceKind::Sort, t(0.5), t(0.8), "");
        tr
    }

    #[test]
    fn filters_and_span() {
        let tr = sample();
        assert_eq!(tr.events_for(0).count(), 3);
        assert_eq!(tr.events_for(1).count(), 1);
        assert_eq!(tr.events_of(TraceKind::Map).count(), 2);
        assert_eq!(tr.span_end(), t(0.8));
        assert!((tr.busy_by_kind(0, TraceKind::Map).as_secs() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn gantt_renders_rows_and_tags() {
        let tr = sample();
        let g = tr.gantt(2, 40);
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
        let tr = JobTrace::new();
        assert_eq!(tr.gantt(4, 40), "(empty trace)\n");
        assert_eq!(tr.span_end(), SimTime::ZERO);
    }

    #[test]
    fn csv_export_has_one_line_per_event() {
        let tr = sample();
        let csv = tr.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + tr.events.len());
        assert!(lines[0].starts_with("rank,kind"));
        assert!(lines[1].contains("Upload"));
        assert!(lines[1].contains("chunk 0"));
    }

    #[test]
    fn tags_are_distinct() {
        let tags: std::collections::HashSet<char> =
            TraceKind::ALL.iter().map(|k| k.tag()).collect();
        assert_eq!(tags.len(), TraceKind::ALL.len());
    }

    /// A new `TraceKind` variant cannot ship without a tag, name, label,
    /// and `ALL` entry: `tag`/`name`/`label` are exhaustive matches (a new
    /// variant is a compile error until handled), and the match below is a
    /// compile error until the variant appears here — while the assertion
    /// fails until it is added to `ALL`.
    #[test]
    fn all_covers_every_variant() {
        fn expected_index(k: TraceKind) -> usize {
            use TraceKind::*;
            match k {
                Setup => 0,
                Upload => 1,
                Map => 2,
                PartialReduce => 3,
                AccumulateInit => 4,
                Partition => 5,
                Download => 6,
                Send => 7,
                Combine => 8,
                Steal => 9,
                Sort => 10,
                Reduce => 11,
                GpuLost => 12,
                Requeue => 13,
                Retry => 14,
                Stall => 15,
                GpuAdded => 16,
                JournalFlush => 17,
                Cancelled => 18,
            }
        }
        for (i, k) in TraceKind::ALL.iter().enumerate() {
            assert_eq!(expected_index(*k), i, "{k} out of place in ALL");
            assert_eq!(TraceKind::from_name(k.name()), Some(*k));
        }
    }

    #[test]
    fn legend_lists_every_tag_including_fault_tags() {
        let legend = TraceKind::legend();
        for k in TraceKind::ALL {
            assert!(
                legend.contains(&format!("{} {}", k.tag(), k.label())),
                "legend missing {k}: {legend}"
            );
        }
        // The fault-injection tags from the fault-tolerance scheduler must
        // be documented in every rendered Gantt header.
        for tag in [
            "X gpu-lost",
            "q requeue",
            "r retry",
            "z stall",
            "+ gpu-added",
            "J journal-flush",
        ] {
            assert!(legend.contains(tag), "legend missing {tag}");
        }
        let mut tr = JobTrace::new();
        tr.record(0, TraceKind::GpuLost, t(0.0), t(0.1), "");
        assert!(tr.gantt(1, 40).contains("X gpu-lost"));
    }

    #[test]
    fn from_telemetry_round_trips_events() {
        use gpmr_telemetry::Telemetry;
        let tel = Telemetry::enabled();
        tel.span(0, "Upload", 0.0, 0.1)
            .attr("detail", "chunk 0")
            .record();
        tel.span(0, "Chunk", 0.0, 0.4).name("chunk 0").record(); // skipped
        tel.span(1, "Map", 0.2, 0.3)
            .attr("detail", "8 pairs")
            .record();
        tel.span(2, "NetSend", 0.0, 0.1).record(); // skipped
        let trace = JobTrace::from_telemetry(&tel.snapshot());
        assert_eq!(trace.events.len(), 2);
        assert_eq!(trace.events[0].kind, TraceKind::Upload);
        assert_eq!(trace.events[0].detail, "chunk 0");
        assert_eq!(trace.events[1].rank, 1);
        assert_eq!(trace.events[1].end, t(0.3));
    }
}
