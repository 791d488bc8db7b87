//! The event vocabulary: every span kind a product path records is one
//! row of the one table below — its stable name (the `kind` string of a
//! [`SpanRecord`](crate::SpanRecord), and the `cat` of its Perfetto
//! event), the [`Stage`] the analyzer attributes it to, the tag and legend
//! label the Gantt chart draws it with, and whether it is a container.
//! Recorders pass [`SpanKind::name`] to [`Telemetry::span`](crate::Telemetry::span);
//! the analyzer and the chart look kinds up here and nowhere else.

use std::fmt;

/// Coarse pipeline stage a span kind belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Job setup (dictionary upload, accumulator init scheduling...).
    Setup,
    /// Host → device chunk transfers.
    Upload,
    /// Map kernels (including accumulate-mode map and accumulator init).
    Map,
    /// GPU-side partial reduction of map output.
    PartialReduce,
    /// Binning: partition, download, combine, and fabric sends.
    Bin,
    /// Keyspace sort on the reducing GPU.
    Sort,
    /// Reduce kernels.
    Reduce,
    /// Fault handling: retries, stalls, requeues, steals, losses.
    Recovery,
    /// Time a submitted job sat in the service queue before dispatch
    /// (multi-tenant job service; see the `gpmr-service` crate).
    QueueWait,
    /// A dispatched service job until its terminal state.
    Run,
    /// Anything not attributed above.
    Other,
}

impl Stage {
    /// Stage for a recorded span kind; [`Stage::Other`] for a name outside
    /// the vocabulary.
    pub fn of_kind(kind: &str) -> Stage {
        SpanKind::from_name(kind).map_or(Stage::Other, SpanKind::stage)
    }

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Setup => "Setup",
            Stage::Upload => "Upload",
            Stage::Map => "Map",
            Stage::PartialReduce => "PartialReduce",
            Stage::Bin => "Bin",
            Stage::Sort => "Sort",
            Stage::Reduce => "Reduce",
            Stage::Recovery => "Recovery",
            Stage::QueueWait => "QueueWait",
            Stage::Run => "Run",
            Stage::Other => "Other",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One kind's row.
struct Row {
    kind: SpanKind,
    name: &'static str,
    stage: Stage,
    /// One-letter tag and legend label; `None` for kinds the Gantt chart
    /// does not draw.
    gantt: Option<(char, &'static str)>,
    container: bool,
}

/// Declares [`SpanKind`] and its table from the same rows, so a kind
/// cannot exist without a row and row `i` is variant `i`.
macro_rules! span_kinds {
    ($($(#[$doc:meta])* $kind:ident = $name:literal, $stage:ident, $gantt:expr, $container:literal;)*) => {
        /// What a recorded span represents.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        pub enum SpanKind {
            $($(#[$doc])* $kind,)*
        }

        const TABLE: &[Row] = &[$(Row {
            kind: SpanKind::$kind,
            name: $name,
            stage: Stage::$stage,
            gantt: $gantt,
            container: $container,
        },)*];
    };
}

// Chart order: the legend lists the drawn kinds as they stand here.
span_kinds! {
    /// Job setup (scheduler/communicator startup).
    Setup = "Setup", Setup, Some(('#', "setup")), false;
    /// Chunk upload over PCI-e (host to device).
    Upload = "Upload", Upload, Some(('u', "upload")), false;
    /// Map kernel execution (includes accumulate-mode maps).
    Map = "Map", Map, Some(('M', "map")), false;
    /// Partial Reduction kernel.
    PartialReduce = "PartialReduce", PartialReduce, Some(('p', "partial-reduce")), false;
    /// Accumulation-state initialization kernel.
    AccumulateInit = "AccumulateInit", Map, Some(('a', "accum-init")), false;
    /// Partition kernel.
    Partition = "Partition", Bin, Some(('t', "partition")), false;
    /// Pair download over PCI-e (device to host).
    Download = "Download", Bin, Some(('d', "download")), false;
    /// Bin-stage network send (CPU thread; ends at receiver arrival).
    Send = "Send", Bin, Some(('s', "send")), false;
    /// Global Combine (upload + combine kernel) in combine mode.
    Combine = "Combine", Bin, Some(('C', "combine")), false;
    /// Chunk migration from another rank's queue.
    Steal = "Steal", Recovery, Some(('!', "steal")), false;
    /// Sort stage (upload of received pairs, sort, key dedup).
    Sort = "Sort", Sort, Some(('S', "sort")), false;
    /// Reduce stage (chunked reduce kernels + output download).
    Reduce = "Reduce", Reduce, Some(('R', "reduce")), false;
    /// Fail-stop GPU loss detected by the scheduler (fault injection).
    GpuLost = "GpuLost", Recovery, Some(('X', "gpu-lost")), false;
    /// Orphaned chunk migrated off a lost rank onto a survivor.
    Requeue = "Requeue", Recovery, Some(('q', "requeue")), false;
    /// Transfer retry backoff after a plan-injected fabric failure.
    Retry = "Retry", Recovery, Some(('r', "retry")), false;
    /// Injected straggler stall (fault injection).
    Stall = "Stall", Recovery, Some(('z', "stall")), false;
    /// A GPU joined the running job (elastic add).
    GpuAdded = "GpuAdded", Other, Some(('+', "gpu-added")), false;
    /// Write-ahead journal flush (zero simulated duration; host-side I/O
    /// is never charged to the schedule).
    JournalFlush = "JournalFlush", Other, Some(('J', "journal-flush")), false;
    /// Caller-requested stop (service cancellation or missed deadline):
    /// the engine halted at a chunk boundary and drained its queues.
    Cancelled = "Cancelled", Recovery, Some(('c', "cancelled")), false;
    /// One chunk's trip through the map pipeline; wraps that chunk's
    /// Upload/Map/PartialReduce/Partition/Download/Send children, so every
    /// accounting skips it.
    Chunk = "Chunk", Other, None, true;
    /// One transfer on a node's NIC lane, recorded by the fabric.
    NetSend = "NetSend", Bin, None, false;
    /// A submitted job's wait in the service queue, on its tenant's track.
    QueueWait = "QueueWait", QueueWait, None, false;
    /// A service job from dispatch to its terminal state.
    Job = "Job", Run, None, false;
    /// One pass of a multi-round job, including its control broadcast, on
    /// the cross-round clock; wraps the pass's engine spans, so every
    /// accounting skips it.
    Round = "Round", Other, None, true;
}

impl SpanKind {
    /// Every kind, in table order.
    pub fn all() -> impl Iterator<Item = SpanKind> {
        TABLE.iter().map(|r| r.kind)
    }

    fn row(self) -> &'static Row {
        &TABLE[self as usize]
    }

    /// Stable identifier: the `kind` of the spans recorded under it.
    pub fn name(self) -> &'static str {
        self.row().name
    }

    /// Inverse of [`SpanKind::name`]; `None` outside the vocabulary.
    pub fn from_name(name: &str) -> Option<SpanKind> {
        TABLE.iter().find(|r| r.name == name).map(|r| r.kind)
    }

    /// The stage the analyzer attributes this kind's time to.
    pub fn stage(self) -> Stage {
        self.row().stage
    }

    /// Whether spans of this kind wrap their children, which would count
    /// twice if the container were counted too.
    pub fn is_container(self) -> bool {
        self.row().container
    }

    /// One-letter Gantt tag; `None` for kinds the chart does not draw.
    pub(crate) fn tag(self) -> Option<char> {
        self.row().gantt.map(|(tag, _)| tag)
    }

    /// The chart's `tag label` legend over every drawn kind.
    pub fn legend() -> String {
        let entries: Vec<String> = TABLE
            .iter()
            .filter_map(|r| r.gantt)
            .map(|(tag, label)| format!("{tag} {label}"))
            .collect();
        entries.join(", ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_and_tags_are_distinct_and_rows_sit_at_their_kind() {
        let names: HashSet<&str> = SpanKind::all().map(SpanKind::name).collect();
        assert_eq!(names.len(), TABLE.len());
        let tags: Vec<char> = SpanKind::all().filter_map(SpanKind::tag).collect();
        assert_eq!(tags.iter().collect::<HashSet<_>>().len(), tags.len());
        for (i, k) in SpanKind::all().enumerate() {
            assert_eq!(k as usize, i);
            assert_eq!(SpanKind::from_name(k.name()), Some(k));
        }
        assert_eq!(SpanKind::from_name("Net\tSend"), None);
    }

    #[test]
    fn legend_is_the_one_every_chart_has_printed() {
        assert_eq!(
            SpanKind::legend(),
            "# setup, u upload, M map, p partial-reduce, a accum-init, t partition, \
             d download, s send, C combine, ! steal, S sort, R reduce, X gpu-lost, \
             q requeue, r retry, z stall, + gpu-added, J journal-flush, c cancelled"
        );
    }

    #[test]
    fn chunk_and_round_are_the_containers_and_unknown_names_are_other() {
        let containers: Vec<SpanKind> = SpanKind::all().filter(|k| k.is_container()).collect();
        assert_eq!(containers, [SpanKind::Chunk, SpanKind::Round]);
        assert_eq!(Stage::of_kind("AccumulateInit"), Stage::Map);
        assert_eq!(Stage::of_kind("NetSend"), Stage::Bin);
        assert_eq!(Stage::of_kind("Job"), Stage::Run);
        assert_eq!(Stage::of_kind("no such kind"), Stage::Other);
    }
}
