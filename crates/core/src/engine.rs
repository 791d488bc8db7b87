//! The GPMR execution engine: a discrete-event simulation of the paper's
//! per-GPU MapReduce pipeline over a whole cluster.
//!
//! One logical process drives each GPU (paper §4). The engine advances the
//! process with the earliest ready-time, so dynamic load balancing, stream
//! overlap (double-buffered chunk uploads against map kernels), and the
//! Map/Bin communication overlap all emerge from the resource timelines:
//!
//! * chunk uploads reserve the (possibly shared) PCI-e link;
//! * map kernels reserve the GPU compute timeline;
//! * pair downloads reserve the PCI-e link's other direction;
//! * Bin sends reserve NIC send/receive engines through the fabric;
//! * Sort and Reduce run per-rank after all inbound pairs arrive.
//!
//! Data is computed for real — the output of [`run_job`] is bit-exact and
//! is verified against CPU references in the application crates.

use std::collections::{HashSet, VecDeque};
use std::ops::Range;

use gpmr_primitives::{
    bitonic_sort_pairs_by, bits_for_radix, extract_segments_into, sort_parts_with_bits, RadixKey,
    Segments, SortPart, SortScratch,
};
use gpmr_sim_gpu::{FaultPlan, Reservation, SimDuration, SimTime};
use gpmr_sim_net::{Cluster, Mailbox};
use gpmr_telemetry::{Counter, Registry, SpanKind, Telemetry};

use crate::error::{EngineError, EngineResult};
use crate::helpers::{charge_partition, combine_pairs, route_into, RouteScratch};
use crate::job::{GpmrJob, MapMode, PartitionMode, PipelineConfig, SortMode};
use crate::journal::{fnv1a, hash_pairs, Fnv64, Journal, JournalRecord, RecordOutcome};
use crate::scheduler::WorkQueues;
use crate::stats::{JobTimings, StageTimes};
use crate::types::KvSet;
use crate::Chunk;

/// Engine policy knobs: scheduler behaviour and fixed-cost calibration.
///
/// These are *software* parameters (the hardware lives in the cluster);
/// the defaults reproduce the paper's measured overheads. Research uses:
/// disable stealing to measure what the dynamic scheduler buys, or zero
/// the overheads to see the ideal-software ceiling.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EngineTuning {
    /// Dynamic load balancing: idle ranks steal chunks from loaded queues
    /// (paper §4.1). Off = static round-robin assignment only.
    pub allow_stealing: bool,
    /// CPU-side scheduler overhead charged per chunk dequeue (queue
    /// management, callback dispatch), in seconds.
    pub sched_overhead_s: f64,
    /// One-time job setup (context creation, scheduler initialization),
    /// charged before the first chunk on every rank, in seconds.
    pub setup_base_s: f64,
    /// Per-rank share of cluster-wide job setup (MPI-style collective
    /// startup and the final barrier grow with the communicator size), in
    /// seconds. Together with the base cost this is the paper's "GPMR
    /// internal / scheduler" floor that erodes efficiency at 64 GPUs on
    /// light jobs.
    pub setup_per_rank_s: f64,
    /// How many times a failing fabric transfer is retried (with capped
    /// exponential backoff) before the job aborts with
    /// [`EngineError::TransferFailed`].
    pub max_transfer_retries: u32,
    /// Depth of the chunk upload pipeline: how many chunk staging buffers
    /// each rank keeps resident. `1` serializes upload behind the previous
    /// map (no overlap), `2` is the classic double buffer, and deeper
    /// values let uploads for chunks N+1..N+k-1 queue on the device's copy
    /// engine while chunk N maps — hiding per-chunk dispatch and PCI-e
    /// latency on upload-bound jobs. Device memory must hold the chunk
    /// `pipeline_depth` times (see [`EngineError::ChunkTooLarge`]).
    pub pipeline_depth: u32,
    /// GPU-direct networking, the what-if hardware of the source paper's
    /// conclusion ("we hope GPU and network vendors work together to allow
    /// sourcing and sinking by the GPU for network I/O ... GPMR would
    /// benefit by moving intermediate data between nodes without having to
    /// route through CPU memory"): intermediate pairs are sourced and sunk
    /// by the GPU, skipping the PCI-e round trips through host memory that
    /// bracket every Bin send and the sort-input upload.
    pub gpu_direct: bool,
}

impl Default for EngineTuning {
    fn default() -> Self {
        EngineTuning {
            allow_stealing: true,
            sched_overhead_s: 30.0e-6,
            setup_base_s: 0.5e-3,
            setup_per_rank_s: 0.25e-3,
            max_transfer_retries: 8,
            pipeline_depth: 4,
            gpu_direct: false,
        }
    }
}

impl EngineTuning {
    /// Staging slots a chunk must fit into device memory simultaneously:
    /// the upload pipeline depth, plus one GPU-direct staging slot when
    /// that mode is on. This is the [`EngineError::ChunkTooLarge`]
    /// admission formula; the job service reuses it for memory admission
    /// control before a job ever reaches the engine.
    pub fn staging_slots(&self) -> u64 {
        u64::from(self.pipeline_depth.max(1)) + u64::from(self.gpu_direct)
    }
}

/// The outcome of one GPMR job.
#[derive(Debug)]
pub struct JobResult<K, V> {
    /// Final pairs produced on each rank (reducer output, or binned map
    /// output for jobs that bypass sort+reduce).
    pub outputs: Vec<KvSet<K, V>>,
    /// Timing statistics.
    pub timings: JobTimings,
}

impl<K: crate::types::Key, V: crate::types::Value> JobResult<K, V> {
    /// All output pairs concatenated in rank order (copied; the per-rank
    /// outputs stay available). See [`JobResult::into_merged_output`] for
    /// the owning variant that avoids the copy.
    pub fn merged_output(&self) -> KvSet<K, V> {
        let total: usize = self.outputs.iter().map(KvSet::len).sum();
        let mut out = KvSet::with_capacity(total);
        for o in &self.outputs {
            out.extend_from_set(o);
        }
        out
    }

    /// Consume the result, concatenating all output pairs in rank order
    /// without copying rank 0's (usually dominant) buffer when it is the
    /// only one.
    pub fn into_merged_output(self) -> KvSet<K, V> {
        let total: usize = self.outputs.iter().map(KvSet::len).sum();
        let mut outputs = self.outputs.into_iter();
        let mut out = outputs.next().unwrap_or_default();
        out.reserve(total - out.len());
        for o in outputs {
            out.append(o);
        }
        out
    }

    /// The job makespan.
    pub fn total_time(&self) -> SimDuration {
        self.timings.total
    }
}

#[derive(Clone, Debug)]
struct RankState<K, V, C> {
    cursor: SimTime,
    /// Earliest instant kernels may run (job setup done, and in accumulate
    /// mode the accumulator initialized). Uploads may start earlier.
    compute_ready: SimTime,
    /// When this rank's setup charge ends (the cluster-wide setup for
    /// initial ranks; join instant plus local setup for elastic adds).
    /// Stage accounting measures Map from here.
    setup_end: SimTime,
    /// Join instant of a scheduled elastic add that has not joined yet;
    /// taken the first time the scheduler picks the rank. Such ranks take
    /// no part in the initial distribution and are excluded from the
    /// reducer set, so the shuffle destinations — and therefore the
    /// per-rank outputs — are identical to a run on the initial cluster
    /// alone; added GPUs contribute map throughput by stealing.
    join_at: Option<SimTime>,
    /// When the fault plan fail-stops this rank's GPU. Read, like the
    /// stalls, at the scheduler's touch-points (chunk dispatch, chunk
    /// commit, sort readiness); transfer faults are applied inside
    /// `Run::transfer`.
    kill_at: Option<SimTime>,
    /// Injected stalls not applied yet, in schedule order.
    stalls: VecDeque<(SimTime, SimDuration)>,
    /// Map-end instants of chunks whose staging buffer is still occupied;
    /// an upload for a new chunk gates on the oldest entry once all
    /// `pipeline_depth` buffers are in flight.
    inflight: VecDeque<SimTime>,
    last_map_end: SimTime,
    last_d2h: SimTime,
    bin_done: SimTime,
    sort_ready: SimTime,
    sort_done: SimTime,
    reduce_done: SimTime,
    chunks_done: u32,
    accum: Option<KvSet<K, V>>,
    store: KvSet<K, V>,
    active: bool,
    /// False once the rank's GPU has been lost to an injected fault.
    alive: bool,
    /// Chunks already folded into this rank's GPU-resident accumulate
    /// state. Retained only when the fault plan schedules a kill for this
    /// rank in accumulate mode: the state dies with the device, so these
    /// must be rerun on survivors.
    processed: Vec<(u64, C)>,
}

impl<K: crate::types::Key, V: crate::types::Value, C> RankState<K, V, C> {
    /// Rank `r`, whose host may dispatch from `cursor` and whose setup
    /// charge ends at `setup_end`, under the cluster's fault `plan`.
    fn new(cursor: SimTime, setup_end: SimTime, plan: Option<&FaultPlan>, r: u32) -> Self {
        RankState {
            cursor,
            compute_ready: setup_end,
            setup_end,
            join_at: plan.and_then(|p| p.add_time(r)),
            kill_at: plan.and_then(|p| p.kill_time(r)),
            stalls: plan.map_or_else(VecDeque::new, |p| p.stalls_for(r).into()),
            inflight: VecDeque::new(),
            last_map_end: SimTime::ZERO,
            last_d2h: SimTime::ZERO,
            bin_done: SimTime::ZERO,
            sort_ready: SimTime::ZERO,
            sort_done: SimTime::ZERO,
            reduce_done: SimTime::ZERO,
            chunks_done: 0,
            accum: None,
            store: KvSet::new(),
            active: true,
            alive: true,
            processed: Vec::new(),
        }
    }
}

/// Everything a run takes beyond the cluster, the job and its chunks.
/// `RunOpts::default()` is what [`run_job`] passes: default tuning,
/// telemetry off, no journal, every input uploaded.
#[derive(Default)]
pub struct RunOpts<'j> {
    /// Scheduler policy and overhead calibration.
    pub tuning: EngineTuning,
    /// Where chunk and stage spans, queue-depth samples and `engine.*`
    /// counters go; the cluster's devices and fabric are attached for
    /// `gpu.*` and `fabric.*` metrics. A disabled handle costs nothing.
    pub tel: Telemetry,
    /// Write-ahead journal: every scheduling decision and stage commit is
    /// verified against (on resume) or appended to it, so an interrupted
    /// run restarted with [`Journal::resume`] finishes bit-identically.
    /// Journaling charges no simulated time.
    pub journal: Option<&'j mut Journal>,
    /// The input chunks are already resident in device memory on the rank
    /// that dequeues them (chained rounds of [`run_rounds`](crate::run_rounds): round k's
    /// reduce output never left the cluster, so round k+1's map reads it
    /// in place). Chunks that *move* ranks — steals and fault-plan
    /// requeues — are displaced from their home device and pay the full
    /// H2D upload as usual; only stationary chunks skip it. The caller is
    /// responsible for the claim being true (`run_rounds` checks a
    /// per-rank fit bound before setting this).
    pub inputs_resident: bool,
}

/// An `engine.*` counter with its value at job start. Counters are always
/// real (a private registry backs a disabled handle), so [`JobTimings`]
/// reads them in every mode, and a registry shared across jobs still
/// yields per-job numbers via [`JobCounter::delta`].
struct JobCounter {
    counter: Counter,
    base: u64,
}

impl JobCounter {
    fn new(reg: &Registry, name: &str) -> Self {
        let counter = reg.counter(name);
        let base = counter.get();
        JobCounter { counter, base }
    }

    fn inc(&self) {
        self.counter.inc();
    }

    fn add(&self, n: u64) {
        self.counter.add(n);
    }

    /// How much this job added.
    fn delta(&self) -> u64 {
        self.counter.get().saturating_sub(self.base)
    }
}

/// Everything a run records without charging simulated time: the
/// caller's [`Telemetry`] handle (spans and counter samples), the job's
/// `engine.*` counters, and the journal counters of a journaled run.
struct EngineTel {
    tel: Telemetry,
    jctx: Option<JournalCtx>,
    dispatched: JobCounter,
    stolen: JobCounter,
    requeued: JobCounter,
    gpus_lost: JobCounter,
    retries: JobCounter,
    stalls: JobCounter,
    pairs_emitted: JobCounter,
    pairs_shuffled: JobCounter,
    gpus_added: JobCounter,
}

impl EngineTel {
    fn new(tel: Telemetry, journaled: bool) -> Self {
        let reg = tel.registry().cloned().unwrap_or_else(Registry::new);
        EngineTel {
            jctx: journaled.then(|| JournalCtx {
                records: reg.counter("engine.journal_records"),
                replayed: reg.counter("engine.journal_replayed"),
                flushes: reg.counter("engine.journal_flushes"),
            }),
            dispatched: JobCounter::new(&reg, "engine.chunks_dispatched"),
            stolen: JobCounter::new(&reg, "engine.chunks_stolen"),
            requeued: JobCounter::new(&reg, "engine.chunks_requeued"),
            gpus_lost: JobCounter::new(&reg, "engine.gpus_lost"),
            retries: JobCounter::new(&reg, "engine.transfer_retries"),
            stalls: JobCounter::new(&reg, "engine.stalls_injected"),
            pairs_emitted: JobCounter::new(&reg, "engine.pairs_emitted"),
            pairs_shuffled: JobCounter::new(&reg, "engine.pairs_shuffled"),
            gpus_added: JobCounter::new(&reg, "engine.gpus_added"),
            tel,
        }
    }

    /// Record a pipeline stage event as a span on the rank's track. The
    /// `detail` closure only runs when telemetry is enabled.
    fn event(
        &self,
        rank: u32,
        kind: SpanKind,
        start: SimTime,
        end: SimTime,
        detail: impl FnOnce() -> String,
    ) {
        self.child_event(rank, kind, start, end, 0, detail);
    }

    /// [`EngineTel::event`] under a parent chunk span (0 = no parent).
    fn child_event(
        &self,
        rank: u32,
        kind: SpanKind,
        start: SimTime,
        end: SimTime,
        parent: u64,
        detail: impl FnOnce() -> String,
    ) {
        if !self.tel.is_enabled() {
            return;
        }
        self.tel
            .span(rank, kind.name(), start.as_secs(), end.as_secs())
            .parent(parent)
            .attr_with("detail", detail)
            .record();
    }

    /// Record a chunk's container span under a pre-reserved id.
    fn chunk_span(&self, rank: u32, id: u64, chunk_id: u64, start: SimTime, end: SimTime) {
        if id == 0 {
            return;
        }
        self.tel
            .span(rank, SpanKind::Chunk.name(), start.as_secs(), end.as_secs())
            .id(id)
            .name(format!("chunk {chunk_id}"))
            .attr("chunk", chunk_id.to_string())
            .record();
    }

    /// Count a chunk dispatch and sample the rank's queue depth.
    fn dispatch(&self, rank: u32, at: SimTime, depth: usize) {
        self.dispatched.inc();
        self.tel
            .sample(rank, "queue_depth", at.as_secs(), depth as f64);
    }
}

/// The `engine.journal_*` counters of a journaled run. Plain runs carry
/// none, so they do no hashing, no I/O, and no extra counter work —
/// journal-less runs stay byte-identical in timing and output to an
/// engine without the journal.
struct JournalCtx {
    /// `engine.journal_records` — records verified or appended.
    records: Counter,
    /// `engine.journal_replayed` — records verified against the prefix.
    replayed: Counter,
    /// `engine.journal_flushes` — disk flushes performed.
    flushes: Counter,
}

/// What a [`Run`] borrows for one call and keeps none of between calls:
/// the cluster it runs on, the job, and the journal of a journaled run.
struct Cx<'a, J> {
    cluster: &'a mut Cluster,
    job: &'a J,
    journal: Option<&'a mut Journal>,
}

impl<'a, J> Cx<'a, J> {
    fn new(cluster: &'a mut Cluster, job: &'a J, journal: Option<&'a mut Journal>) -> Self {
        Cx {
            cluster,
            job,
            journal,
        }
    }

    /// Verify-or-append one journal record. `rec` only runs on journaled
    /// runs, so the content hashes inside it cost plain runs nothing. A
    /// flush is recorded as a zero-duration `JournalFlush` span at the
    /// commit instant.
    fn journal(
        &mut self,
        tel: &EngineTel,
        rank: u32,
        at: SimTime,
        rec: impl FnOnce() -> JournalRecord,
    ) -> EngineResult<()> {
        let (Some(journal), Some(ctx)) = (self.journal.as_deref_mut(), &tel.jctx) else {
            return Ok(());
        };
        let outcome = journal.record(&rec())?;
        match outcome {
            RecordOutcome::Replayed => ctx.replayed.inc(),
            RecordOutcome::Buffered | RecordOutcome::Flushed => ctx.records.inc(),
        }
        if outcome == RecordOutcome::Flushed {
            ctx.flushes.inc();
            let on_disk = journal.replay_len() + journal.appended();
            tel.event(rank, SpanKind::JournalFlush, at, at, || {
                format!("{on_disk} record(s) durable")
            });
        }
        Ok(())
    }
}

/// `" (on rank {exec})"` when a lost rank's stage ran elsewhere.
fn exec_note(r: u32, exec: u32) -> String {
    if exec == r {
        String::new()
    } else {
        format!(" (on rank {exec})")
    }
}

/// Run `job` over `chunks` on `cluster`, returning per-rank outputs and
/// the timing breakdown. Clocks are reset at entry so results of
/// consecutive jobs on one cluster are independent.
pub fn run_job<J: GpmrJob>(
    cluster: &mut Cluster,
    job: &J,
    chunks: Vec<J::Chunk>,
) -> EngineResult<JobResult<J::Key, J::Value>> {
    run_job_with(cluster, job, chunks, RunOpts::default())
}

/// [`run_job`] with explicit tuning, recording into `tel` (see
/// [`RunOpts::tel`]). Snapshot the handle afterwards for export,
/// `telemetry::export::gantt` or `telemetry::analyze`.
pub fn run_job_instrumented<J: GpmrJob>(
    cluster: &mut Cluster,
    job: &J,
    chunks: Vec<J::Chunk>,
    tuning: &EngineTuning,
    tel: &Telemetry,
) -> EngineResult<JobResult<J::Key, J::Value>> {
    let opts = RunOpts {
        tuning: *tuning,
        tel: tel.clone(),
        ..RunOpts::default()
    };
    run_job_with(cluster, job, chunks, opts)
}

/// [`run_job_instrumented`] with a write-ahead [`Journal`] (see
/// [`RunOpts::journal`]).
pub fn run_job_journaled<J: GpmrJob>(
    cluster: &mut Cluster,
    job: &J,
    chunks: Vec<J::Chunk>,
    tuning: &EngineTuning,
    tel: &Telemetry,
    journal: &mut Journal,
) -> EngineResult<JobResult<J::Key, J::Value>> {
    let opts = RunOpts {
        tuning: *tuning,
        tel: tel.clone(),
        journal: Some(journal),
        ..RunOpts::default()
    };
    run_job_with(cluster, job, chunks, opts)
}

/// The engine's one general entry point; [`run_job`],
/// [`run_job_instrumented`] and [`run_job_journaled`] are conveniences
/// over it, and it is [`Run::new`] followed by [`Run::finish`].
pub fn run_job_with<J: GpmrJob>(
    cluster: &mut Cluster,
    job: &J,
    chunks: Vec<J::Chunk>,
    mut opts: RunOpts<'_>,
) -> EngineResult<JobResult<J::Key, J::Value>> {
    Run::new(cluster, job, chunks, &mut opts)?.finish(cluster, job, opts.journal)
}

/// A dequeued chunk whose upload is reserved: what the map stage needs.
struct Staged<C> {
    id: u64,
    chunk: C,
    /// Upload start: where the chunk's span opens and where the host is
    /// free to dispatch again.
    up_start: SimTime,
    /// Earliest map start: upload done and kernels allowed.
    ready: SimTime,
    /// Pre-reserved id of the chunk's container span (0 = telemetry off).
    span: u64,
}

/// One job run that can stop where it stands. [`Run::new`] sets the job
/// up; [`Run::step_until`] runs the map stage's scheduler picks up to an
/// instant, as often as the caller likes, without changing what the run
/// computes; then either [`Run::finish`] runs it to the end or
/// [`Run::cancel`] stops it at a chunk boundary. A run borrows nothing:
/// each call takes the cluster, the job and the journal, which must be
/// the ones it was started with.
pub struct Run<J: GpmrJob> {
    cfg: PipelineConfig,
    tuning: EngineTuning,
    tel: EngineTel,
    inputs_resident: bool,
    /// Where the engine last met the simulated clock: the cursor of the
    /// latest scheduler pick, or the GPU loss that pick found.
    clock: SimTime,
    st: Vec<RankState<J::Key, J::Value, J::Chunk>>,
    queues: WorkQueues<(u64, J::Chunk)>,
    /// Everything shuffled so far, one growing arena per reducer
    /// (`inbox[i]` belongs to rank `reducers[i]`): Bin writes each pair
    /// here once and the reducer sorts it from here.
    inbox: Vec<KvSet<J::Key, J::Value>>,
    /// Which piece of its inbox each delivery is, and when it arrived.
    mailbox: Mailbox<Bucket>,
    route_scratch: RouteScratch,
    /// Chunk ids that moved off their home rank (steals, fault-plan
    /// requeues): under `RunOpts::inputs_resident` these still pay the
    /// full upload — residency only holds where the chunk was born.
    displaced: HashSet<u64>,
    /// The ranks that started the job (no pending elastic add).
    reducers: Vec<u32>,
    depth: usize,
    gpu_direct: bool,
    /// Every staging slot of the upload pipeline must fit on the device at
    /// once, plus one slot of GPU-direct staging (pairs parked in device
    /// memory for the NIC to source).
    staging_slots: u64,
    n_chunks: u64,
}

impl<J: GpmrJob> Run<J> {
    /// Validate the job against the cluster, open the journal with the
    /// job fingerprint, distribute the chunks and charge job setup.
    /// Clocks are reset, so runs one after another on a cluster are
    /// independent, and the cluster's devices and fabric record into
    /// `opts.tel` — or, when it is disabled, into nothing. `opts.journal`
    /// is borrowed for the fingerprint; every later call takes it again.
    pub fn new(
        cluster: &mut Cluster,
        job: &J,
        chunks: Vec<J::Chunk>,
        opts: &mut RunOpts<'_>,
    ) -> EngineResult<Self> {
        let tuning = opts.tuning;
        let tel = EngineTel::new(opts.tel.clone(), opts.journal.is_some());
        let cfg = job.pipeline();
        cfg.validate().map_err(EngineError::InvalidPipeline)?;
        let ranks = cluster.size();
        let gpu_direct = tuning.gpu_direct;
        let depth = tuning.pipeline_depth.max(1) as usize;
        cluster.reset_clocks();
        cluster.attach_telemetry(&tel.tel);

        let staging_slots = tuning.staging_slots();
        let capacity = cluster.gpu(0).mem.capacity();
        for c in &chunks {
            if c.size_bytes().saturating_mul(staging_slots) > capacity {
                return Err(EngineError::ChunkTooLarge {
                    bytes: c.size_bytes(),
                    capacity,
                    slots: staging_slots,
                });
            }
        }

        let plan = cluster.fault_plan().cloned();
        let join_at = |r: u32| plan.as_ref().and_then(|p| p.add_time(r));
        if let Some(p) = plan.as_ref() {
            if let Some(r) = p.added_ranks().into_iter().find(|&r| r >= ranks) {
                return Err(EngineError::InvalidPipeline(format!(
                    "fault plan adds rank {r} but the cluster has only {ranks} GPUs"
                )));
            }
        }
        let reducers: Vec<u32> = (0..ranks).filter(|&r| join_at(r).is_none()).collect();
        if reducers.is_empty() {
            return Err(EngineError::InvalidPipeline(
                "fault plan defers every GPU with an add event; no rank can start the job".into(),
            ));
        }

        // Chunks carry their original index as a canonical id: requeues and
        // steals change *which rank* processes a chunk, never its identity, so
        // receivers can order inbound buckets identically across fault plans.
        let n_chunks = chunks.len() as u64;
        let ids: Vec<(u64, J::Chunk)> = (0u64..).zip(chunks).collect();
        let mut cx = Cx::new(&mut *cluster, job, opts.journal.as_deref_mut());
        cx.journal(&tel, 0, SimTime::ZERO, || {
            // Job fingerprint: everything that shapes the schedule and the
            // data. A resume against a journal written by a different job (or
            // the same job on a different cluster shape) diverges on record 0
            // instead of replaying garbage.
            let mut fp = Fnv64::new();
            fp.write_u64(u64::from(ranks));
            fp.write_u64(reducers.len() as u64);
            for &r in &reducers {
                fp.write_u64(u64::from(r));
            }
            fp.write_u64(n_chunks);
            fp.write_u64(depth as u64);
            fp.write_u64(u64::from(gpu_direct));
            cfg.fingerprint(&mut fp);
            for (_, c) in &ids {
                fp.write_u64(fnv1a(&c.serialize()));
            }
            JournalRecord::JobStart {
                fingerprint: fp.finish(),
                n_chunks,
                ranks,
                reducers: reducers.len() as u32,
            }
        })?;
        let queues = WorkQueues::distribute_on(ids, ranks, &reducers);
        let setup =
            SimTime::from_secs(tuning.setup_base_s + tuning.setup_per_rank_s * f64::from(ranks));
        // Uploads are host-driven DMA enqueues: with a pipelined engine they
        // start once the local context exists (base setup), overlapping the
        // cluster-wide collective startup. Kernels still wait for full setup
        // (`compute_ready`). Depth 1 keeps the legacy serialized start.
        let upload_ready = if depth >= 2 {
            SimTime::from_secs(tuning.setup_base_s)
        } else {
            setup
        };
        let mut st: Vec<RankState<J::Key, J::Value, J::Chunk>> = (0..ranks)
            .map(|r| {
                let (cursor, setup_end) = match join_at(r) {
                    // Initial ranks pay the cluster-wide collective setup.
                    None => (upload_ready, setup),
                    // Elastic adds pay only their local context creation, starting
                    // at the join instant; the collective already happened.
                    Some(join) => (join, join + SimDuration::from_secs(tuning.setup_base_s)),
                };
                RankState::new(cursor, setup_end, plan.as_ref(), r)
            })
            .collect();
        for &r in &reducers {
            tel.event(r, SpanKind::Setup, SimTime::ZERO, setup, || {
                "job setup".into()
            });
        }
        if cfg.map_mode == MapMode::Accumulate {
            for &r in &reducers {
                let (state, t) = job.accumulate_init(cluster.gpu(r), setup)?;
                tel.event(r, SpanKind::AccumulateInit, setup, t, || {
                    "accumulate init".into()
                });
                let s = &mut st[r as usize];
                s.accum = Some(state);
                // Chunk uploads may overlap the init kernel; maps may not.
                s.compute_ready = s.compute_ready.max(t);
            }
        }
        Ok(Run {
            inbox: reducers.iter().map(|_| KvSet::new()).collect(),
            mailbox: Mailbox::new(ranks),
            route_scratch: RouteScratch::default(),
            cfg,
            tuning,
            tel,
            inputs_resident: opts.inputs_resident,
            clock: SimTime::ZERO,
            st,
            queues,
            displaced: HashSet::new(),
            reducers,
            depth,
            gpu_direct,
            staging_slots,
            n_chunks,
        })
    }

    fn ranks(&self) -> u32 {
        self.st.len() as u32
    }

    /// The rank whose GPU runs rank `r`'s post-map stages: `r`, or once
    /// its GPU is lost the next live rank cyclically past it.
    fn exec_rank(&self, r: u32) -> u32 {
        let n = self.ranks();
        (0..n)
            .map(|i| (r + i) % n)
            .find(|&x| self.st[x as usize].alive)
            .expect("a live rank exists")
    }

    /// Run the map stage's scheduler picks while the earliest active
    /// rank's cursor is before `t`. The ranks it stops at stay active, so
    /// a later call continues the same pick sequence: stepping in any
    /// increments computes what one call to [`Run::finish`] computes.
    /// Returns whether the map stage is over.
    pub fn step_until(
        &mut self,
        cluster: &mut Cluster,
        job: &J,
        journal: Option<&mut Journal>,
        t: SimTime,
    ) -> EngineResult<bool> {
        self.map_until(&mut Cx::new(cluster, job, journal), t)
    }

    /// [`Run::step_until`] over what one call borrows. Once every pick
    /// left could only retire its rank, the map stage is over whatever the
    /// cursors: a caller stepping toward the finish instant learns of it
    /// from the picks that do work, not from idle ranks' cursors (a job
    /// with no chunks ends at zero, before any rank's first pick).
    fn map_until(&mut self, cx: &mut Cx<J>, t: SimTime) -> EngineResult<bool> {
        while let Some(r) = (0..self.ranks())
            .filter(|&r| self.st[r as usize].active)
            .min_by(|&a, &b| {
                self.st[a as usize]
                    .cursor
                    .partial_cmp(&self.st[b as usize].cursor)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            })
        {
            if self.queues.remaining(r) == 0 && self.idle() {
                self.st.iter_mut().for_each(|s| s.active = false);
                break;
            }
            if self.st[r as usize].cursor >= t {
                return Ok(false);
            }
            self.dispatch(cx, r)?;
        }
        Ok(true)
    }

    /// No chunk is queued anywhere and no active rank has a stall, a GPU
    /// loss or a join due at its cursor: a pick could only retire a rank.
    fn idle(&self) -> bool {
        let due = |s: &RankState<_, _, _>| {
            s.stalls.front().is_some_and(|&(at, _)| at <= s.cursor)
                || s.kill_at.is_some_and(|k| k <= s.cursor)
                || s.join_at.is_some()
        };
        self.queues.total_remaining() == 0 && !self.st.iter().any(|s| s.active && due(s))
    }

    /// Run the job to the end: the rest of the map stage, then Bin, Sort
    /// and Reduce. Returns per-rank outputs and the timing breakdown.
    pub fn finish(
        mut self,
        cluster: &mut Cluster,
        job: &J,
        journal: Option<&mut Journal>,
    ) -> EngineResult<JobResult<J::Key, J::Value>> {
        let mut cx = Cx::new(cluster, job, journal);
        self.map_until(&mut cx, SimTime::from_secs(f64::INFINITY))?;
        self.bin_deferred(&mut cx)?;
        let outputs = self.sort_reduce(&mut cx)?;
        self.close(&mut cx, outputs)
    }

    /// Stop the run at instant `at`, after [`Run::step_until`]`(at)`: every
    /// rank halted at a chunk boundary (dispatch is synchronous per chunk,
    /// so each chunk a rank took has committed). Drain the leftover queues
    /// so no chunk stays parked in scheduler state, and account for the
    /// whole input: chunks committed by maps plus chunks released here
    /// cover every dispatched chunk (fault-plan kills may rerun chunks,
    /// which only raises the committed count). Device memory holds no
    /// engine allocations across chunks (working sets are modeled via
    /// `note_resident`), so dropping the run releases everything. Its
    /// journal holds a consistent prefix of the full run's records:
    /// resuming the same job finishes bit-identically.
    pub fn cancel(mut self, cluster: &mut Cluster, at: SimTime) -> EngineError {
        let chunks_committed: u32 = self.st.iter().map(|s| s.chunks_done).sum();
        let chunks_released = self.queues.drain_all().len() as u32;
        self.tel.event(0, SpanKind::Cancelled, at, at, || {
            format!(
                "run stopped: {chunks_committed} chunk(s) committed, {chunks_released} released"
            )
        });
        cluster.flush_telemetry();
        EngineError::Cancelled {
            at_ns: (at.as_secs() * 1e9).round() as u64,
            chunks_committed,
            chunks_released,
        }
    }

    /// Where the engine last met the simulated clock: the cursor of the
    /// latest scheduler pick, or the GPU loss that pick found. After
    /// [`Run::step_until`] fails, the instant of the failure.
    pub fn clock(&self) -> SimTime {
        self.clock
    }

    /// One scheduler pick of rank `r`: apply whatever the fault plan has
    /// due at its cursor, then take one chunk through upload and map (or
    /// retire the rank when none is left).
    fn dispatch(&mut self, cx: &mut Cx<J>, r: u32) -> EngineResult<()> {
        let ri = r as usize;
        self.clock = self.st[ri].cursor;

        // Straggler injection: a stall due at or before this dispatch
        // freezes the rank before it takes more work.
        while let Some(&(due, dur)) = self.st[ri].stalls.front() {
            if due > self.st[ri].cursor {
                break;
            }
            let s = &mut self.st[ri];
            s.stalls.pop_front();
            let begin = s.cursor;
            s.cursor += dur;
            self.tel.stalls.inc();
            self.tel.event(r, SpanKind::Stall, begin, s.cursor, || {
                format!("injected stall ({dur})")
            });
        }

        // Fail-stop check at dispatch: a GPU whose kill instant has passed
        // takes no more work, and everything it held migrates away.
        if self.st[ri].kill_at.is_some_and(|k| k <= self.st[ri].cursor) {
            return self.kill_rank(cx, r, self.st[ri].cursor, None);
        }
        if let Some(join) = self.st[ri].join_at.take() {
            self.join(cx, r, join)?;
        }
        let Some((chunk_id, chunk)) = self.obtain_chunk(cx, r)? else {
            self.st[ri].active = false;
            return Ok(());
        };

        self.st[ri].cursor += SimDuration::from_secs(self.tuning.sched_overhead_s);
        let cursor = self.st[ri].cursor;
        cx.journal(&self.tel, r, cursor, || JournalRecord::ChunkDispatch {
            chunk_id,
            rank: r,
        })?;
        // k-deep upload pipeline: the upload may only start once a staging
        // slot frees — i.e. when the map of the chunk `depth` dispatches
        // back has finished. Until then uploads queue on the copy engine
        // while earlier chunks map.
        let mut gate = SimTime::ZERO;
        while self.st[ri].inflight.len() >= self.depth {
            gate = gate.max(self.st[ri].inflight.pop_front().expect("len checked"));
        }
        self.tel.dispatch(r, cursor, self.queues.remaining(r));
        // Container span grouping this chunk's stage spans; its id is
        // reserved now so children can link to it, and the span itself is
        // written once the chunk's window is known.
        let span = self.tel.tel.reserve_span_id();

        let gpu = cx.cluster.gpu(r);
        // Round chaining: a chunk the driver left resident on this device
        // skips its upload entirely — the window collapses to the gated
        // dispatch instant. Displaced chunks (steals, requeues) moved
        // hosts, so they pay the full transfer like any cold chunk.
        let up = if self.inputs_resident && !self.displaced.contains(&chunk_id) {
            let at = cursor.max(gate);
            Reservation { start: at, end: at }
        } else {
            gpu.h2d_gated(cursor, gate, chunk.size_bytes())
        };
        gpu.note_resident(self.staging_slots * chunk.size_bytes());
        self.tel
            .child_event(r, SpanKind::Upload, up.start, up.end, span, || {
                format!("{} bytes", chunk.size_bytes())
            });

        let staged = Staged {
            id: chunk_id,
            chunk,
            up_start: up.start,
            ready: up.end.max(self.st[ri].compute_ready),
            span,
        };
        match self.cfg.map_mode {
            MapMode::Accumulate => self.map_accumulate(cx, r, staged),
            MapMode::Plain | MapMode::PartialReduce => self.map_plain(cx, r, staged),
        }
    }

    /// Elastic add: a rank scheduled to join mid-job runs its local setup
    /// at its first scheduler pick. It owns no queued work (the initial
    /// distribution skipped it) and is not a reducer, so it contributes by
    /// stealing map work from loaded survivors.
    fn join(&mut self, cx: &mut Cx<J>, r: u32, join: SimTime) -> EngineResult<()> {
        let ri = r as usize;
        self.tel.gpus_added.inc();
        self.tel.event(r, SpanKind::GpuAdded, join, join, || {
            "GPU joined the job mid-run".into()
        });
        let t0 = self.st[ri].compute_ready;
        self.tel
            .event(r, SpanKind::Setup, join, t0, || "late-join setup".into());
        cx.journal(&self.tel, r, join, || JournalRecord::GpuAdded { rank: r })?;
        if self.cfg.map_mode == MapMode::Accumulate {
            let (state, t) = cx.job.accumulate_init(cx.cluster.gpu(r), t0)?;
            self.tel.event(r, SpanKind::AccumulateInit, t0, t, || {
                "accumulate init".into()
            });
            self.st[ri].accum = Some(state);
            self.st[ri].compute_ready = t0.max(t);
        }
        Ok(())
    }

    /// Rank `r`'s next chunk: its own queue, else a steal; `None` retires
    /// the rank.
    fn obtain_chunk(&mut self, cx: &mut Cx<J>, r: u32) -> EngineResult<Option<(u64, J::Chunk)>> {
        if let Some(c) = self.queues.pop_local(r) {
            return Ok(Some(c));
        }
        if !self.tuning.allow_stealing {
            return Ok(None);
        }
        // Work-aware stealing: take the heaviest chunk from the rank with
        // the most queued bytes, but only while the steal pays for itself
        // (see `WorkQueues::steal_profitable`) — late steals queue their
        // migration behind the victim's outbound shuffle traffic and arrive
        // after the victim would have processed the chunk locally.
        let Some((victim, c)) = self.queues.steal_profitable(r, |c| c.1.size_bytes()) else {
            return Ok(None);
        };
        self.tel.stolen.inc();
        self.displaced.insert(c.0);
        // Migration: serialized chunk crosses the fabric from the victim's
        // host memory to the thief's.
        let bytes = c.1.serialize().len() as u64;
        let before = self.st[r as usize].cursor;
        let arrival = self.transfer(cx, victim, r, before, bytes)?;
        self.tel.event(r, SpanKind::Steal, before, arrival, || {
            format!("stole chunk from rank {victim}")
        });
        self.st[r as usize].cursor = arrival;
        cx.journal(&self.tel, r, arrival, || JournalRecord::Steal {
            chunk_id: c.0,
            victim,
            thief: r,
        })?;
        Ok(Some(c))
    }

    /// Map a staged chunk into rank `r`'s GPU-resident accumulate state.
    fn map_accumulate(&mut self, cx: &mut Cx<J>, r: u32, c: Staged<J::Chunk>) -> EngineResult<()> {
        let ri = r as usize;
        let mut state = self.st[ri]
            .accum
            .take()
            .expect("accumulate state initialized");
        let gpu = cx.cluster.gpu(r);
        let t = cx.job.map_accumulate(gpu, c.ready, &c.chunk, &mut state)?;
        if self.st[ri].kill_at.is_some_and(|k| k <= t) {
            // The device died before this map finished. The whole
            // accumulate state dies with it, so every chunk it covered —
            // plus this one — reruns on survivors.
            drop(state);
            return self.kill_rank(cx, r, t, Some((c.id, c.chunk)));
        }
        gpu.note_resident(self.staging_slots * c.chunk.size_bytes() + state.size_bytes());
        self.tel
            .child_event(r, SpanKind::Map, c.ready, t, c.span, || {
                "map+accumulate".into()
            });
        self.tel.chunk_span(r, c.span, c.id, c.up_start, t);
        // Accumulate folds emissions into device state, so the commit
        // hashes the chunk itself: replay re-folds it.
        cx.journal(&self.tel, r, t, || JournalRecord::ChunkCommit {
            chunk_id: c.id,
            rank: r,
            pairs: c.chunk.item_count() as u64,
            hash: fnv1a(&c.chunk.serialize()),
        })?;
        self.st[ri].accum = Some(state);
        self.chunk_mapped(r, c.up_start, t);
        if self.st[ri].kill_at.is_some() {
            self.st[ri].processed.push((c.id, c.chunk));
        }
        Ok(())
    }

    /// Map a staged chunk to pairs (plus Partial Reduce when configured),
    /// then either park them host-side for the global Combine or bin them
    /// right away.
    fn map_plain(&mut self, cx: &mut Cx<J>, r: u32, c: Staged<J::Chunk>) -> EngineResult<()> {
        let ri = r as usize;
        let gpu = cx.cluster.gpu(r);
        let (mut pairs, mut t) = cx.job.map(gpu, c.ready, &c.chunk)?;
        let map_end = t;
        let map_pairs = pairs.len();
        let mut partial = None;
        if self.cfg.map_mode == MapMode::PartialReduce {
            let (p, tp) = cx.job.partial_reduce(gpu, t, pairs)?;
            partial = Some((t, tp, p.len()));
            pairs = p;
            t = tp;
        }
        if self.st[ri].kill_at.is_some_and(|k| k <= t) {
            // Kernels never completed: nothing was emitted, and the chunk
            // reruns on a survivor.
            drop(pairs);
            return self.kill_rank(cx, r, t, Some((c.id, c.chunk)));
        }
        gpu.note_resident(c.chunk.size_bytes() + pairs.size_bytes());
        cx.journal(&self.tel, r, t, || JournalRecord::ChunkCommit {
            chunk_id: c.id,
            rank: r,
            pairs: pairs.len() as u64,
            hash: hash_pairs(&pairs.keys, &pairs.vals),
        })?;
        self.tel
            .child_event(r, SpanKind::Map, c.ready, map_end, c.span, || {
                format!("{map_pairs} pairs")
            });
        if let Some((pr_start, pr_end, pr_pairs)) = partial {
            self.tel
                .child_event(r, SpanKind::PartialReduce, pr_start, pr_end, c.span, || {
                    format!("-> {pr_pairs} pairs")
                });
        }
        self.tel.pairs_emitted.add(map_pairs as u64);
        let chunk_end = if self.cfg.combine {
            // Pairs are stored in CPU memory until all maps finish.
            let down = cx.cluster.gpu(r).d2h(t, pairs.size_bytes());
            let s = &mut self.st[ri];
            s.store.append(pairs);
            s.last_d2h = s.last_d2h.max(down.end);
            down.end
        } else {
            // Partition on the GPU, download, and bin immediately —
            // overlapped with the next chunk's upload and map.
            self.ship(cx, r, r, t, pairs, c.id, Some(c.span))?
        };
        self.tel.chunk_span(r, c.span, c.id, c.up_start, chunk_end);
        self.chunk_mapped(r, c.up_start, t);
        Ok(())
    }

    /// Book a chunk whose map finished at `t` on rank `r`. The host is
    /// free to dispatch again once the chunk's upload has left the queue
    /// (`up_start`); the staging gate and the compute timeline keep the
    /// device honest.
    fn chunk_mapped(&mut self, r: u32, up_start: SimTime, t: SimTime) {
        let s = &mut self.st[r as usize];
        s.last_map_end = s.last_map_end.max(t);
        s.cursor = up_start;
        s.inflight.push_back(t);
        s.chunks_done += 1;
    }

    /// Partition `pairs` over the reducers (the ranks that started the
    /// job; elastic adds are excluded so the destination set — and the
    /// output — is independent of mid-job joins), appending reducer
    /// `self.reducers[i]`'s share to `self.inbox[i]`. Returns one bucket
    /// per reducer: the inbox range it was given and the largest key radix
    /// in it (the pass touches every key anyway), so the receiver sizes
    /// its radix sort without a max-radix reduction.
    fn route(&mut self, job: &J, pairs: &KvSet<J::Key, J::Value>) -> Vec<Bucket> {
        let nred = self.reducers.len() as u32;
        let (inbox, scratch) = (&mut self.inbox, &mut self.route_scratch);
        match &self.cfg.partition {
            PartitionMode::None => {
                let start = inbox[0].len();
                inbox[0].extend_from_set(pairs);
                let max_radix = pairs.keys.iter().map(|k| k.radix()).max().unwrap_or(0);
                vec![(start..inbox[0].len(), max_radix)]
            }
            PartitionMode::RoundRobin => route_into(
                pairs,
                |k| (k.radix() % u64::from(nred)) as u32,
                inbox,
                scratch,
            ),
            PartitionMode::Custom => route_into(pairs, |k| job.partition(k, nred), inbox, scratch),
            PartitionMode::Range { splitters } => route_into(
                pairs,
                |k| splitters.partition_point(|&s| s <= k.radix()) as u32,
                inbox,
                scratch,
            ),
        }
    }

    /// First retry backoff of [`Run::transfer`], in seconds; each further
    /// retry doubles it.
    const RETRY_BACKOFF_BASE_S: f64 = 50.0e-6;
    /// Ceiling on the exponential backoff, in seconds.
    const RETRY_BACKOFF_CAP_S: f64 = 5.0e-3;

    /// Time a transfer through the fabric, retrying plan-injected failures
    /// with capped exponential backoff. Returns the arrival instant at
    /// `to`, or [`EngineError::TransferFailed`] once the retry budget is
    /// exhausted.
    fn transfer(
        &mut self,
        cx: &mut Cx<J>,
        from: u32,
        to: u32,
        mut ready: SimTime,
        bytes: u64,
    ) -> EngineResult<SimTime> {
        let tuning = &self.tuning;
        let mut attempt = 0u32;
        loop {
            match cx
                .cluster
                .fabric()
                .try_send(from, to, ready, bytes, attempt)
            {
                Ok(arrival) => return Ok(arrival),
                Err(fault) => {
                    attempt += 1;
                    self.tel.retries.inc();
                    if attempt > tuning.max_transfer_retries {
                        return Err(EngineError::TransferFailed { attempt, fault });
                    }
                    let backoff = SimDuration::from_secs(
                        (Self::RETRY_BACKOFF_BASE_S * f64::from(1u32 << (attempt - 1).min(31)))
                            .min(Self::RETRY_BACKOFF_CAP_S),
                    );
                    self.tel
                        .event(from, SpanKind::Retry, ready, ready + backoff, || {
                            format!("transfer to rank {to} failed (attempt {attempt}); backing off")
                        });
                    ready += backoff;
                }
            }
        }
    }

    /// Bin `pairs` produced for rank `from`: partition them on `exec`'s
    /// GPU (`from` itself unless its GPU is lost) from instant `at`, bring
    /// them to the host — unless GPU-direct networking, the paper's
    /// future-work hardware, lets the NIC source them from the GPU — and
    /// send every non-empty bucket through the fabric into its reducer's
    /// mailbox under canonical sequence number `seq`. Per-chunk shipments
    /// get Download/Partition spans under the chunk's container span; the
    /// deferred whole-rank ones record only their sends. Returns the
    /// instant the last bucket arrived.
    #[allow(clippy::too_many_arguments)]
    fn ship(
        &mut self,
        cx: &mut Cx<J>,
        from: u32,
        exec: u32,
        at: SimTime,
        pairs: KvSet<J::Key, J::Value>,
        seq: u64,
        chunk_span: Option<u64>,
    ) -> EngineResult<SimTime> {
        let parent = chunk_span.unwrap_or(0);
        let gpu = cx.cluster.gpu(exec);
        let t_part = charge_partition::<J::Key, J::Value>(gpu, at, pairs.len());
        let send_ready = if self.gpu_direct {
            t_part
        } else {
            let down = gpu.d2h(t_part, pairs.size_bytes());
            if chunk_span.is_some() {
                self.tel.child_event(
                    from,
                    SpanKind::Download,
                    down.start,
                    down.end,
                    parent,
                    || format!("{} bytes", pairs.size_bytes()),
                );
            }
            down.end
        };
        if chunk_span.is_some() {
            self.tel
                .child_event(from, SpanKind::Partition, at, t_part, parent, String::new);
        }
        self.tel.pairs_shuffled.add(pairs.len() as u64);
        let mut end = send_ready;
        for (i, (range, max_radix)) in self.route(cx.job, &pairs).into_iter().enumerate() {
            if range.is_empty() {
                continue;
            }
            let dest = self.reducers[i];
            let bytes = pair_bytes::<J>(range.len());
            let arrival = self.transfer(cx, from, dest, send_ready, bytes)?;
            self.mailbox
                .deliver(dest, from, seq, arrival, (range, max_radix));
            self.tel
                .child_event(from, SpanKind::Send, send_ready, arrival, parent, || {
                    format!("{bytes} bytes to rank {dest}")
                });
            let s = &mut self.st[from as usize];
            s.bin_done = s.bin_done.max(arrival);
            end = end.max(arrival);
        }
        Ok(end)
    }

    /// Handle a fail-stop GPU loss on rank `r` detected at simulated
    /// instant `now`: mark the rank dead, collect every chunk whose work
    /// died with the device (the in-flight chunk, anything still queued,
    /// and — in accumulate mode — chunks already folded into the lost
    /// GPU-resident state), and migrate them to surviving ranks
    /// round-robin, charging the fabric for each move. Errors with
    /// [`EngineError::GpuLost`] when no rank survives.
    fn kill_rank(
        &mut self,
        cx: &mut Cx<J>,
        r: u32,
        now: SimTime,
        in_flight: Option<(u64, J::Chunk)>,
    ) -> EngineResult<()> {
        let ri = r as usize;
        self.clock = now;
        self.tel.gpus_lost.inc();
        cx.journal(&self.tel, r, now, || JournalRecord::GpuLost { rank: r })?;
        self.st[ri].alive = false;
        self.st[ri].active = false;
        self.st[ri].accum = None;
        let mut orphans: Vec<(u64, J::Chunk)> = std::mem::take(&mut self.st[ri].processed);
        orphans.extend(in_flight);
        orphans.extend(self.queues.drain_rank(r));
        // Canonical migration order, independent of how the orphans mixed.
        orphans.sort_by_key(|&(id, _)| id);
        self.tel.event(r, SpanKind::GpuLost, now, now, || {
            format!("GPU lost; {} chunks orphaned", orphans.len())
        });
        let live: Vec<u32> = (0..self.ranks())
            .filter(|&x| self.st[x as usize].alive)
            .collect();
        if live.is_empty() {
            return Err(EngineError::GpuLost { rank: r });
        }
        // Spread orphans over survivors, starting just past the victim. The
        // chunk data sits in the victim's *host* memory (chunks are streamed
        // from rank-local storage and Bin is a CPU stage), so the surviving
        // host forwards it across the fabric even though its GPU is gone.
        let first = live.iter().position(|&x| x > r).unwrap_or(0);
        for (i, (id, chunk)) in orphans.into_iter().enumerate() {
            let dest = live[(first + i) % live.len()];
            // The chunk leaves its home rank: any device residency is gone.
            self.displaced.insert(id);
            let bytes = chunk.serialize().len() as u64;
            let arrival = self.transfer(cx, r, dest, now, bytes)?;
            self.tel.event(r, SpanKind::Requeue, now, arrival, || {
                format!("chunk {id} -> rank {dest}")
            });
            cx.journal(&self.tel, r, arrival, || JournalRecord::Requeue {
                chunk_id: id,
                from: r,
                to: dest,
            })?;
            self.queues.push_back(dest, (id, chunk));
            let d = &mut self.st[dest as usize];
            d.cursor = d.cursor.max(arrival);
            d.active = true;
            self.tel.requeued.inc();
        }
        Ok(())
    }

    /// Deferred binning: Accumulate ships each rank's folded state, the
    /// global Combine ships each rank's combined store.
    fn bin_deferred(&mut self, cx: &mut Cx<J>) -> EngineResult<()> {
        match self.cfg.map_mode {
            MapMode::Accumulate => {
                for r in 0..self.ranks() {
                    let ri = r as usize;
                    if !self.st[ri].alive {
                        // The accumulate state died with the device; its chunks
                        // were rerun on survivors, so there is nothing to ship.
                        continue;
                    }
                    let state = self.st[ri].accum.take().unwrap_or_default();
                    // Accumulate-mode maps fold emissions into device state
                    // immediately, so the committed accumulator entries are the
                    // map output: count them as emitted here, where the state
                    // is committed for binning (keeps `pairs_emitted >=
                    // pairs_shuffled` in every map mode, and counts nothing for
                    // state that died with its GPU and was rerun elsewhere).
                    self.tel.pairs_emitted.add(state.len() as u64);
                    let at = self.st[ri].last_map_end;
                    self.ship(cx, r, r, at, state, self.n_chunks + u64::from(r), None)?;
                }
            }
            MapMode::Plain | MapMode::PartialReduce if self.cfg.combine => {
                for r in 0..self.ranks() {
                    let ri = r as usize;
                    let store = std::mem::take(&mut self.st[ri].store);
                    if store.is_empty() {
                        continue;
                    }
                    // The store lives in host memory, so it survives a GPU
                    // loss; a lost rank's combine runs on a surviving GPU.
                    let exec = self.exec_rank(r);
                    let t0 = self.st[ri].last_map_end.max(self.st[ri].last_d2h);
                    let gpu = cx.cluster.gpu(exec);
                    // Stream stored pairs back down to the GPU for combination.
                    let up = gpu.h2d(t0, store.size_bytes());
                    let (combined, t1) =
                        combine_pairs(gpu, up.end, store, |a, b| cx.job.combine_op(a, b))?;
                    self.tel.event(r, SpanKind::Combine, up.start, t1, || {
                        format!("-> {} pairs{}", combined.len(), exec_note(r, exec))
                    });
                    let seq = self.n_chunks + u64::from(r);
                    self.ship(cx, r, exec, t1, combined, seq, None)?;
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Sort + Reduce stages: every rank sorts and reduces what it was
    /// sent; returns the per-rank outputs.
    fn sort_reduce(&mut self, cx: &mut Cx<J>) -> EngineResult<Vec<KvSet<J::Key, J::Value>>> {
        // Drain all inbound pairs first: sort-readiness must be known for
        // every rank before lost GPUs are assigned takeover ranks.
        let inbound: Vec<Inbound> = (0..self.ranks()).map(|r| self.drain_inbound(r)).collect();

        // A rank whose GPU died after its map work completed is discovered
        // here: its sort and reduce run on the next surviving rank, with the
        // output still stored in the lost rank's slot.
        let mut last_sort_loss = None;
        for r in 0..self.ranks() {
            let s = &mut self.st[r as usize];
            let sort_ready = s.sort_ready;
            if s.alive && s.kill_at.is_some_and(|k| k <= sort_ready) {
                s.alive = false;
                self.tel.gpus_lost.inc();
                last_sort_loss = Some(r);
                self.tel
                    .event(r, SpanKind::GpuLost, sort_ready, sort_ready, || {
                        "GPU lost before sort".to_string()
                    });
                cx.journal(&self.tel, r, sort_ready, || JournalRecord::GpuLost {
                    rank: r,
                })?;
            }
        }
        if self.st.iter().all(|s| !s.alive) {
            return Err(EngineError::GpuLost {
                rank: last_sort_loss.unwrap_or(0),
            });
        }

        // The ranks sort one after another on the host, so one set of
        // buffers serves them all.
        let mut bufs = SortBuffers {
            sort: SortScratch::default(),
            segs: Segments::default(),
        };
        let mut outputs = Vec::with_capacity(inbound.len());
        for (r, inb) in (0..self.ranks()).zip(inbound) {
            outputs.push(self.sort_reduce_rank(cx, r, inb, &mut bufs)?);
        }
        // Job is done: publish each device's memory high-water mark to its
        // `gpu.rank{r}.mem_peak_bytes` gauge (teardown flush).
        cx.cluster.flush_telemetry();
        Ok(outputs)
    }

    /// Collect rank `r`'s mailbox and fix its sort-readiness. Deliveries
    /// are listed in canonical (chunk-id, sender) order, so reading the
    /// inbox through them gives the same sequence no matter how faults,
    /// retries, or stalls reshuffled the arrivals, and with them the order
    /// in which the pairs landed in the inbox.
    fn drain_inbound(&mut self, r: u32) -> Inbound {
        let deliveries = self.mailbox.drain_canonical(r);
        let mut inb = Inbound {
            ranges: Vec::with_capacity(deliveries.len()),
            arrivals: Vec::with_capacity(deliveries.len()),
            max_radix: 0,
        };
        let mut last_arrival = SimTime::ZERO;
        for d in deliveries {
            let (range, radix) = d.payload;
            last_arrival = last_arrival.max(d.arrival);
            inb.max_radix = inb.max_radix.max(radix);
            inb.arrivals.push((d.arrival, pair_bytes::<J>(range.len())));
            inb.ranges.push(range);
        }
        let s = &mut self.st[r as usize];
        s.sort_ready = s.last_map_end.max(s.bin_done).max(last_arrival);
        inb
    }

    /// Sort and reduce what rank `r` received (on a takeover rank when
    /// `r`'s GPU is lost), returning its output.
    fn sort_reduce_rank(
        &mut self,
        cx: &mut Cx<J>,
        r: u32,
        inb: Inbound,
        bufs: &mut SortBuffers<J::Key, J::Value>,
    ) -> EngineResult<KvSet<J::Key, J::Value>> {
        let ri = r as usize;
        let sort_ready = self.st[ri].sort_ready;
        // Taken out of the run, so the arena is freed as soon as this rank
        // has sorted it. A rank that is not a reducer was sent nothing.
        let inbox = match self.reducers.binary_search(&r) {
            Ok(i) => std::mem::take(&mut self.inbox[i]),
            Err(_) => KvSet::new(),
        };
        let parts: Vec<SortPart<'_, J::Key, J::Value>> = inb
            .ranges
            .iter()
            .map(|range| (&inbox.keys[range.clone()], &inbox.vals[range.clone()]))
            .collect();

        if !self.cfg.sort_and_reduce || inbox.is_empty() {
            let incoming = gather(&parts);
            self.st[ri].sort_done = sort_ready;
            self.st[ri].reduce_done = sort_ready;
            cx.journal(&self.tel, r, sort_ready, || JournalRecord::BinReduced {
                rank: r,
                pairs: incoming.len() as u64,
                hash: hash_pairs(&incoming.keys, &incoming.vals),
            })?;
            return Ok(incoming);
        }

        let exec = self.exec_rank(r);
        let bytes = inbox.size_bytes();
        let device_ready = self.upload_sort_input(cx, r, exec, inb.arrivals, bytes);

        // Out-of-core sort: when the pairs (with the sort's ping-pong
        // buffer) exceed device memory, external passes stream the data
        // back and forth across PCI-e. This is what makes SIO's speedup
        // super-linear at the GPU count where the data first fits in core
        // (paper Figure 3).
        let gpu = cx.cluster.gpu(exec);
        let mut sort_start = device_ready;
        let capacity = gpu.mem.capacity();
        let need = 2 * bytes;
        // In-core working set: pairs plus the ping-pong buffer, capped at
        // device capacity when the sort spills out of core.
        gpu.note_resident(if capacity > 0 {
            need.min(capacity)
        } else {
            need
        });
        if capacity > 0 && need > capacity {
            for _ in 0..need / capacity {
                let d = gpu.d2h(sort_start, bytes);
                let u = gpu.h2d(d.end, bytes);
                sort_start = u.end;
            }
        }
        // The partitioner already bounded every bucket's key range while
        // routing, so the sort starts on the right digit count without a
        // max-radix reduction pass. It reads the deliveries where they lie
        // in the inbox.
        let t1 = match self.cfg.sort {
            SortMode::Radix => sort_parts_with_bits(
                gpu,
                sort_start,
                &parts,
                bits_for_radix(inb.max_radix),
                &mut bufs.sort,
            )?,
            SortMode::Bitonic => {
                let incoming = gather(&parts);
                let (k, v, t) = bitonic_sort_pairs_by(
                    gpu,
                    sort_start,
                    &incoming.keys,
                    &incoming.vals,
                    |a, b| a.radix().cmp(&b.radix()),
                )?;
                (bufs.sort.keys, bufs.sort.vals) = (k, v);
                t
            }
        };
        drop(parts);
        drop(inbox);
        let (skeys, svals, segs) = (&bufs.sort.keys, &bufs.sort.vals, &mut bufs.segs);
        let t2 = extract_segments_into(gpu, t1, skeys, segs)?;
        self.tel.event(r, SpanKind::Sort, device_ready, t2, || {
            format!(
                "{} pairs, {} unique keys{}",
                skeys.len(),
                segs.len(),
                exec_note(r, exec)
            )
        });
        cx.journal(&self.tel, r, t2, || JournalRecord::BinSorted {
            rank: r,
            pairs: skeys.len() as u64,
            unique: segs.len() as u64,
            hash: hash_pairs(skeys, svals),
        })?;
        self.st[ri].sort_done = t2;
        // Stage accounting: Bin absorbs the wait for arrivals and the
        // streamed input upload; Sort is kernel time only.
        self.st[ri].sort_ready = device_ready;

        let out = self.reduce_segments(cx, r, exec, t2, segs, svals)?;
        let reduce_done = self.st[ri].reduce_done;
        cx.journal(&self.tel, r, reduce_done, || JournalRecord::BinReduced {
            rank: r,
            pairs: out.len() as u64,
            hash: hash_pairs(&out.keys, &out.vals),
        })?;
        Ok(out)
    }

    /// Sort input: stream rank `r`'s inbound buckets (`parts`: arrival
    /// instant and size of each) up to `exec`'s device as they arrive,
    /// overlapping the upload with the map/bin tail instead of paying one
    /// bulk transfer after the last arrival. The host stages arrivals in a
    /// pinned buffer and coalesces everything that lands while the
    /// previous DMA is in flight into the next one, so hundreds of small
    /// deliveries cost a handful of transfers — not one initiation latency
    /// each. Free with GPU-direct networking — the pairs arrived in device
    /// memory. Returns the instant the input is on the device.
    fn upload_sort_input(
        &mut self,
        cx: &mut Cx<J>,
        r: u32,
        exec: u32,
        mut parts: Vec<(SimTime, u64)>,
        total_bytes: u64,
    ) -> SimTime {
        let sort_ready = self.st[r as usize].sort_ready;
        if self.gpu_direct {
            return sort_ready;
        }
        let gpu = cx.cluster.gpu(exec);
        parts.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        let mut first_start: Option<SimTime> = None;
        let mut last_end = sort_ready;
        let mut transfers = 0u32;
        let mut i = 0usize;
        while i < parts.len() {
            let issue = parts[i].0.max(gpu.copy_free_at());
            let mut bytes = 0u64;
            while i < parts.len() && parts[i].0 <= issue {
                bytes += parts[i].1;
                i += 1;
            }
            let u = gpu.h2d(issue, bytes);
            first_start.get_or_insert(u.start);
            last_end = u.end;
            transfers += 1;
        }
        if let Some(first) = first_start {
            self.tel.event(r, SpanKind::Upload, first, last_end, || {
                format!(
                    "{total_bytes} bytes of sort input in {transfers} transfers{}",
                    exec_note(r, exec)
                )
            });
        }
        sort_ready.max(last_end)
    }

    /// Reduce rank `r`'s sorted value sets, chunked by the job's callback,
    /// on `exec`'s GPU from instant `at`, and bring the output to the host.
    fn reduce_segments(
        &mut self,
        cx: &mut Cx<J>,
        r: u32,
        exec: u32,
        at: SimTime,
        segs: &Segments<J::Key>,
        svals: &[J::Value],
    ) -> EngineResult<KvSet<J::Key, J::Value>> {
        let gpu = cx.cluster.gpu(exec);
        let mut out: KvSet<J::Key, J::Value> = KvSet::new();
        let mut t = at;
        let mut i = 0usize;
        let val_bytes = std::mem::size_of::<J::Value>().max(1);
        let reduce_budget = (gpu.mem.capacity() as usize / 4).max(val_bytes);
        while i < segs.len() {
            let mut take = cx
                .job
                .reduce_sets_per_chunk(segs.len() - i)
                .clamp(1, segs.len() - i);
            // Memory safety net: a reduce chunk's values must fit on the
            // device (quarter of memory, leaving room for outputs and the
            // double buffer) regardless of what the callback asked for.
            while take > 1 && (segs.offsets[i + take] - segs.offsets[i]) * val_bytes > reduce_budget
            {
                take /= 2;
            }
            if take == segs.len() {
                // One kernel over everything (what every app asks for by
                // default): it reads the sorted sets where they are and
                // its result is the output.
                (out, t) = cx.job.reduce(gpu, t, segs, svals)?;
                break;
            }
            if i == 0 {
                // Typical reducers emit one pair per unique key.
                out.reserve(segs.len());
            }
            let sub = Segments {
                keys: segs.keys[i..i + take].to_vec(),
                offsets: segs.offsets[i..=i + take]
                    .iter()
                    .map(|o| o - segs.offsets[i])
                    .collect(),
            };
            let vals = &svals[segs.offsets[i]..segs.offsets[i + take]];
            let (part, tn) = cx.job.reduce(gpu, t, &sub, vals)?;
            out.append(part);
            t = tn;
            i += take;
        }
        let down = gpu.d2h(t, out.size_bytes());
        self.tel.event(r, SpanKind::Reduce, at, down.end, || {
            format!("{} output pairs{}", out.len(), exec_note(r, exec))
        });
        self.st[r as usize].reduce_done = down.end;
        Ok(out)
    }

    /// Close the journal with the job-end manifest and assemble timings.
    fn close(
        self,
        cx: &mut Cx<J>,
        outputs: Vec<KvSet<J::Key, J::Value>>,
    ) -> EngineResult<JobResult<J::Key, J::Value>> {
        let makespan = self
            .st
            .iter()
            .map(|s| s.reduce_done)
            .fold(SimTime::ZERO, SimTime::max);
        cx.journal(&self.tel, 0, makespan, || {
            // Job-end manifest: a fold of every rank's output hash plus the
            // exact makespan bits. A resumed run that reaches this record with
            // the same values is bit-identical to the uninterrupted run.
            let mut h = Fnv64::new();
            for o in &outputs {
                h.write_u64(hash_pairs(&o.keys, &o.vals));
            }
            JournalRecord::JobEnd {
                output_hash: h.finish(),
                makespan_bits: makespan.since(SimTime::ZERO).as_secs().to_bits(),
            }
        })?;
        let per_rank: Vec<StageTimes> = self
            .st
            .iter()
            .map(|s| StageTimes {
                map: s.last_map_end.since(s.setup_end),
                bin: s.sort_ready.since(s.last_map_end.max(s.setup_end)),
                sort: s.sort_done.since(s.sort_ready),
                reduce: s.reduce_done.since(s.sort_done),
                // Job setup plus the end-of-job barrier wait. An elastic add's
                // setup ends at its join instant plus local setup, so its idle
                // pre-join span lands here, not in Map.
                scheduler: s.setup_end.since(SimTime::ZERO) + makespan.since(s.reduce_done),
            })
            .collect();
        let tel = &self.tel;
        Ok(JobResult {
            outputs,
            timings: JobTimings {
                total: makespan.since(SimTime::ZERO),
                per_rank,
                chunks_per_rank: self.st.iter().map(|s| s.chunks_done).collect(),
                chunks_stolen: tel.stolen.delta() as u32,
                pairs_emitted: tel.pairs_emitted.delta(),
                pairs_shuffled: tel.pairs_shuffled.delta(),
                gpus_lost: tel.gpus_lost.delta() as u32,
                gpus_added: tel.gpus_added.delta() as u32,
                chunks_requeued: tel.requeued.delta() as u32,
                transfer_retries: tel.retries.delta() as u32,
                stalls_injected: tel.stalls.delta() as u32,
            },
        })
    }
}

/// One binned bucket bound for a reducer rank: where [`Run::route`] put
/// it in that reducer's inbox, and the key-range bound it computed.
type Bucket = (Range<usize>, u64);

/// Everything a rank received for its sort stage, in canonical order: the
/// inbox range of each delivery, its (arrival, bytes) for the streamed
/// input upload, and the folded key-range bound.
struct Inbound {
    ranges: Vec<Range<usize>>,
    arrivals: Vec<(SimTime, u64)>,
    max_radix: u64,
}

/// Host buffers of the Sort stage. The ranks' [`Run::sort_reduce_rank`]
/// calls run one after another and share them, so the sorted pairs and
/// their segments are mapped and faulted in once per job, not per rank.
struct SortBuffers<K, V> {
    sort: SortScratch<K, V>,
    segs: Segments<K>,
}

/// Wire and device size of `pairs` of job `J`'s intermediate pairs.
fn pair_bytes<J: GpmrJob>(pairs: usize) -> u64 {
    (pairs * (std::mem::size_of::<J::Key>() + std::mem::size_of::<J::Value>())) as u64
}

/// The concatenation of `parts`.
fn gather<K: crate::types::Key, V: crate::types::Value>(
    parts: &[SortPart<'_, K, V>],
) -> KvSet<K, V> {
    let mut out = KvSet::with_capacity(parts.iter().map(|(k, _)| k.len()).sum());
    for (k, v) in parts {
        out.keys.extend_from_slice(k);
        out.vals.extend_from_slice(v);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::SliceChunk;
    use crate::job::PipelineConfig;
    use gpmr_sim_gpu::{FaultPlan, Gpu, GpuSpec, LaunchConfig, SimGpuResult};

    /// A minimal counting job with a configurable pipeline, used to
    /// exercise engine paths directly.
    struct TestJob {
        cfg: PipelineConfig,
        /// The pair an input item maps to.
        emit: fn(u32) -> (u32, u32),
        /// Cap on value sets per reduce kernel (the reduce-chunking
        /// callback); `None` takes all remaining sets at once.
        reduce_chunk: Option<usize>,
    }

    impl TestJob {
        fn with(cfg: PipelineConfig) -> Self {
            TestJob {
                cfg,
                emit: |x| (x % 16, 1),
                reduce_chunk: None,
            }
        }
    }

    impl GpmrJob for TestJob {
        type Chunk = SliceChunk<u32>;
        type Key = u32;
        type Value = u32;

        fn pipeline(&self) -> PipelineConfig {
            self.cfg.clone()
        }

        fn map(
            &self,
            gpu: &mut Gpu,
            at: SimTime,
            chunk: &Self::Chunk,
        ) -> SimGpuResult<(KvSet<u32, u32>, SimTime)> {
            let n = chunk.items.len();
            let cfg = LaunchConfig::for_items(n, 1024, 128);
            let (launch, res) = gpu.launch(at, &cfg, |ctx| {
                let range = ctx.item_range(n);
                ctx.charge_read::<u32>(range.len());
                let mut out = KvSet::with_capacity(range.len());
                for &x in &chunk.items[range] {
                    let (k, v) = (self.emit)(x);
                    out.push(k, v);
                }
                out
            })?;
            let mut pairs = KvSet::new();
            for p in launch.outputs {
                pairs.append(p);
            }
            Ok((pairs, res.end))
        }

        fn combine_op(&self, a: u32, b: u32) -> u32 {
            a + b
        }

        fn reduce_sets_per_chunk(&self, remaining: usize) -> usize {
            self.reduce_chunk
                .map_or(remaining, |cap| cap.min(remaining))
        }

        fn reduce(
            &self,
            gpu: &mut Gpu,
            at: SimTime,
            segs: &Segments<u32>,
            vals: &[u32],
        ) -> SimGpuResult<(KvSet<u32, u32>, SimTime)> {
            let cfg = LaunchConfig::grid(1, 128);
            let (launch, res) = gpu.launch(at, &cfg, |ctx| {
                let mut out = KvSet::new();
                for s in 0..segs.len() {
                    let r = segs.range(s);
                    ctx.charge_read_uncoalesced::<u32>(r.len());
                    out.push(segs.keys[s], vals[r].iter().sum());
                }
                out
            })?;
            let mut out = KvSet::new();
            for p in launch.outputs {
                out.append(p);
            }
            Ok((out, res.end))
        }
    }

    fn input(n: u32) -> Vec<SliceChunk<u32>> {
        let data: Vec<u32> = (0..n).collect();
        SliceChunk::split(&data, 500)
    }

    fn counts(result: &JobResult<u32, u32>) -> Vec<u32> {
        let mut c = vec![0u32; 16];
        for (k, v) in result.merged_output().iter() {
            c[*k as usize] += *v;
        }
        c
    }

    #[test]
    fn combine_mode_defers_binning_and_matches_plain() {
        let plain = {
            let mut cl = Cluster::accelerator(4, GpuSpec::gt200());
            run_job(
                &mut cl,
                &TestJob::with(PipelineConfig::default()),
                input(8000),
            )
            .unwrap()
        };
        let combined = {
            let mut cl = Cluster::accelerator(4, GpuSpec::gt200());
            let cfg = PipelineConfig {
                combine: true,
                ..PipelineConfig::default()
            };
            run_job(&mut cl, &TestJob::with(cfg), input(8000)).unwrap()
        };
        assert_eq!(counts(&plain), counts(&combined));
        // Combine collapses the shuffle to at most (keys x ranks) pairs.
        assert!(combined.timings.pairs_shuffled <= 16 * 4);
        assert_eq!(plain.timings.pairs_shuffled, 8000);
    }

    #[test]
    fn partition_none_routes_everything_to_rank_zero() {
        let mut cl = Cluster::accelerator(4, GpuSpec::gt200());
        let cfg = PipelineConfig::default().with_partition(PartitionMode::None);
        let result = run_job(&mut cl, &TestJob::with(cfg), input(4000)).unwrap();
        assert!(!result.outputs[0].is_empty());
        assert!(result.outputs[1..].iter().all(KvSet::is_empty));
        assert_eq!(counts(&result).iter().sum::<u32>(), 4000);
    }

    #[test]
    fn map_only_jobs_skip_sort_and_reduce() {
        let mut cl = Cluster::accelerator(2, GpuSpec::gt200());
        let cfg = PipelineConfig {
            sort_and_reduce: false,
            ..PipelineConfig::default()
        };
        let result = run_job(&mut cl, &TestJob::with(cfg), input(2000)).unwrap();
        // Raw pairs, not reduced: one pair per input element.
        assert_eq!(result.merged_output().len(), 2000);
        for st in &result.timings.per_rank {
            assert_eq!(st.sort.as_secs(), 0.0);
            assert_eq!(st.reduce.as_secs(), 0.0);
        }
    }

    #[test]
    fn whole_and_chunked_reduce_agree() {
        // 16 keys over 4 reducers: 4 value sets per rank. The default
        // callback reduces them in one kernel straight from the sorted
        // buffers; a cap of 3 takes the chunked path (3 + 1 sets, rebased
        // sub-segments, appended parts).
        let run_with = |reduce_chunk: Option<usize>| {
            let mut cl = Cluster::accelerator(4, GpuSpec::gt200());
            let job = TestJob {
                reduce_chunk,
                ..TestJob::with(PipelineConfig::default())
            };
            let result = run_job(&mut cl, &job, input(8000)).unwrap();
            let kernels: u64 = (0..4).map(|r| cl.gpu(r).stats().kernels).sum();
            (result, kernels)
        };
        let (whole, whole_kernels) = run_with(None);
        let (chunked, chunked_kernels) = run_with(Some(3));
        assert_eq!(whole.outputs, chunked.outputs);
        for out in &whole.outputs {
            assert_eq!(out.len(), 4);
            assert_eq!(out.vals, vec![500; 4]);
        }
        assert_eq!(chunked_kernels, whole_kernels + 4);
        assert!(chunked.total_time().as_secs() > whole.total_time().as_secs());
    }

    #[test]
    fn map_only_output_is_canonical_under_steals_and_faults() {
        // Without sort+reduce a rank's output is what it was sent, read
        // in (chunk id, sender) order. Every item x becomes the pair
        // (x, 3x) on reducer x % 4 and chunks hold consecutive items, so
        // that order is ascending x — whichever rank mapped a chunk, and
        // however late its bucket arrived.
        let job = TestJob {
            emit: |x| (x, x.wrapping_mul(3)),
            ..TestJob::with(PipelineConfig {
                sort_and_reduce: false,
                ..PipelineConfig::default()
            })
        };
        let n = 40_000u32;
        let expect: Vec<KvSet<u32, u32>> = (0..4)
            .map(|r| (r..n).step_by(4).map(|x| (x, x.wrapping_mul(3))).collect())
            .collect();

        // Steal-heavy: rank 0 freezes as the job starts, so its queue is
        // drained by the others.
        let mut cl = Cluster::accelerator(4, GpuSpec::gt200());
        cl.set_fault_plan(Some(FaultPlan::new().stall(0, 0.0, 5e-3)));
        let stolen = run_job(&mut cl, &job, input(n)).unwrap();
        assert!(
            stolen.timings.chunks_stolen >= 5,
            "{:?}",
            stolen.timings.chunks_per_rank
        );
        assert_eq!(stolen.outputs, expect);

        // Kill + add: rank 1 dies mid-map (its queue is requeued, its
        // inbox is gathered on a survivor) while a fifth GPU joins and
        // steals. The added rank is not a reducer.
        let mut cl = Cluster::accelerator(5, GpuSpec::gt200());
        cl.set_fault_plan(Some(FaultPlan::new().kill(1, 1.9e-3).add(4, 1e-4)));
        let faulted = run_job(&mut cl, &job, input(n)).unwrap();
        assert_eq!(faulted.timings.gpus_lost, 1);
        assert_eq!(faulted.timings.gpus_added, 1);
        assert!(faulted.timings.chunks_requeued >= 1);
        assert!(faulted.timings.chunks_per_rank[4] >= 1);
        assert_eq!(&faulted.outputs[..4], &expect[..]);
        assert!(faulted.outputs[4].is_empty());
    }

    #[test]
    fn bitonic_sorter_path_matches_radix_path() {
        let radix = {
            let mut cl = Cluster::accelerator(3, GpuSpec::gt200());
            run_job(
                &mut cl,
                &TestJob::with(PipelineConfig::default()),
                input(5000),
            )
            .unwrap()
        };
        let bitonic = {
            let mut cl = Cluster::accelerator(3, GpuSpec::gt200());
            let cfg = PipelineConfig {
                sort: SortMode::Bitonic,
                ..PipelineConfig::default()
            };
            run_job(&mut cl, &TestJob::with(cfg), input(5000)).unwrap()
        };
        assert_eq!(counts(&radix), counts(&bitonic));
    }

    #[test]
    fn out_of_core_sort_charges_extra_pcie_passes() {
        // A device too small to hold the incoming pairs twice must stream
        // them in and out for external sort passes.
        let small = GpuSpec::gt200().with_mem_capacity(48 * 1024);
        let large = GpuSpec::gt200();
        let run_with = |spec: GpuSpec| {
            let mut cl = Cluster::new(gpmr_sim_net::Topology::new(1, 1, 1), spec);
            let r = run_job(
                &mut cl,
                &TestJob::with(PipelineConfig::default()),
                input(4000),
            )
            .unwrap();
            let stats = cl.gpu(0).stats();
            (r, stats.h2d_bytes)
        };
        let (r_small, h2d_small) = run_with(small);
        let (r_large, h2d_large) = run_with(large);
        assert_eq!(counts(&r_small), counts(&r_large));
        assert!(
            h2d_small > h2d_large,
            "small device should re-upload for external passes ({h2d_small} vs {h2d_large})"
        );
        assert!(r_small.total_time().as_secs() > r_large.total_time().as_secs());
    }

    #[test]
    fn single_rank_cluster_runs_every_pipeline() {
        for cfg in [
            PipelineConfig::default(),
            PipelineConfig {
                combine: true,
                ..PipelineConfig::default()
            },
            PipelineConfig::default().with_partition(PartitionMode::None),
            PipelineConfig {
                sort_and_reduce: false,
                ..PipelineConfig::default()
            },
        ] {
            let mut cl = Cluster::accelerator(1, GpuSpec::gt200());
            let result = run_job(&mut cl, &TestJob::with(cfg.clone()), input(3000)).unwrap();
            let total: u32 = result.merged_output().vals.iter().sum();
            assert_eq!(total, 3000, "{cfg:?}");
        }
    }

    #[test]
    fn elastic_add_is_output_invariant_and_steals_work() {
        // Reference: the initial four-GPU cluster, no fault plan. 20
        // chunks land 5 per rank, deep enough for profitable steals.
        let base = {
            let mut cl = Cluster::accelerator(4, GpuSpec::gt200());
            run_job(
                &mut cl,
                &TestJob::with(PipelineConfig::default()),
                input(10_000),
            )
            .unwrap()
        };
        // Elastic run: a fifth GPU joins almost immediately. It is not a
        // reducer and owns no initial queue, so the shuffle destinations —
        // and the per-rank outputs — match the four-GPU run exactly; the
        // new GPU contributes by stealing map work.
        let mut cl = Cluster::accelerator(5, GpuSpec::gt200());
        cl.set_fault_plan(Some(FaultPlan::new().add(4, 1e-4)));
        let elastic = run_job(
            &mut cl,
            &TestJob::with(PipelineConfig::default()),
            input(10_000),
        )
        .unwrap();
        assert_eq!(elastic.timings.gpus_added, 1);
        assert_eq!(&elastic.outputs[..4], &base.outputs[..]);
        assert!(elastic.outputs[4].is_empty(), "added rank is not a reducer");
        assert!(
            elastic.timings.chunks_per_rank[4] >= 1,
            "the added GPU must steal map work: {:?}",
            elastic.timings.chunks_per_rank
        );
        assert_eq!(counts(&elastic), counts(&base));
    }

    #[test]
    fn adding_every_rank_or_an_unknown_rank_is_rejected() {
        let run_with = |plan: FaultPlan| {
            let mut cl = Cluster::accelerator(2, GpuSpec::gt200());
            cl.set_fault_plan(Some(plan));
            run_job(
                &mut cl,
                &TestJob::with(PipelineConfig::default()),
                input(1000),
            )
        };
        let err = run_with(FaultPlan::new().add(7, 1e-4)).unwrap_err();
        assert!(matches!(err, EngineError::InvalidPipeline(_)), "{err}");
        let err = run_with(FaultPlan::new().add(0, 1e-4).add(1, 2e-4)).unwrap_err();
        assert!(matches!(err, EngineError::InvalidPipeline(_)), "{err}");
    }

    #[test]
    fn journaled_run_matches_plain_and_replays_verbatim() {
        use crate::journal::JournalError;

        let dir = std::env::temp_dir().join("gpmr_engine_journal_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("job.gpj");
        let job = TestJob::with(PipelineConfig::default());
        let tuning = EngineTuning::default();
        let tel = Telemetry::disabled();

        let plain = {
            let mut cl = Cluster::accelerator(4, GpuSpec::gt200());
            run_job(&mut cl, &job, input(8000)).unwrap()
        };

        // A journaled run pays no simulated time: outputs AND timings
        // match the plain engine bit for bit.
        let mut journal = Journal::create(&path, 1).unwrap();
        let first = {
            let mut cl = Cluster::accelerator(4, GpuSpec::gt200());
            run_job_journaled(&mut cl, &job, input(8000), &tuning, &tel, &mut journal).unwrap()
        };
        let written = journal.appended();
        drop(journal);
        assert_eq!(first.outputs, plain.outputs);
        assert_eq!(first.timings, plain.timings);

        let bytes = std::fs::read(&path).unwrap();
        let (records, _) = crate::journal::scan_bytes(&bytes);
        assert_eq!(records.len() as u64, written);
        assert!(matches!(
            records.first(),
            Some(JournalRecord::JobStart { .. })
        ));
        assert!(matches!(records.last(), Some(JournalRecord::JobEnd { .. })));

        // Resume over the complete journal: a pure verified replay that
        // appends nothing and leaves the file byte-identical.
        let mut journal = Journal::resume(&path, 1).unwrap();
        let second = {
            let mut cl = Cluster::accelerator(4, GpuSpec::gt200());
            run_job_journaled(&mut cl, &job, input(8000), &tuning, &tel, &mut journal).unwrap()
        };
        assert_eq!(journal.replayed(), records.len() as u64);
        assert_eq!(journal.appended(), 0);
        drop(journal);
        assert_eq!(second.outputs, first.outputs);
        assert_eq!(second.timings, first.timings);
        assert_eq!(std::fs::read(&path).unwrap(), bytes);

        // A different job shape diverges on the fingerprint record instead
        // of silently replaying someone else's journal.
        let mut journal = Journal::resume(&path, 1).unwrap();
        let err = {
            let mut cl = Cluster::accelerator(2, GpuSpec::gt200());
            run_job_journaled(&mut cl, &job, input(8000), &tuning, &tel, &mut journal).unwrap_err()
        };
        assert!(
            matches!(
                err,
                EngineError::Journal(JournalError::Diverged { index: 0, .. })
            ),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
