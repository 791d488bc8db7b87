//! The job service: a virtual-time front end multiplexing many tenants'
//! jobs onto a pool of simulated clusters.
//!
//! ## Execution model
//!
//! The service owns a clock in simulated seconds (`now`) and a pool of
//! engine slots, each with its own [`Cluster`] — per-slot isolation is
//! what keeps a killed or journaled job from corrupting its neighbors.
//! `submit` admits (or rejects) a job and queues it; dispatch starts the
//! job's engine pass on a free slot as a live [`Run`]. Before it looks
//! for the next event at or before an instant, `advance_to`/`drain` step
//! every live pass to that instant (a solo pass no further than its job's
//! deadline). When a pass's map stage ends the service finishes the run,
//! which fixes its finish instant, and hides the result until the clock
//! reaches it. Completion, failure and deadline events are handled in
//! time order, so polling at any instant, at any granularity, observes
//! exactly the state a real service would expose at that moment.
//!
//! Cancellation and deadlines stop a running pass where it stands: its
//! run steps to the stop instant and is cancelled, which halts every rank
//! at a chunk boundary, drains the work queues, and returns
//! [`EngineError::Cancelled`] carrying conservation accounting
//! (committed + released chunks cover the whole input). A pass whose run
//! fails mid-flight fails its jobs at the failure's simulated instant
//! and holds its slot until then.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gpmr_apps::datasets::second_seed;
use gpmr_apps::sio::{generate_integers, sio_chunks};
use gpmr_apps::text::{chunk_text, generate_text, Dictionary};
use gpmr_apps::{SioJob, WoJob};
use gpmr_core::{EngineError, EngineResult, EngineTuning, GpmrJob, Journal, KvSet, Run, RunOpts};
use gpmr_sim_gpu::{FaultPlan, GpuSpec, SimTime};
use gpmr_sim_net::Cluster;
use gpmr_telemetry::alerts::Alert;
use gpmr_telemetry::{
    AlertEngine, AlertRule, Counter, FlightRecorder, Postmortem, SpanKind, Telemetry,
    TimeSeriesStore,
};

use crate::batch::{split_outputs, tag_chunks, SioBatchJob};
use crate::slo::{SloAccountant, SloPolicy, SloReport};
use crate::spec::{
    JobId, JobKind, JobSpec, JobStatus, RejectReason, ServiceError, TenantConfig, MAX_DICT_WORDS,
};

/// Histogram bucket bounds for `service.queue_wait_s` (seconds).
pub const QUEUE_WAIT_BOUNDS: &[f64] = &[
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
];

/// Distinct WO dictionaries a service keeps built; the least recently
/// used one beyond this is dropped and rebuilt when next asked for.
pub const DICT_CACHE_ENTRIES: usize = 32;
/// Words the kept dictionaries may hold between them: one dictionary of
/// the largest admissible size, so the cache never outweighs one job.
const DICT_CACHE_WORDS: usize = MAX_DICT_WORDS;

/// Service-wide configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceConfig {
    /// GPUs per engine slot (every job sees a cluster of this size, and
    /// a pass charges its tenant this many GPU-seconds per second).
    /// [`JobService::new`] runs at least one (`gpus.max(1)`).
    pub gpus: u32,
    /// Engine-pool size: jobs running concurrently. [`JobService::new`]
    /// runs at least one engine (`engines.max(1)`).
    pub engines: usize,
    /// Maximum queued (admitted, not yet running) jobs; submissions
    /// beyond this are rejected with [`RejectReason::QueueFull`].
    pub max_queue_depth: usize,
    /// Batching window: queued batchable jobs submitted within this many
    /// seconds of each other may share one cluster pass.
    pub batch_window_s: f64,
    /// Maximum members in one batched pass.
    pub batch_max: usize,
    /// Continuous-observability layer: time series, alerts, SLO policy,
    /// flight recorder.
    pub obs: ObsConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            gpus: 4,
            engines: 2,
            max_queue_depth: 64,
            batch_window_s: 0.05,
            batch_max: 4,
            obs: ObsConfig::default(),
        }
    }
}

/// Sliding-window length of the windowed series, simulated seconds.
const WINDOW_S: f64 = 1.0;
/// Ring buckets per window (the time resolution of windowed queries).
const RESOLUTION: usize = 20;

/// Observability configuration. The windowed time-series store and the
/// alert engine that reads it exist only when there are alert rules and
/// the service's [`Telemetry`] handle is enabled — otherwise no event
/// boundary snapshots the registry. The flight recorder works
/// regardless: with the handle disabled, the service records its spans
/// and samples into a ring of its own.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ObsConfig {
    /// Alert rules evaluated at every event boundary.
    pub alerts: Vec<AlertRule>,
    /// Spans (and samples) of the service's recording a postmortem
    /// covers, and the capacity of each solo pass's capture; 0 disables
    /// postmortems.
    pub flight_capacity: usize,
    /// Error-budget policy for SLO reports.
    pub slo: SloPolicy,
}

struct TenantState {
    cfg: TenantConfig,
    track: u32,
    running: u32,
}

struct JobRecord {
    spec: JobSpec,
    submit_s: f64,
    status: JobStatus,
    outputs: Option<Vec<KvSet<u32, u32>>>,
}

/// One occupied engine slot: a (possibly batched) cluster pass. While
/// its map stage runs the pass is a live engine run; once the run has
/// ended, how it ended is known to the simulator but hidden from the API
/// until the clock reaches the end instant.
struct Pass {
    members: Vec<JobId>,
    started_s: f64,
    /// The engine run, while its map stage is in progress.
    live: Option<Box<dyn LiveRun>>,
    /// How the run ended, once it has.
    end: Option<PassEnd>,
    /// The solo pass's own bounded recording when the flight recorder is
    /// on, placed on the service clock and tracks; disabled otherwise.
    capture: Telemetry,
}

/// How a pass's engine run ended.
enum PassEnd {
    /// Completes at `finish_s` with per-member, per-rank outputs (aligned
    /// with `members`), its map stage having committed `chunks` chunks.
    Done {
        finish_s: f64,
        results: Outputs,
        chunks: u32,
    },
    /// The engine failed at `at_s`.
    Failed { at_s: f64, error: String },
}

impl Pass {
    /// When the run ends, once that is known.
    fn end_s(&self) -> Option<f64> {
        self.end.as_ref().map(|end| match end {
            PassEnd::Done { finish_s, .. } => *finish_s,
            PassEnd::Failed { at_s, .. } => *at_s,
        })
    }

    /// Step the live run to service instant `t`; when its map stage ends
    /// there, finish it. An error fails the pass at the instant the
    /// engine met it, which no choice of `t` moves.
    fn step(&mut self, cluster: &mut Cluster, t: f64) {
        let Some(run) = self.live.as_mut() else {
            return;
        };
        let ended = match run.step_until(cluster, offset(self.started_s, t)) {
            Ok(false) => return,
            Ok(true) => {
                let n = self.members.len();
                self.live.take().expect("live run").finish(cluster, n)
            }
            Err(e) => Err(e),
        };
        self.live = None;
        self.end = Some(match ended {
            Ok((results, makespan_s, chunks)) => PassEnd::Done {
                finish_s: self.started_s + makespan_s,
                results,
                chunks,
            },
            Err((clock, e)) => PassEnd::Failed {
                at_s: self.started_s + clock.as_secs(),
                error: e.to_string(),
            },
        });
    }

    /// Stop the pass at engine instant `at`: a live run steps there and is
    /// cancelled; a run whose map stage already ended reports the chunks
    /// it committed and none released; a failed run reports nothing.
    fn stop(&mut self, cluster: &mut Cluster, at: SimTime) -> (u32, u32) {
        let Some(mut run) = self.live.take() else {
            return match self.end {
                Some(PassEnd::Done { chunks, .. }) => (chunks, 0),
                _ => (0, 0),
            };
        };
        match run.step_until(cluster, at).map(|_| run.cancel(cluster, at)) {
            Ok(EngineError::Cancelled {
                chunks_committed,
                chunks_released,
                ..
            }) => (chunks_committed, chunks_released),
            _ => (0, 0),
        }
    }
}

/// The engine instant `t` service seconds is at for a pass started at
/// `started_s`.
fn offset(started_s: f64, t: f64) -> SimTime {
    SimTime::from_secs((t - started_s).max(0.0))
}

/// Pass and batch tallies, and job outcomes, independent of telemetry so
/// reports work with a disabled registry too. Only the pass and batch
/// tallies are stored; [`JobService::stats`] counts the outcomes from the
/// job statuses, alerts and postmortems that record them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Cluster passes dispatched (a batch counts once).
    pub cluster_passes: u64,
    /// Batched passes among them.
    pub batches_formed: u64,
    /// Jobs that rode in a batched pass.
    pub batched_jobs: u64,
    /// Jobs that reached [`JobStatus::Completed`].
    pub completed: u64,
    /// Jobs that reached [`JobStatus::Cancelled`].
    pub cancelled: u64,
    /// Jobs that reached [`JobStatus::DeadlineMissed`].
    pub deadline_missed: u64,
    /// Jobs that reached [`JobStatus::Failed`].
    pub failed: u64,
    /// Submissions rejected at admission.
    pub rejected: u64,
    /// Alerts fired so far.
    pub alerts_fired: u64,
    /// Postmortem traces dumped so far.
    pub postmortems: u64,
    /// WO dictionaries built (words generated, perfect hash constructed);
    /// dispatches beyond this count drew from the cache.
    pub dictionaries_built: u64,
}

/// The WO dictionaries the service has built, most recently used first.
///
/// A dictionary is a pure function of `(dict_words, seed)` and building
/// one (word generation plus the minimal perfect hash) costs as much host
/// time as running a small job over it, so the paper builds it once and
/// keeps it resident (§5.3.3). Tenants re-run the same few dictionaries;
/// the service keeps the last [`DICT_CACHE_ENTRIES`] of them, within
/// [`DICT_CACHE_WORDS`] words in total, and rebuilds an evicted one.
#[derive(Default)]
struct DictCache {
    entries: Vec<((usize, u64), Arc<Dictionary>)>,
    words: usize,
    built: u64,
}

impl DictCache {
    fn get(&mut self, dict_words: usize, seed: u64) -> Arc<Dictionary> {
        let key = (dict_words, seed);
        if let Some(ix) = self.entries.iter().position(|(k, _)| *k == key) {
            self.entries[..=ix].rotate_right(1);
            return Arc::clone(&self.entries[0].1);
        }
        let dict = Arc::new(Dictionary::generate(dict_words, seed));
        self.built += 1;
        while !self.entries.is_empty()
            && (self.entries.len() >= DICT_CACHE_ENTRIES
                || self.words + dict_words > DICT_CACHE_WORDS)
        {
            let ((evicted_words, _), _) = self.entries.pop().expect("non-empty");
            self.words -= evicted_words;
        }
        self.entries.insert(0, (key, Arc::clone(&dict)));
        self.words += dict_words;
        dict
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Event {
    /// The pass on slot `.0` ends: it completes or fails.
    Finish(usize),
    /// A live job's deadline passes.
    Deadline(JobId),
}

/// The multi-tenant job service. See the module docs for the model.
pub struct JobService {
    cfg: ServiceConfig,
    tel: Telemetry,
    /// Where the service's own spans and samples go: `tel` when enabled,
    /// else a ring of `flight_capacity` when the flight recorder is on.
    rec: Telemetry,
    now: f64,
    tenants: Vec<TenantState>,
    tenant_ix: HashMap<String, usize>,
    jobs: Vec<JobRecord>,
    /// Admitted jobs awaiting dispatch, in submission order.
    queue: Vec<JobId>,
    clusters: Vec<Cluster>,
    dicts: DictCache,
    running: Vec<Option<Pass>>,
    service_track: u32,
    /// The stored tallies: `cluster_passes`, `batches_formed` and
    /// `batched_jobs`.
    stats: ServiceStats,
    slo: SloAccountant,
    /// The windowed series the alert rules read, and the rules' engine.
    alerting: Option<(TimeSeriesStore, AlertEngine)>,
    flight: Option<FlightRecorder>,
}

impl JobService {
    /// Build a service with its tenant set. Tenant `i` owns telemetry
    /// track `i` (named `tenant <name>`); the service's own samples go to
    /// the track after the last tenant.
    pub fn new(cfg: ServiceConfig, tenants: Vec<TenantConfig>, tel: Telemetry) -> Self {
        let rec = match cfg.obs.flight_capacity {
            cap if cap > 0 && !tel.is_enabled() => Telemetry::with_capacity(cap),
            _ => tel.clone(),
        };
        let cfg = ServiceConfig {
            gpus: cfg.gpus.max(1),
            ..cfg
        };
        let engines = cfg.engines.max(1);
        let clusters = (0..engines)
            .map(|_| Cluster::accelerator(cfg.gpus, GpuSpec::gt200()))
            .collect();
        let mut tenant_ix = HashMap::new();
        let tenants: Vec<TenantState> = tenants
            .into_iter()
            .enumerate()
            .map(|(i, cfg)| {
                rec.set_track_name(i as u32, &format!("tenant {}", cfg.name));
                tenant_ix.insert(cfg.name.clone(), i);
                TenantState {
                    cfg,
                    track: i as u32,
                    running: 0,
                }
            })
            .collect();
        let service_track = tenants.len() as u32;
        rec.set_track_name(service_track, "service");
        let names: Vec<String> = tenants.iter().map(|t| t.cfg.name.clone()).collect();
        let slo = SloAccountant::new(cfg.obs.slo, &names);
        let alerting = (tel.is_enabled() && !cfg.obs.alerts.is_empty()).then(|| {
            (
                TimeSeriesStore::new(WINDOW_S, RESOLUTION),
                AlertEngine::new(cfg.obs.alerts.clone()),
            )
        });
        let flight = (cfg.obs.flight_capacity > 0)
            .then(|| FlightRecorder::new(&rec, cfg.obs.flight_capacity));
        JobService {
            cfg,
            tel,
            rec,
            now: 0.0,
            tenants,
            tenant_ix,
            jobs: Vec::new(),
            queue: Vec::new(),
            clusters,
            dicts: DictCache::default(),
            running: (0..engines).map(|_| None).collect(),
            service_track,
            stats: ServiceStats::default(),
            slo,
            alerting,
            flight,
        }
    }

    /// Pass and batching tallies, and job outcomes counted from the
    /// statuses, alerts and postmortems that record them.
    pub fn stats(&self) -> ServiceStats {
        let count = |word: &str| self.jobs.iter().filter(|r| r.status.word() == word).count();
        ServiceStats {
            completed: count("completed") as u64,
            cancelled: count("cancelled") as u64,
            deadline_missed: count("deadline-missed") as u64,
            failed: count("failed") as u64,
            rejected: count("rejected") as u64,
            alerts_fired: self.alerts().len() as u64,
            postmortems: self.postmortems().len() as u64,
            dictionaries_built: self.dicts.built,
            ..self.stats
        }
    }

    /// The service clock, in simulated seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Jobs admitted but not yet running.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// A tenant's currently-running job count (for quota tests).
    pub fn tenant_running(&self, name: &str) -> Option<u32> {
        self.tenant_ix.get(name).map(|&i| self.tenants[i].running)
    }

    /// GPU-seconds charged to a tenant so far.
    pub fn tenant_spent(&self, name: &str) -> Option<f64> {
        self.tenant_ix.get(name).map(|&i| self.spent(i))
    }

    /// The service's telemetry handle (counters, spans, tracks).
    pub fn telemetry(&self) -> &Telemetry {
        &self.tel
    }

    /// Point-in-time per-tenant SLO report as of the current clock.
    pub fn slo_report(&self) -> SloReport {
        self.slo.report(self.now)
    }

    /// Alerts fired so far, in firing order (empty when no rules).
    pub fn alerts(&self) -> &[Alert] {
        self.alerting.as_ref().map_or(&[], |(_, eng)| eng.fired())
    }

    /// Postmortem traces dumped so far (empty when the flight recorder
    /// is off).
    pub fn postmortems(&self) -> &[Postmortem] {
        self.flight
            .as_ref()
            .map_or(&[], FlightRecorder::postmortems)
    }

    /// Submit a job. Always returns an id; rejected submissions surface
    /// through [`JobService::poll`] as [`JobStatus::Rejected`].
    pub fn submit(&mut self, spec: JobSpec) -> JobId {
        let id = JobId(self.jobs.len() as u64 + 1);
        let status = match self.admit(&spec) {
            Ok(()) => JobStatus::Queued,
            Err(reason) => JobStatus::Rejected(reason),
        };
        let admitted = status == JobStatus::Queued;
        self.jobs.push(JobRecord {
            spec,
            submit_s: self.now,
            status,
            outputs: None,
        });
        if let Some(t) = self.tenant_of(id) {
            let track = self.tenants[t].track;
            if admitted {
                self.counter(&format!("service.tenant{track}.jobs_admitted"))
                    .inc();
            } else {
                self.counter(&format!("service.tenant{track}.jobs_rejected"))
                    .inc();
            }
        }
        if let Some(t) = self.tenant_of(id) {
            self.slo.record_submit(t, admitted);
        }
        if admitted {
            self.queue.push(id);
            self.sample_queue_depth();
            self.try_dispatch();
        } else {
            self.counter("service.jobs_rejected").inc();
        }
        self.observe_boundary();
        id
    }

    /// Current status of a job.
    pub fn poll(&self, id: JobId) -> Result<JobStatus, ServiceError> {
        self.record(id)
            .map(|r| r.status.clone())
            .ok_or(ServiceError::UnknownJob(id))
    }

    /// Cancel a queued or running job at the current instant. A running
    /// solo job is stopped where it stands (its run is cancelled,
    /// releasing queued chunks and device memory); a batched member is
    /// discarded while its pass continues for the other members.
    pub fn cancel(&mut self, id: JobId) -> Result<(), ServiceError> {
        let rec = self.record(id).ok_or(ServiceError::UnknownJob(id))?;
        if !rec.status.is_live() {
            return Err(ServiceError::NotCancellable(id));
        }
        let cancelled = |at_s, chunks_committed, chunks_released| JobStatus::Cancelled {
            at_s,
            chunks_committed,
            chunks_released,
        };
        self.stop(id, self.now, "cancelled", cancelled);
        self.try_dispatch();
        self.counter("service.jobs_cancelled").inc();
        self.observe_boundary();
        Ok(())
    }

    /// Per-rank outputs of a completed job.
    pub fn outputs(&self, id: JobId) -> Option<&[KvSet<u32, u32>]> {
        self.record(id)?.outputs.as_deref()
    }

    /// All output pairs of a completed job, concatenated in rank order.
    pub fn merged_output(&self, id: JobId) -> Option<KvSet<u32, u32>> {
        let outs = self.outputs(id)?;
        let mut merged = KvSet::new();
        for o in outs {
            merged.extend_from_set(o);
        }
        Some(merged)
    }

    /// When a job was submitted (service seconds).
    pub fn submitted_at(&self, id: JobId) -> Option<f64> {
        self.record(id).map(|r| r.submit_s)
    }

    /// The job's spec, as submitted.
    pub fn spec(&self, id: JobId) -> Option<&JobSpec> {
        self.record(id).map(|r| &r.spec)
    }

    /// Ids of every job ever submitted, in submission order.
    pub fn job_ids(&self) -> impl Iterator<Item = JobId> + '_ {
        (1..=self.jobs.len() as u64).map(JobId)
    }

    /// Advance the clock to `t`, replaying completion and deadline events
    /// in time order.
    pub fn advance_to(&mut self, t: f64) {
        self.replay_through(t);
        self.now = self.now.max(t);
    }

    /// Run the clock forward until no completion or deadline event
    /// remains. Jobs blocked behind an exhausted budget or concurrency
    /// cap stay `Queued` (they are reported, not dropped). Returns the
    /// final clock.
    pub fn drain(&mut self) -> f64 {
        self.replay_through(f64::INFINITY);
        self.now
    }

    // --- admission -------------------------------------------------------

    fn admit(&self, spec: &JobSpec) -> Result<(), RejectReason> {
        let Some(&tix) = self.tenant_ix.get(&spec.tenant) else {
            return Err(RejectReason::UnknownTenant);
        };
        let tenant = &self.tenants[tix];
        if matches!(spec.kind, JobKind::Wo { dict_words: 0, .. }) {
            return Err(RejectReason::EmptyDictionary);
        }
        if let Some(refusal) = spec.out_of_range().or_else(|| spec.kind.input_too_large()) {
            return Err(refusal);
        }
        if self.queue.len() >= self.cfg.max_queue_depth {
            return Err(RejectReason::QueueFull {
                depth: self.queue.len(),
                max: self.cfg.max_queue_depth,
            });
        }
        // The engine's ChunkTooLarge staging formula, against the
        // tenant's memory share instead of raw capacity.
        let slots = EngineTuning::default().staging_slots();
        let budget_bytes =
            (GpuSpec::gt200().mem_capacity as f64 * tenant.cfg.mem_share.clamp(0.0, 1.0)) as u64;
        let chunk_bytes = spec.kind.chunk_bytes();
        if chunk_bytes.saturating_mul(slots) > budget_bytes {
            return Err(RejectReason::MemoryExceeded {
                chunk_bytes,
                slots,
                budget_bytes,
            });
        }
        let spent_s = self.spent(tix);
        if spent_s >= tenant.cfg.gpu_seconds {
            return Err(RejectReason::BudgetExhausted {
                spent_s,
                budget_s: tenant.cfg.gpu_seconds,
            });
        }
        Ok(())
    }

    // --- event loop ------------------------------------------------------

    /// Replay every completion and deadline event at or before `t` in
    /// time order, moving the clock to each.
    fn replay_through(&mut self, t: f64) {
        while let Some((te, ev)) = self.next_event_at_or_before(t) {
            self.now = self.now.max(te);
            self.handle(ev);
            // Sample at every event boundary, not just on transitions:
            // the queue-depth series must integrate to the total queue
            // wait (Little's law) rather than going stale between events.
            self.sample_queue_depth();
            self.observe_boundary();
        }
    }

    /// Earliest pending event at or before `t`, once every live pass has
    /// stepped to `t` (a solo pass no further than its job's deadline, the
    /// instant its stop needs). Ties break pass end before deadline (a job
    /// finishing exactly at its deadline met it), then by slot/job id —
    /// fully deterministic.
    fn next_event_at_or_before(&mut self, t: f64) -> Option<(f64, Event)> {
        for (pass, cluster) in self.running.iter_mut().zip(&mut self.clusters) {
            if let Some(pass) = pass {
                let rec = &self.jobs[(pass.members[0].0 - 1) as usize];
                let deadline = rec.spec.deadline_s.filter(|_| pass.members.len() == 1);
                pass.step(cluster, deadline.map_or(t, |d| t.min(rec.submit_s + d)));
            }
        }
        let mut best: Option<(f64, u8, u64, Event)> = None;
        let mut consider = |time: f64, rank: u8, id: u64, ev: Event| {
            if time > t {
                return;
            }
            let key = (time, rank, id);
            if best.is_none_or(|(bt, br, bi, _)| key < (bt, br, bi)) {
                best = Some((time, rank, id, ev));
            }
        };
        for (slot, pass) in self.running.iter().enumerate() {
            if let Some(end_s) = pass.as_ref().and_then(Pass::end_s) {
                consider(end_s, 0, slot as u64, Event::Finish(slot));
            }
        }
        for (id, rec) in (1..).map(JobId).zip(&self.jobs) {
            if let Some(d) = rec.spec.deadline_s.filter(|_| rec.status.is_live()) {
                consider(rec.submit_s + d, 1, id.0, Event::Deadline(id));
            }
        }
        best.map(|(time, _, _, ev)| (time, ev))
    }

    fn handle(&mut self, ev: Event) {
        match ev {
            Event::Finish(slot) => self.finish_pass(slot),
            Event::Deadline(id) => self.miss_deadline(id),
        }
        self.try_dispatch();
    }

    fn finish_pass(&mut self, slot: usize) {
        let mut pass = self.running[slot]
            .take()
            .expect("finish event for empty slot");
        let (finish_s, results) = match pass.end.take() {
            Some(PassEnd::Done {
                finish_s, results, ..
            }) => (finish_s, results),
            Some(PassEnd::Failed { error, .. }) => {
                return self.fail(&pass.members, pass.started_s, &error);
            }
            None => unreachable!("a pass ends before its finish event"),
        };
        let n = pass.members.len() as f64;
        let pass_cost = (finish_s - pass.started_s) * f64::from(self.cfg.gpus);
        for (member, outputs) in pass.members.iter().zip(results) {
            let rec = self.record(*member).expect("pass member exists");
            // A member cancelled or deadline-missed mid-pass is already
            // terminal; its share of the pass is discarded.
            if !matches!(rec.status, JobStatus::Running { .. }) {
                continue;
            }
            let submit_s = rec.submit_s;
            let lost_gpu = rec.spec.kill.is_some();
            self.jobs[(member.0 - 1) as usize].outputs = Some(outputs);
            self.finalize(
                *member,
                JobStatus::Completed {
                    started_s: pass.started_s,
                    finished_s: finish_s,
                    wait_s: pass.started_s - submit_s,
                    batched: pass.members.len() > 1,
                },
                Some(pass.started_s),
                pass_cost / n,
            );
            self.counter("service.jobs_completed").inc();
            // The pass survived a GPU fail-stop: the job completed, but
            // the loss itself is postmortem-worthy.
            if lost_gpu {
                self.dump_postmortem("gpu-lost", *member, finish_s, Some(&pass));
            }
        }
    }

    /// Fail the live members of a pass started at `started_s` with the
    /// engine's `error`. A failed pass charges nothing.
    fn fail(&mut self, members: &[JobId], started_s: f64, error: &str) {
        for &id in members {
            if !self.jobs[(id.0 - 1) as usize].status.is_live() {
                continue;
            }
            let status = JobStatus::Failed {
                error: error.to_string(),
            };
            self.finalize(id, status, Some(started_s), 0.0);
            self.counter("service.jobs_failed").inc();
        }
    }

    fn miss_deadline(&mut self, id: JobId) {
        let rec = self.record(id).expect("deadline event for known job");
        let deadline_s = rec.submit_s + rec.spec.deadline_s.expect("deadline event needs deadline");
        let track = self.tenant_of(id).map(|t| self.tenants[t].track);
        let missed = |deadline_s, chunks_committed, chunks_released| JobStatus::DeadlineMissed {
            deadline_s,
            chunks_committed,
            chunks_released,
        };
        self.stop(id, deadline_s, "deadline-missed", missed);
        self.counter("service.deadline_missed").inc();
        if let Some(track) = track {
            self.counter(&format!("service.tenant{track}.deadline_missed"))
                .inc();
        }
    }

    /// Stop live job `id` at `at` (absolute service seconds) as
    /// `status(at, committed, released)` and dump a `reason` postmortem. A
    /// queued job leaves the queue with nothing to account for. A running
    /// solo pass stops where it stands, its slot frees at the stop instant
    /// and the postmortem carries its capture; a batched member is
    /// discarded from its pass (which keeps running for the other members,
    /// and whose end skips it). Either pays for the time it ran.
    fn stop(&mut self, id: JobId, at: f64, reason: &str, status: fn(f64, u32, u32) -> JobStatus) {
        let JobStatus::Running { started_s } = self.jobs[(id.0 - 1) as usize].status else {
            self.remove_queued(id);
            self.finalize(id, status(at, 0, 0), None, 0.0);
            // No engine pass to capture; the service's recording already
            // holds the job's QueueWait span.
            return self.dump_postmortem(reason, id, at, None);
        };
        let slot = self
            .running
            .iter()
            .position(|p| p.as_ref().is_some_and(|p| p.members.contains(&id)))
            .expect("running job has a slot");
        let members = self.running[slot].as_ref().map_or(1, |p| p.members.len());
        let cost = (at - started_s).max(0.0) * f64::from(self.cfg.gpus) / members as f64;
        let mut pass = (members == 1).then(|| self.running[slot].take()).flatten();
        let at_engine = offset(started_s, at);
        let cluster = &mut self.clusters[slot];
        let (committed, released) = pass.as_mut().map_or((0, 0), |p| p.stop(cluster, at_engine));
        self.finalize(id, status(at, committed, released), Some(started_s), cost);
        self.dump_postmortem(reason, id, at, pass.as_ref());
    }

    // --- dispatch --------------------------------------------------------

    /// A queued job is dispatchable when its tenant is under its
    /// concurrency cap and still has budget.
    fn dispatchable(&self, id: JobId, extra_running: &HashMap<usize, u32>) -> bool {
        let Some(tix) = self.tenant_of(id) else {
            return false;
        };
        let t = &self.tenants[tix];
        let running = t.running + extra_running.get(&tix).copied().unwrap_or(0);
        running < t.cfg.max_concurrent && self.spent(tix) < t.cfg.gpu_seconds
    }

    fn try_dispatch(&mut self) {
        loop {
            let Some(slot) = self.running.iter().position(Option::is_none) else {
                return;
            };
            let none = HashMap::new();
            // Highest priority first; submission order breaks ties.
            let Some(&lead) = self
                .queue
                .iter()
                .filter(|&&id| self.dispatchable(id, &none))
                .max_by_key(|&&id| {
                    (
                        self.jobs[(id.0 - 1) as usize].spec.priority,
                        std::cmp::Reverse(id.0),
                    )
                })
            else {
                return;
            };
            let members = self.gather_batch(lead);
            self.dispatch_pass(slot, members);
        }
    }

    /// Starting from the chosen lead job, gather queued batchable jobs
    /// submitted within the batching window (respecting every tenant's
    /// concurrency cap as members accumulate), up to `batch_max`.
    fn gather_batch(&self, lead: JobId) -> Vec<JobId> {
        let lead_rec = &self.jobs[(lead.0 - 1) as usize];
        if !lead_rec.spec.can_batch() || self.cfg.batch_max < 2 {
            return vec![lead];
        }
        let window = self.cfg.batch_window_s;
        let lead_submit = lead_rec.submit_s;
        let mut members = vec![lead];
        let mut extra: HashMap<usize, u32> = HashMap::new();
        if let Some(t) = self.tenant_of(lead) {
            *extra.entry(t).or_default() += 1;
        }
        for &id in &self.queue {
            if members.len() >= self.cfg.batch_max {
                break;
            }
            if id == lead {
                continue;
            }
            let rec = &self.jobs[(id.0 - 1) as usize];
            if !rec.spec.can_batch()
                || (rec.submit_s - lead_submit).abs() > window
                || !self.dispatchable(id, &extra)
            {
                continue;
            }
            members.push(id);
            if let Some(t) = self.tenant_of(id) {
                *extra.entry(t).or_default() += 1;
            }
        }
        members
    }

    fn dispatch_pass(&mut self, slot: usize, members: Vec<JobId>) {
        let started_s = self.now;
        for &id in &members {
            self.remove_queued(id);
        }
        let batched = members.len() > 1;
        let capture = self.engine_capture(&members, started_s);
        match self.start_pass(slot, &members, &capture) {
            Ok(run) => {
                for &id in &members {
                    self.jobs[(id.0 - 1) as usize].status = JobStatus::Running { started_s };
                    if let Some(t) = self.tenant_of(id) {
                        self.tenants[t].running += 1;
                    }
                    let wait = started_s - self.jobs[(id.0 - 1) as usize].submit_s;
                    self.tel
                        .histogram("service.queue_wait_s", QUEUE_WAIT_BOUNDS)
                        .observe(wait);
                }
                self.stats.cluster_passes += 1;
                self.counter("service.cluster_passes").inc();
                if batched {
                    self.stats.batches_formed += 1;
                    self.stats.batched_jobs += members.len() as u64;
                    self.counter("service.batches_formed").inc();
                    self.counter("service.batched_jobs")
                        .add(members.len() as u64);
                }
                self.running[slot] = Some(Pass {
                    members,
                    started_s,
                    live: Some(run),
                    end: None,
                    capture,
                });
            }
            Err(e) => self.fail(&members, started_s, &e.to_string()),
        }
    }

    /// Start the engine run of a pass over `members` — one job, or a
    /// batch of batchable SIO jobs whose chunks are tagged with their batch
    /// slot — on `slot`'s cluster: generate the input (a WO job's
    /// dictionary comes from the cache), build the job, install the solo
    /// job's fault plan (it stays installed for the whole pass), open its
    /// scratch journal and set the run up, recording into `tel`.
    fn start_pass(
        &mut self,
        slot: usize,
        members: &[JobId],
        tel: &Telemetry,
    ) -> EngineResult<Box<dyn LiveRun>> {
        let (cluster, gpus) = (&mut self.clusters[slot], self.cfg.gpus);
        let spec = |id: &JobId| &self.jobs[(id.0 - 1) as usize].spec;
        let [id] = members else {
            let mut all = Vec::new();
            for (slot, id) in members.iter().enumerate() {
                let JobKind::Sio { n, seed, chunk_kb } = spec(id).kind else {
                    unreachable!("only SIO jobs are batchable");
                };
                let chunks = sio_chunks(&generate_integers(n, seed), chunk_kb * 1024);
                all.extend(tag_chunks(slot as u32, all.len() as u32, chunks));
            }
            cluster.set_fault_plan(None);
            let split = |o: Vec<_>, n| split_outputs(&o, n);
            return live(cluster, SioBatchJob, all, tel, false, split);
        };
        let spec = spec(id);
        let mut plan: Option<FaultPlan> = None;
        if let Some((rank, at_s)) = spec.kill {
            plan = Some(plan.unwrap_or_default().kill(rank, at_s));
        }
        if let Some((rank, at_s, dur_s)) = spec.stall {
            plan = Some(plan.unwrap_or_default().stall(rank, at_s, dur_s));
        }
        cluster.set_fault_plan(plan);
        let solo = |o, _| vec![o];
        match spec.kind {
            JobKind::Sio { n, seed, chunk_kb } => {
                let chunks = sio_chunks(&generate_integers(n, seed), chunk_kb * 1024);
                let job = SioJob::default();
                live(cluster, job, chunks, tel, spec.journal, solo)
            }
            JobKind::Wo {
                bytes,
                dict_words,
                seed,
                chunk_kb,
            } => {
                let dict = self.dicts.get(dict_words, seed);
                let text = generate_text(&dict, bytes, second_seed(seed));
                let chunks = chunk_text(&text, chunk_kb * 1024);
                let job = WoJob::new(dict, gpus);
                live(cluster, job, chunks, tel, spec.journal, solo)
            }
        }
    }

    // --- bookkeeping -----------------------------------------------------

    /// Move a job to a terminal state: set the status, emit its queue-wait
    /// and execution spans, release its tenant concurrency slot if it was
    /// running, and charge `gpu_seconds` to the tenant's budget.
    /// `started_s` is the dispatch instant for jobs that ran (None for
    /// jobs that never left the queue).
    fn finalize(&mut self, id: JobId, status: JobStatus, started_s: Option<f64>, gpu_seconds: f64) {
        let ix = (id.0 - 1) as usize;
        let was_running = matches!(self.jobs[ix].status, JobStatus::Running { .. });
        let submit_s = self.jobs[ix].submit_s;
        let kind = self.jobs[ix].spec.kind.name();
        self.jobs[ix].status = status.clone();
        let Some(t) = self.tenant_of(id) else {
            return;
        };
        if was_running {
            self.tenants[t].running = self.tenants[t].running.saturating_sub(1);
        }
        let track = self.tenants[t].track;
        let end_s = match status {
            JobStatus::Completed { finished_s, .. } => finished_s,
            JobStatus::Cancelled { at_s, .. } => at_s,
            JobStatus::DeadlineMissed { deadline_s, .. } => deadline_s,
            _ => self.now,
        };
        self.slo
            .record_terminal(t, &status, submit_s, started_s, end_s, gpu_seconds);
        // Queue wait is a first-class stage: `gpmr analyze` attributes it
        // separately from engine execution time. A postmortem dumped next
        // covers both spans, so it always carries the triggering job.
        let wait_end = started_s.unwrap_or(end_s).max(submit_s);
        self.rec
            .span(track, SpanKind::QueueWait.name(), submit_s, wait_end)
            .name(format!("{id} wait"))
            .attr("job", id.to_string())
            .attr("kind", kind)
            .record();
        if let Some(s) = started_s {
            self.rec
                .span(track, SpanKind::Job.name(), s.min(end_s), end_s)
                .name(id.to_string())
                .attr("job", id.to_string())
                .attr("kind", kind)
                .attr("outcome", status.word())
                .record();
        }
    }

    fn remove_queued(&mut self, id: JobId) {
        self.queue.retain(|&q| q != id);
        self.sample_queue_depth();
    }

    fn sample_queue_depth(&self) {
        let depth = self.queue.len() as f64;
        self.tel.gauge("service.queue_depth").set(depth);
        self.rec
            .sample(self.service_track, "service.queue_depth", self.now, depth);
    }

    /// Feed the windowed time series from the registry and evaluate the
    /// alert rules. Called at every event boundary (submit, cancel, and
    /// each replayed completion/deadline event), so windows and alert
    /// firings are a deterministic function of the virtual clock.
    fn observe_boundary(&mut self) {
        let Some((ts, eng)) = &mut self.alerting else {
            return;
        };
        if let Some(reg) = self.tel.registry() {
            ts.collect(self.now, &reg.snapshot());
        }
        for alert in eng.eval(self.now, ts) {
            if let Some(f) = &mut self.flight {
                f.dump("alert", &alert.rule, alert.at_s, None);
            }
        }
    }

    /// A bounded telemetry handle for capturing a solo engine pass from
    /// dispatch when the flight recorder is on (any of them may end in a
    /// postmortem), placed where a postmortem draws it: at the dispatch
    /// instant on the service clock, on tracks past the service track,
    /// under the job's name. Disabled otherwise (zero engine overhead).
    fn engine_capture(&self, members: &[JobId], started_s: f64) -> Telemetry {
        match (&self.flight, members) {
            (Some(_), [id]) => Telemetry::with_capacity(self.cfg.obs.flight_capacity).placed(
                started_s,
                self.service_track + 1,
                &id.to_string(),
            ),
            _ => Telemetry::disabled(),
        }
    }

    /// Dump a postmortem for `id`, followed by the capture of the
    /// triggering pass when it has one.
    fn dump_postmortem(&mut self, reason: &str, id: JobId, at_s: f64, pass: Option<&Pass>) {
        if let Some(f) = &mut self.flight {
            f.dump(reason, &id.to_string(), at_s, pass.map(|p| &p.capture));
        }
    }

    /// GPU-seconds charged to tenant `t`: its SLO tally, which `finalize`
    /// charges.
    fn spent(&self, t: usize) -> f64 {
        self.slo.tenant(t).map_or(0.0, |s| s.gpu_seconds)
    }

    fn counter(&self, name: &str) -> Counter {
        self.tel.counter(name)
    }

    fn record(&self, id: JobId) -> Option<&JobRecord> {
        if id.0 == 0 {
            return None;
        }
        self.jobs.get((id.0 - 1) as usize)
    }

    fn tenant_of(&self, id: JobId) -> Option<usize> {
        self.record(id)
            .and_then(|r| self.tenant_ix.get(&r.spec.tenant).copied())
    }
}

// --- engine passes -------------------------------------------------------

/// Per-member, per-rank outputs of a pass.
type Outputs = Vec<Vec<KvSet<u32, u32>>>;
/// How a job's per-rank outputs split over a pass's `n` members.
type Split<K, V> = fn(Vec<KvSet<K, V>>, usize) -> Outputs;

/// An engine result whose error carries the instant the engine met it.
type Met<T> = Result<T, (SimTime, EngineError)>;

/// A pass's engine run, whatever its job type.
trait LiveRun {
    fn step_until(&mut self, cluster: &mut Cluster, t: SimTime) -> Met<bool>;
    /// Run to the end: the outputs of the pass's `n` members, the makespan
    /// in seconds, and the chunks the map stage committed. It fails at the
    /// instant the map stage ended.
    fn finish(self: Box<Self>, cluster: &mut Cluster, n: usize) -> Met<(Outputs, f64, u32)>;
    fn cancel(self: Box<Self>, cluster: &mut Cluster, at: SimTime) -> EngineError;
}

/// A [`Run`] with what each of its calls takes — the job and the pass's
/// scratch journal — and how its outputs split per member.
struct Live<J: GpmrJob> {
    run: Run<J>,
    job: J,
    journal: Option<Scratch>,
    split: Split<J::Key, J::Value>,
}

impl<J: GpmrJob> LiveRun for Live<J> {
    fn step_until(&mut self, cluster: &mut Cluster, t: SimTime) -> Met<bool> {
        let journal = self.journal.as_mut().map(|s| &mut s.0);
        let stepped = self.run.step_until(cluster, &self.job, journal, t);
        stepped.map_err(|e| (self.run.clock(), e))
    }

    fn finish(self: Box<Self>, cluster: &mut Cluster, n: usize) -> Met<(Outputs, f64, u32)> {
        let mut live = *self;
        let (at, journal) = (live.run.clock(), live.journal.as_mut().map(|s| &mut s.0));
        let finished = live.run.finish(cluster, &live.job, journal);
        let r = finished.map_err(|e| (at, e))?;
        let chunks = r.timings.chunks_per_rank.iter().sum();
        let makespan_s = r.timings.total.as_secs();
        Ok(((live.split)(r.outputs, n), makespan_s, chunks))
    }

    fn cancel(self: Box<Self>, cluster: &mut Cluster, at: SimTime) -> EngineError {
        self.run.cancel(cluster, at)
    }
}

/// The journal of a service-managed job. The journal layer is
/// file-based, so the pass journals into a throwaway file, removed when
/// the pass ends or the service is dropped.
struct Scratch(Journal);

static JOURNAL_SEQ: AtomicU64 = AtomicU64::new(0);

impl Scratch {
    fn create() -> EngineResult<Self> {
        let seq = JOURNAL_SEQ.fetch_add(1, Ordering::Relaxed);
        let name = format!("gpmr-service-{}-{}.jnl", std::process::id(), seq);
        let path = std::env::temp_dir().join(name);
        Ok(Scratch(Journal::create(path, 1)?))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(self.0.path());
    }
}

/// Set `job`'s run over `chunks` up, journaled into a scratch file when
/// asked.
fn live<J: GpmrJob + 'static>(
    cluster: &mut Cluster,
    job: J,
    chunks: Vec<J::Chunk>,
    tel: &Telemetry,
    journaled: bool,
    split: Split<J::Key, J::Value>,
) -> EngineResult<Box<dyn LiveRun>> {
    let mut journal = journaled.then(Scratch::create).transpose()?;
    let mut opts = RunOpts {
        tel: tel.clone(),
        journal: journal.as_mut().map(|s| &mut s.0),
        ..RunOpts::default()
    };
    let run = Run::new(cluster, &job, chunks, &mut opts)?;
    Ok(Box::new(Live {
        run,
        job,
        journal,
        split,
    }))
}
