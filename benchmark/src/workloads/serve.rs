//! `serve_mix`: hundreds of tiny jobs through the multi-tenant service,
//! open loop on the simulated clock.
//!
//! The traffic shape — which tenant submits which kind of job when, with
//! which flags — is generated once from a constant, like a committed
//! `.wl` file; `--seed` generates the *contents* of the jobs (their input
//! data, hence their exact makespans and outputs). Arrivals follow the
//! schedule whether or not earlier jobs have finished (open loop), at an
//! offered load of [`OFFERED_LOAD`] of the engine pool computed from the
//! jobs' stand-alone makespans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use gpmr::apps::sio::{self, SioJob};
use gpmr::apps::text::{self, Dictionary};
use gpmr::apps::wo::{self, WoJob};
use gpmr::core::journal::hash_pairs;
use gpmr::core::{run_job_instrumented, EngineTuning, KvSet};
use gpmr::service::workload::{self, Action, Workload as Script};
use gpmr::service::{JobId, JobKind, JobService, JobStatus, ObsConfig, ServiceConfig};
use gpmr::sim_gpu::GpuSpec;
use gpmr::sim_net::Cluster;
use gpmr::telemetry::{AlertRule, Telemetry};

use super::apps::{sio_digest, EngineCounts};
use super::{Observed, PassOutcome, SplitMix64, Workload, APP_SPANS};
use crate::host::quantile;
use crate::trace::{Metrics, Tracer};

/// The service-layer metrics, reported as 0 by workloads that do not run
/// the service.
pub const SERVICE_METRICS: [(&str, &str); 16] = [
    ("service.workload.parse_ms", "ms"),
    ("service.submit_us", "us"),
    ("service.cancel_us", "us"),
    ("service.advance_s", "s"),
    ("service.drain_s", "s"),
    ("service.slo_report_ms", "ms"),
    ("service.host_us_per_job", "us"),
    ("service.jobs_submitted", "count"),
    ("service.jobs_finished", "count"),
    ("service.jobs_rejected", "count"),
    ("service.jobs_cancelled", "count"),
    ("service.jobs_deadline_missed", "count"),
    ("service.jobs_failed", "count"),
    ("service.passes", "count"),
    ("service.batched_passes", "count"),
    ("service.queue_wait_p95_s", "s"),
];

/// Jobs per pass (smoke mode: 1/16).
const JOBS: usize = 800;
/// Offered load: arrival rate × mean stand-alone makespan ÷ engines.
const OFFERED_LOAD: f64 = 0.9;
/// Seed of the traffic shape (not of the job contents).
const SHAPE_SEED: u64 = 0x5e72_7665;
/// Distinct job inputs the traffic draws from: tenants re-run the same
/// few dozen jobs, so set-up computes each reference once.
const SIO_SIZES: [usize; 4] = [20_000, 30_000, 40_000, 60_000];
const WO_SIZES: [usize; 3] = [32_768, 65_536, 98_304];
const INPUTS_PER_SIZE: u64 = 6;
const WO_DICT_WORDS: usize = 512;
const CHUNK_KB: usize = 16;
/// A cancelled job is cancelled this long after its submission.
const CANCEL_AFTER_S: f64 = 0.0003;
/// A killed job loses GPU 1 this long after it starts.
const KILL_AFTER_S: f64 = 0.0005;
/// A job with a deadline gets this multiple of its stand-alone makespan.
const DEADLINE_FACTOR: f64 = 2.0;
/// Tenant `capped` runs at most this many jobs at once.
const CAPPED_MAX_CONCURRENT: u32 = 1;
/// Tenant `metered` may spend this share of the GPU-seconds its jobs
/// would need stand-alone; submissions after that are rejected.
const METERED_BUDGET_SHARE: f64 = 0.8;
/// The alert rules of the operator's `gpmr serve --alerts`.
const ALERT_RULES: &str =
    "backlog: last(service.queue_depth) > 12 for 0.002; misses: sum(service.deadline_missed) > 20";
const FLIGHT_CAPACITY: usize = 4096;

/// One distinct job input: its spec, stand-alone makespan and the digest
/// of its CPU reference.
struct Input {
    kind: JobKind,
    solo_s: f64,
    reference: u64,
}

pub struct ServeMix {
    script: String,
    inputs: Vec<Input>,
    /// Input index of job `i` (submission order).
    job_input: Vec<usize>,
    gpus: u32,
}

fn service_config(observed: bool) -> ServiceConfig {
    let obs = if observed {
        ObsConfig {
            alerts: AlertRule::parse_list(ALERT_RULES).expect("the alert rules parse"),
            flight_capacity: FLIGHT_CAPACITY,
            ..ObsConfig::default()
        }
    } else {
        ObsConfig::default()
    };
    ServiceConfig {
        obs,
        ..ServiceConfig::default()
    }
}

fn telemetry(observed: bool) -> Telemetry {
    if observed {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    }
}

/// One stand-alone run of a job input on a service-sized cluster.
struct Solo {
    /// Simulated makespan.
    sim_s: f64,
    /// Host seconds inside the engine call.
    engine_s: f64,
    counts: EngineCounts,
}

/// Generate a job's input the way the service does and run it alone.
fn run_solo(kind: &JobKind, gpus: u32, tel: &Telemetry) -> Solo {
    let mut cluster = Cluster::accelerator(gpus, GpuSpec::gt200());
    let tuning = EngineTuning::default();
    let began;
    let timings = match *kind {
        JobKind::Sio { n, seed, chunk_kb } => {
            let data = sio::generate_integers(n, seed);
            let chunks = sio::sio_chunks(&data, chunk_kb * 1024);
            began = Instant::now();
            run_job_instrumented(&mut cluster, &SioJob::default(), chunks, &tuning, tel)
                .map(|r| r.timings)
        }
        JobKind::Wo {
            bytes,
            dict_words,
            seed,
            chunk_kb,
        } => {
            let dict = std::sync::Arc::new(Dictionary::generate(dict_words, seed));
            let corpus = text::generate_text(&dict, bytes, seed.wrapping_add(1));
            let chunks = text::chunk_text(&corpus, chunk_kb * 1024);
            began = Instant::now();
            run_job_instrumented(&mut cluster, &WoJob::new(dict, gpus), chunks, &tuning, tel)
                .map(|r| r.timings)
        }
    }
    .expect("the job inputs are sized so that no stand-alone run fails");
    let engine_s = began.elapsed().as_secs_f64();
    let mut counts = EngineCounts::default();
    counts.add_timings(&timings);
    Solo {
        sim_s: timings.total.as_secs(),
        engine_s,
        counts,
    }
}

/// Digest of a job's CPU reference, in the order the service returns a
/// completed job's merged output.
fn reference_digest(kind: &JobKind, gpus: u32) -> u64 {
    match *kind {
        JobKind::Sio { n, seed, .. } => {
            let data = sio::generate_integers(n, seed);
            sio_digest(sio::cpu_reference(&data).into_iter().collect(), gpus)
        }
        JobKind::Wo {
            bytes,
            dict_words,
            seed,
            ..
        } => {
            let dict = Dictionary::generate(dict_words, seed);
            let corpus = text::generate_text(&dict, bytes, seed.wrapping_add(1));
            hash_pairs::<u32, u32>(&wo::cpu_reference(&dict, &corpus), &[])
        }
    }
}

/// Digest of a completed job's output, comparable to [`reference_digest`].
fn output_digest(kind: &JobKind, out: &KvSet<u32, u32>) -> u64 {
    match *kind {
        JobKind::Sio { .. } => hash_pairs(&out.keys, &out.vals),
        JobKind::Wo { dict_words, .. } => {
            let mut counts = vec![0u32; dict_words];
            for (k, v) in out.iter() {
                counts[*k as usize] += *v;
            }
            hash_pairs::<u32, u32>(&counts, &[])
        }
    }
}

fn kind_words(kind: &JobKind) -> String {
    match *kind {
        JobKind::Sio { n, seed, chunk_kb } => format!("sio n={n} seed={seed} chunk_kb={chunk_kb}"),
        JobKind::Wo {
            bytes,
            dict_words,
            seed,
            chunk_kb,
        } => format!("wo bytes={bytes} dict={dict_words} seed={seed} chunk_kb={chunk_kb}"),
    }
}

impl ServeMix {
    pub fn new(seed: u64, smoke: bool, tr: &mut Tracer) -> Self {
        let gpus = ServiceConfig::default().gpus;
        let engines = ServiceConfig::default().engines as f64;
        let jobs = if smoke { JOBS / 16 } else { JOBS };

        // Job contents, from the run's seed.
        let mut kinds = Vec::new();
        for (s, &n) in SIO_SIZES.iter().enumerate() {
            for i in 0..INPUTS_PER_SIZE {
                kinds.push(JobKind::Sio {
                    n,
                    seed: seed.wrapping_mul(1000) + s as u64 * 100 + i,
                    chunk_kb: CHUNK_KB,
                });
            }
        }
        let sio_inputs = kinds.len();
        for (s, &bytes) in WO_SIZES.iter().enumerate() {
            for i in 0..INPUTS_PER_SIZE {
                kinds.push(JobKind::Wo {
                    bytes,
                    dict_words: WO_DICT_WORDS,
                    seed: seed.wrapping_mul(1000) + 500 + s as u64 * 100 + i,
                    chunk_kb: CHUNK_KB,
                });
            }
        }
        let inputs: Vec<Input> = kinds
            .into_iter()
            .map(|kind| {
                // The input is generated inside the stand-alone run that
                // measures its makespan, as the service will generate it.
                let solo_s = tr.span("apps.generate", |_| {
                    run_solo(&kind, gpus, &Telemetry::disabled()).sim_s
                });
                let reference = tr.span("apps.reference", |_| reference_digest(&kind, gpus));
                Input {
                    kind,
                    solo_s,
                    reference,
                }
            })
            .collect();

        // Traffic shape, from a constant.
        let mut rng = SplitMix64(SHAPE_SEED);
        struct Planned {
            tenant: &'static str,
            input: usize,
            flags: String,
            cancel: bool,
        }
        let mut planned = Vec::with_capacity(jobs);
        let mut metered_solo_s = 0.0;
        for j in 0..jobs {
            let mix = rng.below(100);
            let (input, mut flags) = match mix {
                // 55 % plain SIO, half of it batchable.
                0..=54 => (
                    rng.below(sio_inputs as u64) as usize,
                    if mix.is_multiple_of(2) { " batch" } else { "" }.to_string(),
                ),
                // 30 % WO.
                55..=84 => (
                    sio_inputs + rng.below((inputs.len() - sio_inputs) as u64) as usize,
                    String::new(),
                ),
                // 10 % SIO that loses a GPU mid-job.
                85..=94 => (
                    rng.below(sio_inputs as u64) as usize,
                    format!(" kill=1@{KILL_AFTER_S}"),
                ),
                // 5 % journaled SIO.
                _ => (
                    rng.below(sio_inputs as u64) as usize,
                    " journal".to_string(),
                ),
            };
            if j % 6 == 5 {
                let _ = write!(
                    flags,
                    " deadline={:.6}",
                    DEADLINE_FACTOR * inputs[input].solo_s
                );
            }
            let tenant = match rng.below(20) {
                0..=6 => "capped",
                7..=11 => "metered",
                _ => "open",
            };
            if tenant == "metered" {
                metered_solo_s += inputs[input].solo_s;
            }
            planned.push(Planned {
                tenant,
                input,
                flags,
                cancel: j % 23 == 22,
            });
        }
        let mean_solo_s = planned.iter().map(|p| inputs[p.input].solo_s).sum::<f64>() / jobs as f64;
        let mean_gap_s = mean_solo_s / (engines * OFFERED_LOAD);

        let mut script = String::new();
        let _ = writeln!(
            script,
            "tenant capped max_concurrent={CAPPED_MAX_CONCURRENT}"
        );
        let _ = writeln!(
            script,
            "tenant metered gpu_seconds={:.6}",
            METERED_BUDGET_SHARE * metered_solo_s * f64::from(gpus)
        );
        let _ = writeln!(script, "tenant open");
        let mut at = 0.0;
        for (j, p) in planned.iter().enumerate() {
            at += -rng.unit().ln() * mean_gap_s;
            let _ = writeln!(
                script,
                "at {at:.6} submit {} {}{}",
                p.tenant,
                kind_words(&inputs[p.input].kind),
                p.flags
            );
            if p.cancel {
                let _ = writeln!(script, "at {:.6} cancel job{}", at + CANCEL_AFTER_S, j + 1);
            }
        }

        ServeMix {
            script,
            job_input: planned.iter().map(|p| p.input).collect(),
            inputs,
            gpus,
        }
    }

    /// Judge a drained service: latencies, correctness, exact counts.
    fn judge(&self, svc: &JobService, tr: &mut Tracer) -> PassOutcome {
        tr.span("apps.verify", |_| {
            let mut latencies = Vec::new();
            let mut waits = Vec::new();
            let mut by_status: BTreeMap<&'static str, u64> = BTreeMap::new();
            let mut ok = 0;
            let mut mismatched = 0;
            for (ix, id) in svc.job_ids().enumerate() {
                let status = svc.poll(id).expect("listed job exists");
                *by_status.entry(status.word()).or_default() += 1;
                if let JobStatus::Completed {
                    finished_s, wait_s, ..
                } = status
                {
                    latencies.push(finished_s - svc.submitted_at(id).expect("listed job exists"));
                    waits.push(wait_s);
                    let input = &self.inputs[self.job_input[ix]];
                    let out = svc.merged_output(id).expect("completed job has output");
                    if output_digest(&input.kind, &out) == input.reference {
                        ok += 1;
                    } else {
                        mismatched += 1;
                    }
                }
            }
            let count = |word: &str| by_status.get(word).copied().unwrap_or(0);
            let submitted = self.job_input.len() as u64;
            let stats = svc.stats();
            PassOutcome {
                sim_makespan_s: svc.now(),
                job_latencies_s: latencies,
                attempted: submitted - count("cancelled"),
                ok,
                failed: mismatched + count("failed"),
                counts: vec![
                    ("jobs_submitted", submitted),
                    ("jobs_finished", count("completed")),
                    ("jobs_mismatched", mismatched),
                    ("jobs_rejected", count("rejected")),
                    ("jobs_cancelled", count("cancelled")),
                    ("jobs_deadline_missed", count("deadline-missed")),
                    ("jobs_failed", count("failed")),
                    ("jobs_left_queued", count("queued") + count("running")),
                    (
                        "jobs_waited",
                        waits.iter().filter(|&&w| w > 0.0).count() as u64,
                    ),
                    ("passes", stats.cluster_passes),
                    ("batched_passes", stats.batches_formed),
                    ("alerts_fired", stats.alerts_fired),
                    ("postmortems", stats.postmortems),
                    (
                        "queue_wait_p95_ns",
                        (quantile(&waits, 0.95) * 1e9).round() as u64,
                    ),
                ],
            }
        })
    }

    /// The pass as `gpmr serve` runs it: parse the script, run it.
    fn serve(&self, observed: bool, tr: &mut Tracer) -> PassOutcome {
        let script = tr.span("service.workload.parse", |_| {
            workload::parse(&self.script).expect("the generated script parses")
        });
        let (svc, _report) = tr.span("service.workload.run", |_| {
            workload::run(&script, service_config(observed), telemetry(observed))
        });
        self.judge(&svc, tr)
    }

    /// The same pass with the harness stepping the service itself, so
    /// each service call gets its own span.
    fn serve_stepped(&self, script: &Script, tr: &mut Tracer) -> (JobService, PassOutcome) {
        let mut svc = JobService::new(
            service_config(true),
            script.tenants.clone(),
            telemetry(true),
        );
        // `workload::run` applies events in time order, ties in file order.
        let mut order: Vec<usize> = (0..script.events.len()).collect();
        order.sort_by(|&a, &b| script.events[a].0.total_cmp(&script.events[b].0));
        for ix in order {
            let (t, action) = &script.events[ix];
            tr.span("service.advance", |_| svc.advance_to(*t));
            match action {
                Action::Submit(spec) => {
                    tr.span("service.submit", |_| svc.submit(spec.clone()));
                }
                Action::Cancel(name) => {
                    let id = JobId::parse(name).expect("the generated script names jobs");
                    // A job that already finished or was rejected refuses.
                    let _ = tr.span("service.cancel", |_| svc.cancel(id));
                }
            }
        }
        tr.span("service.drain", |_| svc.drain());
        tr.span("service.slo_report", |_| {
            std::hint::black_box(svc.slo_report().render_text());
        });
        let outcome = self.judge(&svc, tr);
        (svc, outcome)
    }
}

fn count_of(counts: &[(&'static str, u64)], name: &str) -> f64 {
    counts
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0, |(_, v)| *v) as f64
}

/// The mix must actually load the service, or the workload measures
/// nothing: most jobs queue, batches form, deadlines are missed, and
/// rejections stay the exception.
fn assert_load_bearing(counts: &[(&'static str, u64)]) {
    let get = |name: &str| count_of(counts, name);
    let submitted = get("jobs_submitted");
    assert!(
        get("jobs_waited") >= 0.5 * get("jobs_finished"),
        "serve_mix: fewer than half of the finished jobs queued: {counts:?}"
    );
    let floor = if submitted >= 400.0 { 20.0 } else { 1.0 };
    assert!(
        get("batched_passes") >= floor,
        "serve_mix: too few batched passes: {counts:?}"
    );
    assert!(
        get("jobs_deadline_missed") >= 0.05 * submitted,
        "serve_mix: fewer than 5 % deadline misses: {counts:?}"
    );
    assert!(
        get("jobs_rejected") <= 0.15 * submitted,
        "serve_mix: more than 15 % rejections: {counts:?}"
    );
}

impl Workload for ServeMix {
    fn pass(&self, tr: &mut Tracer) -> PassOutcome {
        let out = self.serve(true, tr);
        assert_load_bearing(&out.counts);
        out
    }

    fn traced_pass(
        &self,
        pass: u32,
        plain_wall_s: f64,
        tr: &mut Tracer,
        m: &mut Metrics,
    ) -> (PassOutcome, Observed) {
        let script = tr.span("service.workload.parse", |_| {
            workload::parse(&self.script).expect("the generated script parses")
        });
        let started = Instant::now();
        let (svc, out) = self.serve_stepped(&script, tr);
        let wall_s = started.elapsed().as_secs_f64();

        let count = |name: &str| count_of(&out.counts, name);
        let per_call_us =
            |name: &str| tr.total_s(name, pass) / tr.count(name, pass).max(1) as f64 * 1e6;
        m.put(
            "service.workload.parse_ms",
            tr.total_s("service.workload.parse", pass) * 1e3,
            "ms",
        );
        m.put("service.submit_us", per_call_us("service.submit"), "us");
        m.put("service.cancel_us", per_call_us("service.cancel"), "us");
        m.put(
            "service.advance_s",
            tr.total_s("service.advance", pass),
            "s",
        );
        m.put("service.drain_s", tr.total_s("service.drain", pass), "s");
        m.put(
            "service.slo_report_ms",
            tr.total_s("service.slo_report", pass) * 1e3,
            "ms",
        );
        m.put(
            "service.host_us_per_job",
            wall_s / count("jobs_submitted") * 1e6,
            "us",
        );
        for name in [
            "jobs_submitted",
            "jobs_finished",
            "jobs_rejected",
            "jobs_cancelled",
            "jobs_deadline_missed",
            "jobs_failed",
            "passes",
            "batched_passes",
        ] {
            m.put(&format!("service.{name}"), count(name), "count");
        }
        m.put(
            "service.queue_wait_p95_s",
            count("queue_wait_p95_ns") * 1e-9,
            "s",
        );
        for name in APP_SPANS {
            m.put(&format!("{name}_s"), 0.0, "s");
        }
        // What the operator's telemetry, alerts and flight recorder add:
        // the gated pass over the same pass with all of it off.
        let began = Instant::now();
        self.serve(false, &mut Tracer::new(false));
        let dark_s = began.elapsed().as_secs_f64();
        m.put(
            "telemetry.pass_overhead_share",
            (plain_wall_s - dark_s) / dark_s,
            "ratio",
        );

        // The service runs its engine passes with telemetry off, so the
        // engine-level view comes from instrumented stand-alone runs of
        // the job inputs, each weighted by the jobs that use it.
        let mut uses = vec![0u32; self.inputs.len()];
        for &i in &self.job_input {
            uses[i] += 1;
        }
        let mut seen = Observed {
            ranks: self.gpus,
            key_space: *SIO_SIZES.iter().max().expect("sizes") as u64,
            ..Observed::default()
        };
        for (input, &times) in self.inputs.iter().zip(&uses) {
            if times == 0 {
                continue;
            }
            let tel = Telemetry::enabled();
            let solo = run_solo(&input.kind, self.gpus, &tel);
            seen.engine_s += solo.engine_s * f64::from(times);
            seen.absorb(&tel.snapshot(), self.gpus, times);
            for _ in 0..times {
                seen.counts.add(&solo.counts);
            }
            seen.input_items += u64::from(times)
                * match input.kind {
                    JobKind::Sio { n, .. } => n as u64,
                    JobKind::Wo { bytes, .. } => bytes as u64,
                };
        }
        // The time-series replay wants the service's registry, not an
        // engine's.
        seen.registry = svc.telemetry().registry().map(|r| r.snapshot());
        (out, seen)
    }
}
