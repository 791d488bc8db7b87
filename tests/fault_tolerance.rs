//! Fault-tolerance chaos suite — the headline guarantee of the
//! fault-injection harness, enforced end to end:
//!
//! * any fault plan that leaves at least one GPU alive produces output
//!   **bit-identical** to the fault-free run (data is computed for real;
//!   only simulated time may change);
//! * killing every GPU yields a typed [`EngineError::GpuLost`], never a
//!   panic or a wrong answer;
//! * recovery work (kills, requeues, retries, stalls) is visible in
//!   [`JobTimings`] and in the execution trace;
//! * identical fault seeds reproduce identical plans, traces, and
//!   timings.

use std::sync::Arc;

use gpmr::apps::mm::run_mm_auto;
use gpmr::apps::{text, wo};
use gpmr::core::{
    run_job, run_job_instrumented, EngineError, EngineResult, EngineTuning, JobResult, JobTimings,
    MAX_TRANSFER_RETRIES,
};
use gpmr::prelude::*;
use gpmr::sim_gpu::{FaultEvent, FaultPlan};
use gpmr::sim_net::TransferFault;
use gpmr::telemetry::{SpanKind, Telemetry, TelemetrySnapshot};
use gpmr_apps::sio::{self, sio_chunks};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A job result with the recording of the run.
type Recorded<J> = (
    JobResult<<J as GpmrJob>::Key, <J as GpmrJob>::Value>,
    TelemetrySnapshot,
);

/// Run `job` recording into a private telemetry handle; returns the
/// result with the recording.
fn run_recorded<J: GpmrJob>(
    cluster: &mut Cluster,
    job: &J,
    chunks: Vec<J::Chunk>,
) -> EngineResult<Recorded<J>> {
    let tel = Telemetry::enabled();
    let result = run_job_instrumented(cluster, job, chunks, &EngineTuning::default(), &tel)?;
    Ok((result, tel.snapshot()))
}

const RANKS: u32 = 4;

fn sio_data() -> Vec<u32> {
    sio::generate_integers(80_000, 11)
}

fn cluster_with(plan: Option<FaultPlan>) -> Cluster {
    let mut cluster = Cluster::accelerator(RANKS, GpuSpec::gt200());
    cluster.set_fault_plan(plan);
    cluster
}

/// Run the (integer-exact) SIO job under `plan`.
fn run_sio(plan: Option<FaultPlan>) -> (Vec<KvSet<u32, u32>>, JobTimings) {
    run_sio_on(RANKS, plan)
}

/// The same SIO job on a cluster of `ranks` GPUs (elasticity tests start
/// with spare, not-yet-joined GPUs beyond rank `RANKS`).
fn run_sio_on(ranks: u32, plan: Option<FaultPlan>) -> (Vec<KvSet<u32, u32>>, JobTimings) {
    let data = sio_data();
    let mut cluster = Cluster::accelerator(ranks, GpuSpec::gt200());
    cluster.set_fault_plan(plan);
    let result = run_job(
        &mut cluster,
        &SioJob::default(),
        sio_chunks(&data, 16 * 1024),
    )
    .expect("job should survive");
    (result.outputs, result.timings)
}

/// Fault-free makespan in seconds, used to aim kills mid-job.
fn fault_free_makespan() -> f64 {
    run_sio(None).1.total.as_secs()
}

#[test]
fn single_mid_job_kill_is_bit_identical() {
    let (base_out, base_t) = run_sio(None);
    let plan = FaultPlan::new().kill(1, base_t.total.as_secs() * 0.3);

    let (out, t) = run_sio(Some(plan));
    assert_eq!(out, base_out, "outputs diverged after a mid-job GPU kill");
    assert_eq!(t.gpus_lost, 1);
    assert!(
        t.chunks_requeued > 0,
        "a mid-job kill must orphan and requeue chunks"
    );
}

#[test]
fn staggered_kills_down_to_one_survivor_preserve_output() {
    let (base_out, base_t) = run_sio(None);
    let horizon = base_t.total.as_secs();
    let plan = FaultPlan::new()
        .kill(1, horizon * 0.25)
        .kill(2, horizon * 0.40)
        .kill(3, horizon * 0.55);

    let (out, t) = run_sio(Some(plan));
    assert_eq!(out, base_out, "outputs diverged with 3 of 4 GPUs killed");
    assert_eq!(t.gpus_lost, 3);
    assert!(t.chunks_requeued > 0);
}

#[test]
fn killing_every_gpu_is_a_typed_error() {
    let mut plan = FaultPlan::new();
    for r in 0..RANKS {
        plan = plan.kill(r, 1e-6);
    }
    let data = sio_data();
    let mut cluster = cluster_with(Some(plan));
    let err = run_job(
        &mut cluster,
        &SioJob::default(),
        sio_chunks(&data, 16 * 1024),
    )
    .expect_err("no GPU left to run on");
    assert!(
        matches!(err, EngineError::GpuLost { .. }),
        "expected GpuLost, got {err}"
    );
}

#[test]
fn accumulate_mode_survives_a_mid_job_kill() {
    // WO runs in Accumulation mode: the per-GPU accumulation state dies
    // with the device, so every chunk folded into it must be rerun.
    let dict = Arc::new(Dictionary::generate(300, 11));
    let corpus = text::generate_text(&dict, 120_000, 12);
    let expect = wo::cpu_reference(&dict, &corpus);
    let job = WoJob::new(dict.clone(), RANKS);

    let base = run_job(
        &mut cluster_with(None),
        &job,
        text::chunk_text(&corpus, 16 * 1024),
    )
    .expect("fault-free run");
    let kill_at = base.timings.total.as_secs() * 0.35;

    let faulted = run_job(
        &mut cluster_with(Some(FaultPlan::new().kill(2, kill_at))),
        &job,
        text::chunk_text(&corpus, 16 * 1024),
    )
    .expect("faulted run survives");

    assert_eq!(faulted.timings.gpus_lost, 1);
    assert_eq!(
        faulted.outputs, base.outputs,
        "accumulate-mode outputs diverged after a kill"
    );
    assert_eq!(
        wo::counts_from_output(&dict, &faulted.merged_output()),
        expect,
        "word counts no longer match the CPU reference"
    );
}

#[test]
fn transient_transfer_failures_retry_and_converge() {
    let (base_out, _) = run_sio(None);
    // Every 0 -> 1 transfer fails twice before the third attempt lands;
    // two retries fit well inside the default budget of 8.
    let plan = FaultPlan::new().transfer_fail(Some(0), Some(1), 0.0, f64::INFINITY, 2);

    let data = sio_data();
    let mut cluster = cluster_with(Some(plan));
    let (result, trace) = run_recorded(
        &mut cluster,
        &SioJob::default(),
        sio_chunks(&data, 16 * 1024),
    )
    .expect("retries must mask transient failures");

    assert_eq!(result.outputs, base_out, "outputs diverged under retries");
    assert!(
        result.timings.transfer_retries > 0,
        "retries must be counted in JobTimings"
    );
    let retries_traced = trace.spans_of(SpanKind::Retry.name()).count() as u32;
    assert_eq!(
        retries_traced, result.timings.transfer_retries,
        "every retry must appear in the trace"
    );
}

#[test]
fn permanent_transfer_failure_aborts_with_source_chain() {
    // More consecutive failures than the engine will ever retry.
    let budget = MAX_TRANSFER_RETRIES;
    let plan = FaultPlan::new().transfer_fail(Some(0), Some(1), 0.0, f64::INFINITY, budget + 100);

    let data = sio_data();
    let mut cluster = cluster_with(Some(plan));
    let err = run_job(
        &mut cluster,
        &SioJob::default(),
        sio_chunks(&data, 16 * 1024),
    )
    .expect_err("the 0 -> 1 route is permanently down");

    match &err {
        EngineError::TransferFailed { attempt, fault } => {
            assert!(*attempt > budget, "gave up before exhausting retries");
            assert_eq!((fault.from, fault.to), (0, 1));
        }
        other => panic!("expected TransferFailed, got {other}"),
    }
    // The typed cause must be reachable through the std error chain, not
    // just baked into the display string.
    let source = std::error::Error::source(&err).expect("TransferFailed must expose a source");
    let fault = source
        .downcast_ref::<TransferFault>()
        .expect("source must be the fabric-level TransferFault");
    assert_eq!((fault.from, fault.to), (0, 1));
}

#[test]
fn injected_stalls_delay_but_preserve_output() {
    let (base_out, base_t) = run_sio(None);
    let horizon = base_t.total.as_secs();
    let plan = FaultPlan::new().stall(0, horizon * 0.2, horizon * 0.3);

    let (out, t) = run_sio(Some(plan));
    assert_eq!(out, base_out, "outputs diverged under an injected stall");
    assert!(t.stalls_injected >= 1);
    assert!(
        t.total >= base_t.total,
        "a straggler stall cannot speed the job up"
    );
}

#[test]
fn identical_seeds_reproduce_identical_plans_traces_and_timings() {
    let horizon = fault_free_makespan();
    let plan_a = FaultPlan::generate(7, RANKS, horizon);
    let plan_b = FaultPlan::generate(7, RANKS, horizon);
    assert_eq!(plan_a, plan_b, "same seed must generate the same plan");
    assert_ne!(
        plan_a,
        FaultPlan::generate(8, RANKS, horizon),
        "different seeds should explore different plans"
    );

    let data = sio_data();
    let run = |plan: &FaultPlan| {
        let mut cluster = cluster_with(Some(plan.clone()));
        run_recorded(
            &mut cluster,
            &SioJob::default(),
            sio_chunks(&data, 16 * 1024),
        )
        .expect("generated plans always leave a survivor")
    };
    let (res_a, trace_a) = run(&plan_a);
    let (res_b, trace_b) = run(&plan_b);
    assert_eq!(res_a.outputs, res_b.outputs);
    assert_eq!(res_a.timings, res_b.timings);
    assert_eq!(
        trace_a.spans, trace_b.spans,
        "identical seeds must replay identical schedules"
    );
}

#[test]
fn mid_job_gpu_add_steals_work_and_preserves_output() {
    // A 5th GPU joins a 4-reducer job early: it must absorb map work by
    // stealing, never hold reduce output, and leave the answer bit-equal
    // to the plain 4-GPU run.
    let (base_out, base_t) = run_sio(None);
    let join_at = base_t.total.as_secs() * 0.05;

    let data = sio_data();
    let mut cluster = Cluster::accelerator(RANKS + 1, GpuSpec::gt200());
    cluster.set_fault_plan(Some(FaultPlan::new().add(RANKS, join_at)));
    let (result, trace) = run_recorded(
        &mut cluster,
        &SioJob::default(),
        sio_chunks(&data, 16 * 1024),
    )
    .expect("elastic run survives");
    let (out, t) = (result.outputs, result.timings);

    assert_eq!(t.gpus_added, 1, "the join must be counted");
    assert_eq!(
        trace.spans_of(SpanKind::GpuAdded.name()).count(),
        1,
        "the join must appear in the trace"
    );
    assert_eq!(
        &out[..RANKS as usize],
        &base_out[..],
        "outputs diverged after a mid-job GPU add"
    );
    assert!(
        out[RANKS as usize].is_empty(),
        "an added GPU is not a reducer and must hold no output"
    );
    assert!(
        t.chunks_per_rank[RANKS as usize] >= 1,
        "the added GPU must steal at least one chunk (got {:?})",
        t.chunks_per_rank
    );
    assert!(t.chunks_stolen >= 1, "elastic absorption works by stealing");
    // Steal-only absorption: every chunk is still mapped exactly once.
    let total: u32 = t.chunks_per_rank.iter().sum();
    assert_eq!(
        total, 20,
        "chunks lost or duplicated: {:?}",
        t.chunks_per_rank
    );
}

#[test]
fn gpu_add_interleaved_with_kill_and_stall_preserves_output() {
    let (base_out, base_t) = run_sio(None);
    let horizon = base_t.total.as_secs();
    let plan = FaultPlan::new()
        .add(RANKS, horizon * 0.05)
        .kill(1, horizon * 0.30)
        .stall(0, horizon * 0.20, horizon * 0.25);

    let (out, t) = run_sio_on(RANKS + 1, Some(plan));
    assert_eq!(t.gpus_added, 1);
    assert_eq!(t.gpus_lost, 1);
    assert!(t.stalls_injected >= 1);
    assert_eq!(
        &out[..RANKS as usize],
        &base_out[..],
        "outputs diverged when a join raced kills and stalls"
    );
    assert!(out[RANKS as usize].is_empty());
}

#[test]
fn accumulate_mode_absorbs_a_mid_job_add() {
    // WO runs in Accumulation mode: the late joiner must get its own
    // accumulation state initialised at join time, and its partial counts
    // must merge back without loss or duplication.
    let dict = Arc::new(Dictionary::generate(300, 11));
    let corpus = text::generate_text(&dict, 120_000, 12);
    let expect = wo::cpu_reference(&dict, &corpus);
    let job = WoJob::new(dict.clone(), RANKS);

    let base = run_job(
        &mut cluster_with(None),
        &job,
        text::chunk_text(&corpus, 16 * 1024),
    )
    .expect("fault-free run");
    let join_at = base.timings.total.as_secs() * 0.05;

    let mut cluster = Cluster::accelerator(RANKS + 1, GpuSpec::gt200());
    cluster.set_fault_plan(Some(FaultPlan::new().add(RANKS, join_at)));
    let elastic = run_job(&mut cluster, &job, text::chunk_text(&corpus, 16 * 1024))
        .expect("elastic run survives");

    assert_eq!(elastic.timings.gpus_added, 1);
    assert_eq!(
        &elastic.outputs[..RANKS as usize],
        &base.outputs[..],
        "accumulate-mode outputs diverged after a mid-job add"
    );
    assert!(elastic.outputs[RANKS as usize].is_empty());
    assert_eq!(
        wo::counts_from_output(&dict, &elastic.merged_output()),
        expect,
        "word counts no longer match the CPU reference"
    );
}

/// [`FaultPlan::generate`] for an elastic cluster: the chaos schedule of
/// `generate(seed, ranks, horizon_s)` (kills, stalls, transfer faults
/// confined to the first `ranks` ranks), plus one add event for each of
/// the `extra` trailing ranks `ranks..ranks + extra`, at seed-deterministic
/// instants inside the horizon. A separate stream keeps the base schedule
/// identical to the inelastic plan for the same seed.
fn elastic_plan(seed: u64, ranks: u32, extra: u32, horizon_s: f64) -> FaultPlan {
    let mut plan = FaultPlan::generate(seed, ranks, horizon_s);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let horizon = horizon_s.max(1e-6);
    for r in ranks..ranks.saturating_add(extra) {
        plan = plan.add(r, rng.gen_range(0.0..0.6 * horizon));
    }
    plan
}

#[test]
fn elastic_plans_extend_the_base_schedule_deterministically() {
    for seed in 0..16u64 {
        let base = FaultPlan::generate(seed, 4, 5e-3);
        let elastic = elastic_plan(seed, 4, 2, 5e-3);
        assert_eq!(elastic, elastic_plan(seed, 4, 2, 5e-3), "seed {seed}");
        // The base chaos schedule is untouched; only adds are appended.
        assert_eq!(&elastic.events()[..base.events().len()], base.events());
        let is_add = |e: &FaultEvent| matches!(e, FaultEvent::GpuAdd { .. });
        assert!(!base.events().iter().any(is_add), "generate emitted an add");
        for r in 4..6 {
            let at = elastic.add_time(r).unwrap();
            assert!(at >= SimTime::ZERO && at < SimTime::from_secs(5e-3));
        }
    }
}

#[test]
fn elastic_chaos_sweep_preserves_output_across_seeds() {
    // Kills, stalls, transfer faults AND joins, all at once, across
    // seeds: the answer never moves.
    let (base_out, base_t) = run_sio(None);
    let horizon = base_t.total.as_secs();
    for seed in 0..6u64 {
        let plan = elastic_plan(seed, RANKS, 2, horizon);
        let (out, t) = run_sio_on(RANKS + 2, Some(plan.clone()));
        assert_eq!(
            &out[..RANKS as usize],
            &base_out[..],
            "seed {seed} diverged (plan: {plan:?}, lost {}, added {}, requeued {})",
            t.gpus_lost,
            t.gpus_added,
            t.chunks_requeued
        );
        for (r, o) in out.iter().enumerate().skip(RANKS as usize) {
            assert!(o.is_empty(), "seed {seed}: joiner {r} held output");
        }
        assert_eq!(t.gpus_added, 2, "seed {seed}: both joins must register");
    }
}

#[test]
fn chaos_sweep_preserves_output_across_seeds() {
    let (base_out, base_t) = run_sio(None);
    let horizon = base_t.total.as_secs();
    for seed in 0..8u64 {
        let plan = FaultPlan::generate(seed, RANKS, horizon);
        let (out, t) = run_sio(Some(plan.clone()));
        assert_eq!(
            out, base_out,
            "seed {seed} diverged (plan: {:?}, lost {}, requeued {}, retries {}, stalls {})",
            plan, t.gpus_lost, t.chunks_requeued, t.transfer_retries, t.stalls_injected
        );
    }

    // MM's two rounds add `f32` partial tiles: a requeue or a retry that
    // reordered a key's partials would change the product's bits.
    let a = Matrix::random(128, 50);
    let b = Matrix::random(128, 51);
    let bits = |c: &Matrix| c.data.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    for ranks in [RANKS, 2 * RANKS] {
        let mm = |plan: Option<FaultPlan>| {
            let mut cluster = Cluster::accelerator(ranks, GpuSpec::gt200());
            cluster.set_fault_plan(plan);
            run_mm_auto(&mut cluster, &a, &b).expect("a survivor finishes MM")
        };
        let base = mm(None);
        let horizon = base.total_time.as_secs();
        let mut recovered = [0; 3];
        for seed in 0..8u64 {
            let plan = FaultPlan::generate(seed, ranks, horizon);
            let r = mm(Some(plan.clone()));
            let t = r.timings();
            let (lost, requeued, retries) = (t.gpus_lost, t.chunks_requeued, t.transfer_retries);
            assert_eq!(
                bits(&r.c),
                bits(&base.c),
                "mm on {ranks} ranks, seed {seed} diverged \
                 (plan: {plan:?}, lost {lost}, requeued {requeued}, retries {retries})",
            );
            for (sum, n) in recovered.iter_mut().zip([lost, requeued, retries]) {
                *sum += n;
            }
        }
        // Not vacuous: the plans did kill, requeue and retry.
        assert!(
            recovered.iter().all(|&n| n > 0),
            "{ranks} ranks: {recovered:?}"
        );
    }
}
