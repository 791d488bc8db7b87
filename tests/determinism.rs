//! Determinism: a full multi-GPU job must produce bit-identical outputs
//! AND identical simulated times every time it runs — fault-free, under a
//! fault plan, at every tuning point, interrupted and resumed, and through
//! the service. Simulated time is a cost model summed per block in block
//! order; nothing about the host may leak into results.

use std::sync::Arc;

use gpmr::apps::text::{chunk_text, generate_text};
use gpmr::prelude::*;
use gpmr::sim_gpu::FaultPlan;

fn run_wo_faulted(plan: Option<FaultPlan>) -> (Vec<KvSet<u32, u32>>, gpmr::core::JobTimings) {
    // 2 nodes x 2 GPUs, the smallest shape that exercises both intra-node
    // PCI-e sharing and inter-node network binning.
    let mut cluster = Cluster::new(Topology::new(2, 2, 2), GpuSpec::gt200());
    cluster.set_fault_plan(plan);
    let dict = Arc::new(Dictionary::generate(300, 11));
    let text = generate_text(&dict, 120_000, 12);
    let chunks = chunk_text(&text, 16 * 1024);
    let job = WoJob::new(dict, 4);
    let result = run_job(&mut cluster, &job, chunks).expect("job runs");
    (result.outputs, result.timings)
}

fn run_wo() -> (Vec<KvSet<u32, u32>>, gpmr::core::JobTimings) {
    run_wo_faulted(None)
}

/// The same WO job under an explicit engine tuning (upload pipeline depth
/// and transfer mode), for the tuning-matrix determinism tests.
fn run_wo_tuned(
    depth: u32,
    gpu_direct: bool,
    plan: Option<FaultPlan>,
) -> (Vec<KvSet<u32, u32>>, gpmr::core::JobTimings) {
    use gpmr::core::{run_job_with, EngineTuning, RunOpts};
    let mut cluster = Cluster::new(Topology::new(2, 2, 2), GpuSpec::gt200());
    cluster.set_fault_plan(plan);
    let dict = Arc::new(Dictionary::generate(300, 11));
    let text = generate_text(&dict, 120_000, 12);
    let chunks = chunk_text(&text, 16 * 1024);
    let job = WoJob::new(dict, 4);
    let tuning = EngineTuning {
        pipeline_depth: depth,
        gpu_direct,
        ..EngineTuning::default()
    };
    let opts = RunOpts {
        tuning,
        ..RunOpts::default()
    };
    let result = run_job_with(&mut cluster, &job, chunks, opts).expect("job runs");
    (result.outputs, result.timings)
}

/// The WO job journaled to `path`: same cluster/workload as
/// [`run_wo_faulted`], but every scheduling decision is written to (or
/// replayed against) the write-ahead journal.
fn run_wo_with_journal(
    journal: &mut gpmr::core::Journal,
) -> (Vec<KvSet<u32, u32>>, gpmr::core::JobTimings) {
    use gpmr::core::{run_job_journaled, EngineTuning};
    let mut cluster = Cluster::new(Topology::new(2, 2, 2), GpuSpec::gt200());
    cluster.set_fault_plan(None);
    let dict = Arc::new(Dictionary::generate(300, 11));
    let text = generate_text(&dict, 120_000, 12);
    let chunks = chunk_text(&text, 16 * 1024);
    let job = WoJob::new(dict, 4);
    let result = run_job_journaled(
        &mut cluster,
        &job,
        chunks,
        &EngineTuning::default(),
        &gpmr::telemetry::Telemetry::disabled(),
        journal,
    )
    .expect("journaled job runs");
    (result.outputs, result.timings)
}

/// MM's two-round drive on the same 2 x 2 cluster, journaled when given
/// a journal: the product's bits, the clock's bits and both rounds'
/// timings.
fn run_mm_drive(
    journal: Option<&mut gpmr::core::Journal>,
) -> (Vec<u32>, u64, [gpmr::core::JobTimings; 2]) {
    use gpmr::core::RunOpts;
    let (a, b) = (Matrix::random(128, 5), Matrix::random(128, 6));
    let mut cluster = Cluster::new(Topology::new(2, 2, 2), GpuSpec::gt200());
    let opts = RunOpts {
        journal,
        ..RunOpts::default()
    };
    let r = gpmr::apps::mm::run_mm(&mut cluster, &a, &b, 2, 2, 2, opts).expect("mm drive");
    let bits = r.c.data.iter().map(|x| x.to_bits()).collect();
    (bits, r.total_time.as_secs().to_bits(), [r.phase1, r.phase2])
}

#[test]
fn outputs_and_times_are_identical_run_to_run() {
    let (base_out, base_times) = run_wo();
    assert_eq!(base_out.len(), 4, "one output set per rank");
    assert!(base_times.total > SimDuration::ZERO);

    let (out, times) = run_wo();
    assert_eq!(out, base_out, "outputs changed on the second run");
    assert_eq!(
        times, base_times,
        "simulated times changed on the second run"
    );
}

#[test]
fn fault_recovery_is_identical_run_to_run() {
    // A plan that exercises every injection path at once: a mid-job GPU
    // kill, a transient route failure, and a straggler stall. Recovery
    // (requeue targets, retry counts, migrated work) must replay
    // identically every time.
    let (fault_free, fault_free_times) = run_wo();
    let horizon = fault_free_times.total.as_secs();
    let plan = || {
        Some(
            FaultPlan::new()
                .kill(2, horizon * 0.4)
                .transfer_fail(Some(1), Some(0), 0.0, f64::INFINITY, 2)
                .stall(3, horizon * 0.2, horizon * 0.15),
        )
    };

    let (base_out, base_times) = run_wo_faulted(plan());
    assert_eq!(
        base_out, fault_free,
        "faulted run must still compute the fault-free answer"
    );
    assert!(base_times.gpus_lost >= 1, "the kill must have landed");
    assert!(base_times.transfer_retries > 0, "retries must be visible");
    assert!(
        base_times.stalls_injected >= 1,
        "the stall must have landed"
    );

    let (out, times) = run_wo_faulted(plan());
    assert_eq!(out, base_out, "faulted outputs changed on the second run");
    assert_eq!(
        times, base_times,
        "faulted times/recovery changed on the second run"
    );
}

#[test]
fn tuning_matrix_is_deterministic_and_output_invariant() {
    // Pipeline depth and transfer mode reshape the schedule, never the
    // answer: every tuning point must reproduce the default-tuning
    // outputs bit-for-bit, and within a tuning point the simulated times
    // must be identical from run to run.
    let (base_out, _) = run_wo();
    for depth in [1u32, 2, 4] {
        for gpu_direct in [false, true] {
            let (out, times) = run_wo_tuned(depth, gpu_direct, None);
            assert_eq!(
                out, base_out,
                "outputs changed at depth {depth}, gpu_direct {gpu_direct}"
            );
            let (o, t) = run_wo_tuned(depth, gpu_direct, None);
            assert_eq!(
                o, out,
                "outputs changed on the second run \
                 at depth {depth}, gpu_direct {gpu_direct}"
            );
            assert_eq!(
                t, times,
                "times changed on the second run \
                 at depth {depth}, gpu_direct {gpu_direct}"
            );
        }
    }
}

#[test]
fn tuning_matrix_survives_faults_deterministically() {
    // The corner tuning points (pipelining off / deep, host-staged /
    // GPU-direct) under the all-paths fault plan: recovery must replay
    // identically from run to run, and still compute the fault-free
    // answer.
    let (fault_free, fault_free_times) = run_wo();
    let horizon = fault_free_times.total.as_secs();
    let plan = || {
        Some(
            FaultPlan::new()
                .kill(2, horizon * 0.4)
                .transfer_fail(Some(1), Some(0), 0.0, f64::INFINITY, 2)
                .stall(3, horizon * 0.2, horizon * 0.15),
        )
    };
    for (depth, gpu_direct) in [(1u32, false), (1, true), (4, false), (4, true)] {
        let (out, times) = run_wo_tuned(depth, gpu_direct, plan());
        assert_eq!(
            out, fault_free,
            "faulted run must still compute the fault-free answer \
             at depth {depth}, gpu_direct {gpu_direct}"
        );
        assert!(times.gpus_lost >= 1, "the kill must have landed");
        let (o, t) = run_wo_tuned(depth, gpu_direct, plan());
        assert_eq!(
            o, out,
            "faulted outputs changed on the second run at depth {depth}, \
             gpu_direct {gpu_direct}"
        );
        assert_eq!(
            t, times,
            "faulted times/recovery changed on the second run at depth {depth}, \
             gpu_direct {gpu_direct}"
        );
    }
}

#[test]
fn interrupted_and_resumed_runs_match_uninterrupted() {
    // Resumed-run determinism, twice over: a journaled run interrupted
    // halfway (journal truncated at a record boundary) and resumed must
    // match the uninterrupted run bit-for-bit — outputs, simulated times,
    // and the final journal — and a second round must write the same
    // journal bytes as the first.
    use gpmr::core::{scan_bytes, Journal};

    let dir = std::env::temp_dir().join(format!("gpmr_det_resume_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (base_out, base_times) = run_wo();
    let mut journals = Vec::new();

    for round in 0..2 {
        let path = dir.join(format!("wo_r{round}.gpj"));

        // Uninterrupted journaled run: zero behavior change vs plain.
        let mut journal = Journal::create(&path, 1).expect("create journal");
        let (out, times) = run_wo_with_journal(&mut journal);
        drop(journal);
        assert_eq!(out, base_out, "journaling changed outputs, round {round}");
        assert_eq!(times, base_times, "journaling changed times, round {round}");
        let reference = std::fs::read(&path).unwrap();
        let (_, offsets) = scan_bytes(&reference);

        // Interrupt halfway, resume, and demand bit-identity.
        let cut = offsets[offsets.len() / 2] as usize;
        std::fs::write(&path, &reference[..cut]).unwrap();
        let mut journal = Journal::resume(&path, 1).expect("resume journal");
        let (out, times) = run_wo_with_journal(&mut journal);
        assert!(journal.replayed() > 0, "half the journal must replay");
        drop(journal);
        assert_eq!(out, base_out, "resumed outputs diverged, round {round}");
        assert_eq!(times, base_times, "resumed times diverged, round {round}");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            reference,
            "resumed journal bytes diverged, round {round}"
        );
        journals.push(reference);
    }
    assert_eq!(journals[0], journals[1], "journal bytes changed run to run");

    // MM's two-round drive, the same way: journaling changes nothing, and
    // a drive cut halfway resumes to the same product, clock and journal.
    let plain = run_mm_drive(None);
    let path = dir.join("mm.gpj");
    let mut journal = Journal::create(&path, 1).expect("create journal");
    assert_eq!(
        run_mm_drive(Some(&mut journal)),
        plain,
        "journaling changed mm"
    );
    drop(journal);
    let reference = std::fs::read(&path).unwrap();
    let (_, offsets) = scan_bytes(&reference);
    std::fs::write(&path, &reference[..offsets[offsets.len() / 2] as usize]).unwrap();
    let mut journal = Journal::resume(&path, 1).expect("resume journal");
    assert_eq!(
        run_mm_drive(Some(&mut journal)),
        plain,
        "resumed mm diverged"
    );
    assert!(journal.replayed() > 0, "half the mm journal must replay");
    drop(journal);
    assert_eq!(
        std::fs::read(&path).unwrap(),
        reference,
        "mm journal diverged"
    );
}

#[test]
fn service_solo_jobs_match_standalone_runs_bit_for_bit() {
    // A job routed through the multi-tenant service — queueing, admission,
    // per-slot cluster, virtual-time dispatch — must produce the same
    // outputs AND the same simulated makespan as a standalone run_job.
    use gpmr::apps::sio::{generate_integers, sio_chunks};
    use gpmr::core::run_job;
    use gpmr::service::{JobKind, JobService, JobSpec, JobStatus, ServiceConfig, TenantConfig};
    use gpmr::telemetry::Telemetry;

    let cfg = ServiceConfig {
        engines: 1,
        ..ServiceConfig::default()
    };
    let mut svc = JobService::new(
        cfg,
        vec![TenantConfig::unlimited("solo")],
        Telemetry::disabled(),
    );
    let sio = svc.submit(JobSpec::new(
        "solo",
        JobKind::Sio {
            n: 40_000,
            seed: 3,
            chunk_kb: 16,
        },
    ));
    let wo = svc.submit(JobSpec::new(
        "solo",
        JobKind::Wo {
            bytes: 65_536,
            dict_words: 256,
            seed: 9,
            chunk_kb: 16,
        },
    ));
    svc.drain();

    // SIO: outputs and makespan match the standalone engine exactly.
    let mut cluster = Cluster::accelerator(4, GpuSpec::gt200());
    let data = generate_integers(40_000, 3);
    let standalone = run_job(
        &mut cluster,
        &SioJob::default(),
        sio_chunks(&data, 16 * 1024),
    )
    .expect("standalone sio");
    assert_eq!(svc.outputs(sio).unwrap(), &standalone.outputs[..]);
    let JobStatus::Completed {
        started_s,
        finished_s,
        ..
    } = svc.poll(sio).unwrap()
    else {
        panic!("sio job should complete");
    };
    assert_eq!(
        finished_s - started_s,
        standalone.timings.total.as_secs(),
        "service must report the engine's exact simulated makespan"
    );

    // WO: same, through the text pipeline.
    let mut cluster = Cluster::accelerator(4, GpuSpec::gt200());
    let dict = Arc::new(Dictionary::generate(256, 9));
    let text = generate_text(&dict, 65_536, 10);
    let standalone = run_job(
        &mut cluster,
        &WoJob::new(dict, 4),
        chunk_text(&text, 16 * 1024),
    )
    .expect("standalone wo");
    assert_eq!(svc.outputs(wo).unwrap(), &standalone.outputs[..]);
    let JobStatus::Completed {
        started_s,
        finished_s,
        ..
    } = svc.poll(wo).unwrap()
    else {
        panic!("wo job should complete");
    };
    // The service computes finish = start + makespan; assert that exact
    // operation (subtraction would round off the last ulp).
    assert_eq!(
        finished_s,
        started_s + standalone.timings.total.as_secs(),
        "service must carry the engine's exact simulated makespan"
    );

    // And the whole service run is replay-deterministic.
    let mut svc2 = JobService::new(
        ServiceConfig {
            engines: 1,
            ..ServiceConfig::default()
        },
        vec![TenantConfig::unlimited("solo")],
        Telemetry::disabled(),
    );
    let sio2 = svc2.submit(JobSpec::new(
        "solo",
        JobKind::Sio {
            n: 40_000,
            seed: 3,
            chunk_kb: 16,
        },
    ));
    svc2.drain();
    assert_eq!(svc.outputs(sio), svc2.outputs(sio2));
    assert_eq!(svc.poll(sio).unwrap(), svc2.poll(sio2).unwrap());
}
