//! Structural invariants of execution traces: the recorded schedule must
//! be consistent with the timing result and the pipeline's ordering
//! rules.

use gpmr::core::{
    run_job_instrumented, EngineResult, EngineTuning, JobResult, JobTrace, TraceKind,
};
use gpmr::prelude::*;
use gpmr::telemetry::Telemetry;
use gpmr_apps::sio::{generate_integers, sio_chunks};
use gpmr_apps::wo;
use std::sync::Arc;

/// A job result with the schedule trace of the run.
type Traced<J> = (
    JobResult<<J as GpmrJob>::Key, <J as GpmrJob>::Value>,
    JobTrace,
);

/// Run `job` recording into a private telemetry handle; returns the
/// result with the schedule trace derived from the recording.
fn run_job_traced<J: GpmrJob>(
    cluster: &mut Cluster,
    job: &J,
    chunks: Vec<J::Chunk>,
) -> EngineResult<Traced<J>> {
    let tel = Telemetry::enabled();
    let result = run_job_instrumented(cluster, job, chunks, &EngineTuning::default(), &tel)?;
    Ok((result, JobTrace::from_telemetry(&tel.snapshot())))
}

#[test]
fn trace_covers_every_stage_and_respects_the_makespan() {
    let data = generate_integers(100_000, 1);
    let mut cluster = Cluster::accelerator(4, GpuSpec::gt200());
    let (result, trace) = run_job_traced(
        &mut cluster,
        &SioJob::default(),
        sio_chunks(&data, 32 * 1024),
    )
    .unwrap();

    // Every stage kind shows up for a full-pipeline job.
    for kind in [
        TraceKind::Setup,
        TraceKind::Upload,
        TraceKind::Map,
        TraceKind::Partition,
        TraceKind::Download,
        TraceKind::Send,
        TraceKind::Sort,
        TraceKind::Reduce,
    ] {
        assert!(
            trace.events_of(kind).count() > 0,
            "no {kind} events recorded"
        );
    }
    // One setup event per rank.
    assert_eq!(trace.events_of(TraceKind::Setup).count(), 4);

    // No event starts after it ends, and nothing ends after the makespan.
    let makespan = result.total_time().as_secs();
    for e in &trace.events {
        assert!(e.start <= e.end, "{e:?}");
        assert!(
            e.end.as_secs() <= makespan + 1e-12,
            "event ends after makespan: {e:?}"
        );
    }

    // Per rank: the first map starts no earlier than the first upload
    // ends, and sort starts after the last map ends.
    for r in 0..4 {
        let first_upload = trace
            .events_for(r)
            .find(|e| e.kind == TraceKind::Upload)
            .unwrap();
        let first_map = trace
            .events_for(r)
            .find(|e| e.kind == TraceKind::Map)
            .unwrap();
        assert!(first_map.start >= first_upload.end);

        let last_map_end = trace
            .events_for(r)
            .filter(|e| e.kind == TraceKind::Map)
            .map(|e| e.end)
            .fold(SimTime::ZERO, SimTime::max);
        if let Some(sort) = trace.events_for(r).find(|e| e.kind == TraceKind::Sort) {
            assert!(sort.start >= last_map_end);
        }
    }
}

#[test]
fn traced_and_untraced_runs_are_identical() {
    let data = generate_integers(50_000, 2);
    let mut c1 = Cluster::accelerator(4, GpuSpec::gt200());
    let plain =
        gpmr::core::run_job(&mut c1, &SioJob::default(), sio_chunks(&data, 16 * 1024)).unwrap();
    let mut c2 = Cluster::accelerator(4, GpuSpec::gt200());
    let (traced, _) =
        run_job_traced(&mut c2, &SioJob::default(), sio_chunks(&data, 16 * 1024)).unwrap();
    assert_eq!(plain.total_time(), traced.total_time());
    assert_eq!(plain.merged_output(), traced.merged_output());
}

#[test]
fn accumulate_jobs_trace_init_and_deferred_sends() {
    let dict = Arc::new(Dictionary::generate(150, 3));
    let text = gpmr::apps::text::generate_text(&dict, 30_000, 4);
    let chunks = gpmr::apps::text::chunk_text(&text, 4_000);
    let mut cluster = Cluster::accelerator(4, GpuSpec::gt200());
    let job = WoJob::new(dict.clone(), 4);
    let (result, trace) = run_job_traced(&mut cluster, &job, chunks).unwrap();
    assert_eq!(
        wo::counts_from_output(&dict, &result.merged_output()),
        wo::cpu_reference(&dict, &text)
    );
    // One accumulate-init per rank; binning happens only after all maps.
    assert_eq!(trace.events_of(TraceKind::AccumulateInit).count(), 4);
    for r in 0..4 {
        let last_map = trace
            .events_for(r)
            .filter(|e| e.kind == TraceKind::Map)
            .map(|e| e.end)
            .fold(SimTime::ZERO, SimTime::max);
        for send in trace.events_for(r).filter(|e| e.kind == TraceKind::Send) {
            assert!(
                send.start >= last_map,
                "accumulate-mode send before maps finished"
            );
        }
    }
}

#[test]
fn gantt_renders_one_row_per_rank() {
    let data = generate_integers(30_000, 5);
    let mut cluster = Cluster::accelerator(6, GpuSpec::gt200());
    let (_, trace) = run_job_traced(
        &mut cluster,
        &SioJob::default(),
        sio_chunks(&data, 8 * 1024),
    )
    .unwrap();
    let chart = trace.gantt(6, 72);
    let rows = chart.lines().filter(|l| l.starts_with("rank")).count();
    assert_eq!(rows, 6);
    assert!(chart.contains('M'));
    assert!(chart.contains('S'));
}
