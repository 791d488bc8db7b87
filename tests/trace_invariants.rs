//! Structural invariants of execution traces: the recorded schedule must
//! be consistent with the timing result and the pipeline's ordering
//! rules.

use gpmr::core::{run_job_instrumented, run_rounds, EngineTuning, JobResult};
use gpmr::prelude::*;
use gpmr::telemetry::analyze::{analyze, Finding, Stage};
use gpmr::telemetry::{export, SpanKind, SpanRecord, Telemetry, TelemetrySnapshot};
use gpmr_apps::iterative::KmcRounds;
use gpmr_apps::kmc::{generate_points, initial_centers};
use gpmr_apps::sio::{generate_integers, sio_chunks};
use gpmr_apps::wo;
use std::sync::Arc;

/// Run `job` recording into a private telemetry handle; returns the
/// result with the recording.
fn run_recorded<J: GpmrJob>(
    cluster: &mut Cluster,
    job: &J,
    chunks: Vec<J::Chunk>,
) -> (JobResult<J::Key, J::Value>, TelemetrySnapshot) {
    let tel = Telemetry::enabled();
    let result =
        run_job_instrumented(cluster, job, chunks, &EngineTuning::default(), &tel).unwrap();
    (result, tel.snapshot())
}

/// The spans on `track`, in record order.
fn spans_on(snap: &TelemetrySnapshot, track: u32) -> impl Iterator<Item = &SpanRecord> {
    snap.spans.iter().filter(move |s| s.track == track)
}

/// When the last span of `kind` on `rank` ends.
fn last_end(snap: &TelemetrySnapshot, rank: u32, kind: SpanKind) -> f64 {
    spans_on(snap, rank)
        .filter(|s| s.kind == kind.name())
        .map(|s| s.end_s)
        .fold(0.0, f64::max)
}

#[test]
fn trace_covers_every_stage_and_respects_the_makespan() {
    let data = generate_integers(100_000, 1);
    let mut cluster = Cluster::accelerator(4, GpuSpec::gt200());
    let (result, snap) = run_recorded(
        &mut cluster,
        &SioJob::default(),
        sio_chunks(&data, 32 * 1024),
    );

    // Every stage kind shows up for a full-pipeline job.
    for kind in [
        SpanKind::Setup,
        SpanKind::Upload,
        SpanKind::Map,
        SpanKind::Partition,
        SpanKind::Download,
        SpanKind::Send,
        SpanKind::Sort,
        SpanKind::Reduce,
    ] {
        assert!(
            snap.spans_of(kind.name()).count() > 0,
            "no {kind:?} events recorded"
        );
    }
    // One setup event per rank.
    assert_eq!(snap.spans_of(SpanKind::Setup.name()).count(), 4);

    // No event starts after it ends, and nothing ends after the makespan.
    let makespan = result.total_time().as_secs();
    for e in &snap.spans {
        assert!(e.start_s <= e.end_s, "{e:?}");
        assert!(
            e.end_s <= makespan + 1e-12,
            "event ends after makespan: {e:?}"
        );
    }

    // Per rank: the first map starts no earlier than the first upload
    // ends, and sort starts after the last map ends.
    for r in 0..4 {
        let first = |kind: SpanKind| spans_on(&snap, r).find(|e| e.kind == kind.name());
        let first_upload = first(SpanKind::Upload).unwrap();
        let first_map = first(SpanKind::Map).unwrap();
        assert!(first_map.start_s >= first_upload.end_s);

        if let Some(sort) = first(SpanKind::Sort) {
            assert!(sort.start_s >= last_end(&snap, r, SpanKind::Map));
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
    let (traced, _) = run_recorded(&mut c2, &SioJob::default(), sio_chunks(&data, 16 * 1024));
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
    let (result, snap) = run_recorded(&mut cluster, &job, chunks);
    assert_eq!(
        wo::counts_from_output(&dict, &result.merged_output()),
        wo::cpu_reference(&dict, &text)
    );
    // One accumulate-init per rank; binning happens only after all maps.
    assert_eq!(snap.spans_of(SpanKind::AccumulateInit.name()).count(), 4);
    for r in 0..4 {
        let last_map = last_end(&snap, r, SpanKind::Map);
        for send in spans_on(&snap, r).filter(|e| e.kind == SpanKind::Send.name()) {
            assert!(
                send.start_s >= last_map,
                "accumulate-mode send before maps finished"
            );
        }
    }
}

#[test]
fn gantt_renders_one_row_per_rank() {
    let data = generate_integers(30_000, 5);
    let mut cluster = Cluster::accelerator(6, GpuSpec::gt200());
    let (_, snap) = run_recorded(
        &mut cluster,
        &SioJob::default(),
        sio_chunks(&data, 8 * 1024),
    );
    let chart = export::gantt(&snap, 6, 72);
    let rows = chart.lines().filter(|l| l.starts_with("rank")).count();
    assert_eq!(rows, 6);
    assert!(chart.contains('M'));
    assert!(chart.contains('S'));
}

/// Each pass of a multi-round drive restarts the engine's clock at zero;
/// its spans must still land on the drive's clock, inside the `Round` span
/// recorded after them. When every pass recorded at zero, the analysis of
/// a 5-round KMC drive saw a makespan of a fifth of the drive, attributed
/// it all to `Other` and called rank 0, which holds the `Round` spans, a
/// straggler.
#[test]
fn round_drives_record_every_pass_on_the_cross_round_clock() {
    let points = generate_points(40_000, 4, 33);
    let tel = Telemetry::enabled();
    // Two nodes, so the centers' broadcast after the last round crosses a
    // NIC and is recorded too: the recording then ends where the clock does.
    let drive = run_rounds(
        &mut Cluster::accelerator(8, GpuSpec::gt200()),
        &mut KmcRounds::new(initial_centers(4, 34), 3, 0.0),
        SliceChunk::split(&points, 4096),
        &EngineTuning::default(),
        &tel,
        None,
    )
    .unwrap();
    assert_eq!(drive.rounds, 3);
    let snap = tel.snapshot();

    let eps = 1e-12;
    let (mut rounds, mut pass) = (0, Vec::new());
    for span in &snap.spans {
        if span.kind != SpanKind::Round.name() {
            pass.push(span);
            continue;
        }
        assert!(!pass.is_empty(), "round {rounds} recorded nothing");
        for s in pass.drain(..) {
            let inside = s.start_s >= span.start_s - eps && s.end_s <= span.end_s + eps;
            assert!(inside, "round {rounds} is {span:?}, but holds {s:?}");
        }
        rounds += 1;
    }
    assert_eq!((rounds, pass.len()), (3, 0));

    let analysis = analyze(&snap);
    let total = drive.total_time.as_secs();
    assert!(
        (analysis.makespan_s - total).abs() <= eps * total,
        "analysis {} vs drive {total}",
        analysis.makespan_s
    );
    assert!(
        !analysis.stage_s.contains_key(&Stage::Other),
        "{analysis:?}"
    );
    let straggler = |f: &&Finding| matches!(f, Finding::Straggler { .. });
    let stragglers: Vec<&Finding> = analysis.findings.iter().filter(straggler).collect();
    assert!(stragglers.is_empty(), "{stragglers:?}");
}
