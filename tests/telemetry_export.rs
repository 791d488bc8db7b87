//! Acceptance tests for the telemetry subsystem, end to end: run an
//! instrumented (and faulted) job, export the recording, and assert
//! structural properties —
//!
//! * every dispatched chunk owns a container span whose children cover
//!   the upload → map → download lifecycle, linked by parent span ids;
//! * recovery work appears as counter increments that reconcile exactly
//!   with [`JobTimings`] (also as a property over generated fault plans);
//! * the Perfetto export passes the structural validator and the JSONL
//!   stream round-trips losslessly;
//! * a flight recorder's postmortems, assembled from fragments rendered
//!   once and shared between dumps, equal the whole-snapshot export of
//!   their window and capture byte for byte (a property over record/dump
//!   interleavings).

use gpmr::core::{run_job_instrumented, EngineTuning, JobTimings};
use gpmr::prelude::*;
use gpmr::sim_gpu::FaultPlan;
use gpmr::telemetry::{export, FlightRecorder, SpanRecord, Telemetry, TelemetrySnapshot};
use gpmr_apps::sio::{self, sio_chunks};
use proptest::prelude::*;

const RANKS: u32 = 4;

/// Run the SIO job instrumented under `plan`; returns the recording and
/// the engine's own accounting.
fn run_instrumented(plan: Option<FaultPlan>) -> (TelemetrySnapshot, JobTimings) {
    let data = sio::generate_integers(80_000, 11);
    let mut cluster = Cluster::accelerator(RANKS, GpuSpec::gt200());
    cluster.set_fault_plan(plan);
    let tel = Telemetry::enabled();
    let result = run_job_instrumented(
        &mut cluster,
        &SioJob::default(),
        sio_chunks(&data, 16 * 1024),
        &EngineTuning::default(),
        &tel,
    )
    .expect("job should survive");
    (tel.snapshot(), result.timings)
}

/// A run without telemetry detaches the cluster from the previous run's
/// handle: a recording does not grow when a plain run follows it on the
/// same cluster (it used to gain the plain run's device and fabric
/// samples, 43 growing to 81).
#[test]
fn a_plain_run_records_nothing_into_the_previous_runs_handle() {
    let data = sio::generate_integers(20_000, 5);
    let mut cluster = Cluster::accelerator(RANKS, GpuSpec::gt200());
    let tel = Telemetry::enabled();
    let (job, tuning) = (SioJob::default(), EngineTuning::default());
    run_job_instrumented(
        &mut cluster,
        &job,
        sio_chunks(&data, 16 * 1024),
        &tuning,
        &tel,
    )
    .expect("instrumented run");
    let recorded = export::to_jsonl(&tel.snapshot());
    run_job(&mut cluster, &job, sio_chunks(&data, 16 * 1024)).expect("plain run");
    assert!(
        export::to_jsonl(&tel.snapshot()) == recorded,
        "the plain run recorded into the first run's handle"
    );
}

#[test]
fn every_chunk_has_upload_map_download_spans() {
    let (snap, timings) = run_instrumented(None);
    let chunks: Vec<_> = snap.spans_of("Chunk").collect();
    let dispatched: u32 = timings.chunks_per_rank.iter().sum();
    assert_eq!(chunks.len() as u32, dispatched, "one container per chunk");
    assert_eq!(
        snap.metrics.counter("engine.chunks_dispatched"),
        u64::from(dispatched)
    );

    for chunk in &chunks {
        let kinds: Vec<&str> = snap
            .spans
            .iter()
            .filter(|s| s.parent == Some(chunk.id))
            .map(|s| s.kind.as_str())
            .collect();
        for stage in ["Upload", "Map", "Download"] {
            assert!(
                kinds.contains(&stage),
                "chunk span {} ({:?}) missing {stage} child; children: {kinds:?}",
                chunk.id,
                chunk.name,
            );
        }
        // Children stay inside the container's window.
        for s in snap.spans.iter().filter(|s| s.parent == Some(chunk.id)) {
            assert!(
                s.start_s >= chunk.start_s - 1e-12,
                "{}: starts early",
                s.kind
            );
            assert!(s.end_s <= chunk.end_s + 1e-12, "{}: ends late", s.kind);
        }
    }
}

#[test]
fn retries_appear_as_counter_increments() {
    let plan = FaultPlan::parse("xfail:0->1@0..1*2").expect("plan parses");
    let (snap, timings) = run_instrumented(Some(plan));
    assert!(timings.transfer_retries > 0, "plan should force retries");
    assert_eq!(
        snap.metrics.counter("engine.transfer_retries"),
        u64::from(timings.transfer_retries)
    );
    assert_eq!(
        snap.spans_of("Retry").count() as u32,
        timings.transfer_retries
    );
    // The fabric saw the same injected failures.
    assert_eq!(
        snap.metrics.counter("fabric.faults_injected"),
        u64::from(timings.transfer_retries)
    );
}

/// Accumulate-mode jobs (WO) fold map emissions into device state, so
/// pair accounting happens when the accumulator is committed for binning —
/// the `engine.pairs_emitted` counter must not stay at zero there (it once
/// did, while `engine.pairs_shuffled` counted).
#[test]
fn accumulate_mode_reports_emitted_pairs() {
    use gpmr_apps::text::{chunk_text, generate_text, Dictionary};
    use gpmr_apps::wo::WoJob;
    use std::sync::Arc;

    let dict = Arc::new(Dictionary::generate(256, 11));
    let text = generate_text(&dict, 200_000, 12);
    let mut cluster = Cluster::accelerator(RANKS, GpuSpec::gt200());
    let tel = Telemetry::enabled();
    let result = run_job_instrumented(
        &mut cluster,
        &WoJob::new(Arc::clone(&dict), RANKS),
        chunk_text(&text, 32 * 1024),
        &EngineTuning::default(),
        &tel,
    )
    .expect("WO job runs");
    let snap = tel.snapshot();
    let emitted = snap.metrics.counter("engine.pairs_emitted");
    let shuffled = snap.metrics.counter("engine.pairs_shuffled");
    assert!(emitted > 0, "accumulate-mode pairs_emitted stuck at 0");
    assert!(
        emitted >= shuffled,
        "emitted {emitted} < shuffled {shuffled}: pairs cannot appear in the shuffle \
         that were never emitted by a map stage"
    );
    assert_eq!(emitted, result.timings.pairs_emitted);
}

#[test]
fn perfetto_export_is_structurally_valid() {
    let (snap, _) = run_instrumented(Some(FaultPlan::parse("kill:1@1e-3").unwrap()));
    let json = export::to_perfetto_json(&snap);
    let stats = export::validate_perfetto(&json).expect("valid Perfetto JSON");
    assert_eq!(stats.complete_events, snap.spans.len());
    assert_eq!(stats.counter_events, snap.samples.len());
    // Every rank track plus one NIC track per node is named.
    assert!(stats.named_tracks > RANKS as usize, "{stats:?}");
    assert!(stats.end_ts_us > 0.0);
}

#[test]
fn jsonl_stream_round_trips() {
    let (snap, _) = run_instrumented(None);
    let jsonl = export::to_jsonl(&snap);
    let back = export::snapshot_from_jsonl(&jsonl).expect("stream parses");
    assert_eq!(back.spans.len(), snap.spans.len());
    assert_eq!(back.samples.len(), snap.samples.len());
    assert_eq!(back.tracks, snap.tracks);
    assert_eq!(
        back.metrics.counter("engine.chunks_dispatched"),
        snap.metrics.counter("engine.chunks_dispatched")
    );
    // Span identity survives: same ids, kinds, parents, times.
    for (a, b) in snap.spans.iter().zip(&back.spans) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.kind, b.kind);
        assert_eq!(a.parent, b.parent);
        assert_eq!(a.start_s.to_bits(), b.start_s.to_bits());
        assert_eq!(a.end_s.to_bits(), b.end_s.to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Telemetry counters reconcile exactly with the engine's JobTimings
    /// accounting on arbitrary generated fault plans (the plans always
    /// leave at least one GPU alive, so the job must complete).
    #[test]
    fn counters_reconcile_with_job_timings_on_faulted_runs(seed in 0u64..2000) {
        let plan = FaultPlan::generate(seed, RANKS, 10e-3);
        let (snap, timings) = run_instrumented(Some(plan));
        let m = &snap.metrics;
        prop_assert_eq!(m.counter("engine.gpus_lost"), u64::from(timings.gpus_lost));
        prop_assert_eq!(
            m.counter("engine.chunks_requeued"),
            u64::from(timings.chunks_requeued)
        );
        prop_assert_eq!(
            m.counter("engine.transfer_retries"),
            u64::from(timings.transfer_retries)
        );
        prop_assert_eq!(
            m.counter("engine.stalls_injected"),
            u64::from(timings.stalls_injected)
        );
        prop_assert_eq!(m.counter("engine.chunks_stolen"), u64::from(timings.chunks_stolen));
        prop_assert_eq!(m.counter("engine.pairs_emitted"), timings.pairs_emitted);
        prop_assert_eq!(m.counter("engine.pairs_shuffled"), timings.pairs_shuffled);
        // A pair can only reach the shuffle after a map stage emitted it.
        prop_assert!(timings.pairs_emitted >= timings.pairs_shuffled);
        prop_assert!(timings.pairs_emitted > 0);
        // Span counts for fault events match too.
        prop_assert_eq!(snap.spans_of("GpuLost").count() as u32, timings.gpus_lost);
        prop_assert_eq!(snap.spans_of("Requeue").count() as u32, timings.chunks_requeued);
        prop_assert_eq!(snap.spans_of("Stall").count() as u32, timings.stalls_injected);
    }
}

#[test]
fn service_telemetry_has_tenant_tracks_queue_wait_and_valid_perfetto() {
    // The multi-tenant service run: per-tenant Perfetto tracks, QueueWait
    // spans attributed to the waiting tenant, a queue-depth gauge, and an
    // analyze() report that treats queue-wait as a stage of its own.
    use gpmr::service::{run_script, ServiceConfig};
    use gpmr::telemetry::analyze;

    let script = include_str!("../workloads/service_demo.wl");
    let (svc, _report) = run_script(script, ServiceConfig::default(), Telemetry::enabled())
        .expect("demo workload runs");
    let snap = svc.telemetry().snapshot();

    // One named track per tenant, plus the service's own track.
    let track_names: Vec<&str> = snap.tracks.values().map(String::as_str).collect();
    for expected in ["tenant alice", "tenant bob", "tenant carol", "service"] {
        assert!(
            track_names.contains(&expected),
            "missing track {expected:?} in {track_names:?}"
        );
    }

    // Every admitted job contributes a QueueWait span and a Job span on
    // its tenant's track (rejected jobs never reach a track).
    let tenant_tracks: Vec<u32> = snap
        .tracks
        .iter()
        .filter(|(_, name)| name.starts_with("tenant "))
        .map(|(id, _)| *id)
        .collect();
    let queue_waits: Vec<_> = snap
        .spans
        .iter()
        .filter(|s| s.kind == "QueueWait")
        .collect();
    let jobs: Vec<_> = snap.spans.iter().filter(|s| s.kind == "Job").collect();
    // One per finalized job: 8 admitted minus job5, which stays queued
    // forever (budget-starved) and so never finalizes.
    assert!(queue_waits.len() >= 7, "one QueueWait per finalized job");
    assert_eq!(queue_waits.len(), jobs.len());
    for s in queue_waits.iter().chain(&jobs) {
        assert!(
            tenant_tracks.contains(&s.track),
            "span {:?} not on a tenant track",
            s.kind
        );
        assert!(s.end_s >= s.start_s);
    }
    // Job spans carry their outcome, and both batch members say so.
    let outcomes: Vec<&str> = jobs.iter().filter_map(|s| s.attr("outcome")).collect();
    assert!(outcomes.contains(&"cancelled"));
    assert!(outcomes.contains(&"deadline-missed"));
    assert!(outcomes.iter().filter(|o| **o == "completed").count() >= 5);

    // Queue-depth gauge was sampled on the service track.
    assert!(
        snap.samples
            .iter()
            .any(|s| s.series == "service.queue_depth"),
        "queue-depth gauge never sampled"
    );

    // The whole trace exports as structurally valid Perfetto JSON.
    let perfetto = export::to_perfetto_json(&snap);
    let stats = export::validate_perfetto(&perfetto).expect("valid perfetto trace");
    assert!(stats.complete_events > 0 && stats.counter_events > 0);
    assert!(
        stats.named_tracks >= 4,
        "tenant + service tracks must be named"
    );

    // analyze() attributes queue wait as a distinct stage with nonzero
    // share: multi-tenant contention is visible in the stage breakdown.
    let analysis = analyze::analyze(&snap);
    let shares = analysis.stage_shares();
    let queue_share = shares
        .iter()
        .find(|(stage, _, _)| stage.name() == "QueueWait")
        .map(|(_, _, share)| *share)
        .expect("QueueWait missing from stage breakdown");
    assert!(
        queue_share > 0.0,
        "demo workload queues jobs, so queue wait share must be > 0"
    );
    // And job execution is a stage too: no share is left to `Other`.
    let other = analysis.stage_s.get(&analyze::Stage::Other);
    assert_eq!(other, None, "{shares:?}");
}

/// An engine-scoped capture placed as the service places a pass: `at_s`
/// later, `tracks` higher and under `label`. It has rank tracks, a parent
/// recorded after its child, and a counter series.
fn engine_capture(ranks: u32, at_s: f64, tracks: u32, label: &str) -> Telemetry {
    let tel = Telemetry::enabled().placed(at_s, tracks, label);
    for r in 0..ranks {
        tel.set_track_name(r, &format!("rank {r}"));
        let parent = tel.reserve_span_id();
        tel.span(r, "Map", 0.25 * f64::from(r), 0.5)
            .parent(parent)
            .attr("chunk", r.to_string())
            .record();
        tel.span(r, "Chunk", 0.0, 0.5).id(parent).record();
        tel.sample(r, "queue_depth", 0.25, f64::from(r));
    }
    tel
}

/// The snapshot a dump is equivalent to: the newest `capacity` spans and
/// samples of `recording`, then `capture`'s, with the capture's span ids
/// numbered past the window's. The reference every postmortem's bytes
/// must equal.
fn snapshot_for(
    recording: &Telemetry,
    capacity: usize,
    capture: Option<&Telemetry>,
) -> TelemetrySnapshot {
    let mut snap = recording.snapshot();
    let older = |n: usize| n.saturating_sub(capacity);
    snap.spans.drain(..older(snap.spans.len()));
    snap.samples.drain(..older(snap.samples.len()));
    if let Some(capture) = capture {
        let extra = capture.snapshot();
        let id_base = snap.spans.iter().map(|s| s.id).max().unwrap_or(0);
        snap.spans
            .extend(extra.spans.into_iter().map(|s| SpanRecord {
                id: s.id + id_base,
                parent: s.parent.map(|p| p + id_base),
                ..s
            }));
        snap.samples.extend(extra.samples);
        snap.tracks.extend(extra.tracks);
    }
    snap
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever is recorded between dumps — fewer or more records than
    /// the window or the recording holds, spans and samples interleaved,
    /// timestamps tied and out of order, explicit span ids above and
    /// below the automatic ones, tracks named late or never, with and
    /// without a placed engine capture — every postmortem's assembled
    /// document is the one `to_perfetto_json` writes for the equivalent
    /// snapshot, and later dumps leave it that way.
    #[test]
    fn postmortems_equal_the_whole_snapshot_export(
        capacity in 1usize..20,
        held in 1usize..40,
        ops in prop::collection::vec((0u8..10, 0u32..16, 0u32..5, 0u64..4000), 1..160),
    ) {
        let recording = Telemetry::with_capacity(held);
        let mut fr = FlightRecorder::new(&recording, capacity);
        let mut written: Vec<String> = Vec::new();
        for (op, tick, track, x) in ops {
            // A coarse grid, so timestamps tie; -0.0 ties with 0.0.
            let t = if tick == 0 && x % 2 == 1 { -0.0 } else { f64::from(tick) * 0.125 };
            match op {
                0..=3 => {
                    let mut span = recording
                        .span(track, ["Job", "QueueWait"][(x % 2) as usize], t, t + (x % 7) as f64 * 0.0625 - 0.125)
                        .name(format!("job{x} \"q\"\n"))
                        .attr("job", format!("job{x}"));
                    if x % 5 == 0 {
                        span = span.id(x + 1).parent(x / 5);
                    }
                    span.record();
                }
                4..=6 => recording.sample(track, "service.queue_depth", t, (x % 9) as f64),
                7 => recording.set_track_name(track, &format!("tenant {x}")),
                _ => {
                    let subject = format!("job{x}");
                    let capture = (op == 9)
                        .then(|| engine_capture(2 + 2 * (x % 2) as u32, t, track + 1, &subject));
                    let want = export::to_perfetto_json(&snapshot_for(&recording, capacity, capture.as_ref()));
                    let pm = fr.dump("deadline-missed", &subject, t, capture.as_ref());
                    prop_assert!(pm.trace_json() == want, "dump {} differs", pm.seq);
                    let mut bytes = Vec::new();
                    pm.write_trace(&mut bytes).expect("write to a Vec");
                    prop_assert!(bytes == want.as_bytes(), "dump {} writes differently", pm.seq);
                    export::validate_perfetto(&want).expect("postmortem validates");
                    written.push(want);
                }
            }
        }
        prop_assert_eq!(fr.postmortems().len(), written.len());
        for (pm, want) in fr.postmortems().iter().zip(&written) {
            prop_assert!(&pm.trace_json() == want, "dump {} changed after later dumps", pm.seq);
        }
    }
}
