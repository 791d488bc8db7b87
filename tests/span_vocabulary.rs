//! The span vocabulary is closed: whatever a product path records is a
//! row of the `SpanKind` table, and every row is something a product
//! path records.

use std::collections::HashSet;
use std::sync::Arc;

use gpmr::apps::iterative::KmcRounds;
use gpmr::apps::kmc::{generate_points, initial_centers};
use gpmr::apps::sio::{generate_integers, sio_chunks, SioMode};
use gpmr::apps::table::{self, dictionary_words, AppInput};
use gpmr::apps::Benchmark;
use gpmr::core::{
    run_job_with, run_rounds, EngineError, EngineResult, EngineTuning, Journal, Run, RunOpts,
};
use gpmr::prelude::*;
use gpmr::service::{run_script, ServiceConfig};
use gpmr::sim_gpu::FaultPlan;
use gpmr::telemetry::{SpanKind, Telemetry};

const CHUNK_BYTES: usize = 16 * 1024;

/// Run SIO in `mode` on `ranks` GPUs under the fault plan `plan`.
fn run_sio(ranks: u32, plan: &str, mode: SioMode, opts: RunOpts<'_>) -> EngineResult<()> {
    let mut cluster = Cluster::accelerator(ranks, GpuSpec::gt200());
    cluster.set_fault_plan(Some(FaultPlan::parse(plan).expect("plan parses")));
    let chunks = sio_chunks(&generate_integers(100_000, 7), CHUNK_BYTES / 4);
    run_job_with(&mut cluster, &SioJob::with_mode(mode), chunks, opts).map(|_| ())
}

#[test]
fn every_recorded_kind_is_in_the_table_and_every_row_is_recorded() {
    let tel = Telemetry::enabled();
    let opts = || RunOpts {
        tel: tel.clone(),
        ..RunOpts::default()
    };

    // Every app of the table, fault-free; MM's two rounds record `Round`.
    for bench in Benchmark::ALL {
        let size = if bench == Benchmark::Mm { 64 } else { 100_000 };
        let input = AppInput::generate(bench, size, 7, None, || {
            (Arc::new(Dictionary::generate(dictionary_words(64), 7)), 8)
        });
        let mut cluster = Cluster::accelerator(4, GpuSpec::gt200());
        table::run(&input, &mut cluster, CHUNK_BYTES, false, opts()).expect("app runs");
    }
    // SIO's two other pipelines, the second one journaled.
    run_sio(4, "", SioMode::PartialReduce, opts()).expect("partial-reduce run");
    let path = std::env::temp_dir().join(format!("gpmr_vocabulary_{}.gpj", std::process::id()));
    let mut journal = Journal::create(&path, 8).expect("journal file");
    let journaled = RunOpts {
        journal: Some(&mut journal),
        ..opts()
    };
    run_sio(4, "", SioMode::Combine, journaled).expect("combine run");
    std::fs::remove_file(&path).expect("journal file");
    // A kill, two failed transfers and a stall, on two nodes so that the
    // shuffle crosses a NIC; then a GPU joining a running job.
    let faults = "kill:1@1e-4;xfail:0->2@0..1e-2*2;stall:2@1e-4+1e-4";
    run_sio(8, faults, SioMode::Plain, opts()).expect("survivors finish the job");
    run_sio(5, "add:4@1e-4", SioMode::Plain, opts()).expect("elastic run");
    // A caller's stop.
    let mut cluster = Cluster::accelerator(4, GpuSpec::gt200());
    let (job, stop) = (SioJob::default(), SimTime::from_secs(2e-4));
    let chunks = sio_chunks(&generate_integers(100_000, 7), CHUNK_BYTES / 4);
    let mut run = Run::new(&mut cluster, &job, chunks, &mut opts()).expect("run starts");
    run.step_until(&mut cluster, &job, None, stop)
        .expect("steps");
    let stopped = run.cancel(&mut cluster, stop);
    assert!(
        matches!(stopped, EngineError::Cancelled { .. }),
        "{stopped:?}"
    );
    // A multi-round job on the round driver.
    let points = generate_points(8_000, 4, 33);
    run_rounds(
        &mut Cluster::accelerator(4, GpuSpec::gt200()),
        &mut KmcRounds::new(initial_centers(4, 34), 2, 0.0),
        SliceChunk::split(&points, 1024),
        &EngineTuning::default(),
        &tel,
        None,
    )
    .expect("kmeans rounds");
    // The job service.
    let script = include_str!("../workloads/service_demo.wl");
    let (svc, _) =
        run_script(script, ServiceConfig::default(), Telemetry::enabled()).expect("demo runs");

    let (engine, service) = (tel.snapshot(), svc.telemetry().snapshot());
    let mut seen = HashSet::new();
    for span in engine.spans.iter().chain(&service.spans) {
        let kind = SpanKind::from_name(&span.kind);
        assert!(kind.is_some(), "{:?} is not in the table", span.kind);
        seen.extend(kind);
    }
    let unseen: Vec<SpanKind> = SpanKind::all().filter(|k| !seen.contains(k)).collect();
    assert_eq!(unseen, [], "rows nothing records");
}
