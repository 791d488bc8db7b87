//! Visualize a GPMR schedule: run a job with telemetry enabled, print
//! the ASCII Gantt chart — uploads overlapping map kernels, binning
//! overlapping computation, the sort barrier, and the reduce tail — and
//! export the same recording as a Perfetto trace.
//!
//! Run with: `cargo run --release --example schedule_trace`
//! Then open `target/schedule_trace.json` in https://ui.perfetto.dev

use gpmr::core::{run_job_instrumented, EngineTuning};
use gpmr::prelude::*;
use gpmr::telemetry::{export, SpanKind, Telemetry};
use gpmr_apps::sio::{generate_integers, sio_chunks};

fn main() {
    let gpus = 4;
    let data = generate_integers(2_000_000, 7);
    let chunks = sio_chunks(&data, 512 * 1024);
    println!(
        "Sparse Integer Occurrence: {} integers, {} chunks, {gpus} GPUs\n",
        data.len(),
        chunks.len()
    );

    // One telemetry handle records everything: spans, counters, samples.
    let tel = Telemetry::enabled();
    let mut cluster = Cluster::accelerator(gpus, GpuSpec::gt200());
    let result = run_job_instrumented(
        &mut cluster,
        &SioJob::default(),
        chunks,
        &EngineTuning::default(),
        &tel,
    )
    .expect("job failed");
    let snap = tel.snapshot();

    // The Gantt chart is one more exporter over the same recording.
    println!("{}", export::gantt(&snap, gpus, 110));
    println!("simulated time: {}", result.total_time());
    println!(
        "recorded: {} spans, {} counter samples, {} metrics",
        snap.spans.len(),
        snap.samples.len(),
        snap.metrics.counters.len(),
    );

    // Quantify the overlap the chart shows: how much upload time hides
    // under map kernels.
    let summary = export::summary_report(&snap);
    for t in summary.tracks.iter().take(gpus as usize) {
        let busy = |kind: SpanKind| {
            SimDuration::from_secs(t.busy_by_kind.get(kind.name()).copied().unwrap_or(0.0))
        };
        println!(
            "rank {}: upload busy {}, map busy {}, sort busy {}",
            t.track,
            busy(SpanKind::Upload),
            busy(SpanKind::Map),
            busy(SpanKind::Sort)
        );
    }

    // Per-track utilization from the same summary (container spans are
    // left out so they don't double-count their children).
    println!("\n{}", summary.render_text());

    // Key counters from the metrics registry.
    for key in [
        "engine.chunks_dispatched",
        "engine.pairs_emitted",
        "engine.pairs_shuffled",
        "fabric.sends",
        "fabric.bytes",
    ] {
        println!("{key} = {}", snap.metrics.counter(key));
    }

    // Export the recording for Perfetto / chrome://tracing.
    let path = "target/schedule_trace.json";
    let json = export::to_perfetto_json(&snap);
    export::validate_perfetto(&json).expect("export must validate");
    std::fs::write(path, json).expect("write trace");
    println!("\nwrote {path} — open it in https://ui.perfetto.dev");

    println!("\n(the 'u' upload cells sit under/next to 'M' map cells: PCI-e");
    println!("streaming of the next chunk overlaps the current map kernel,");
    println!("and 's' bin sends overlap both — the paper's pipeline design)");
}
