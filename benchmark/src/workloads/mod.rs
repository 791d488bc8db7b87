//! The four workloads and the types they share.

pub mod apps;
pub mod batch;
pub mod serve;

use std::time::Instant;

use gpmr::telemetry::analyze::{analyze, Stage};
use gpmr::telemetry::export::to_perfetto_json;
use gpmr::telemetry::{MetricsSnapshot, TelemetrySnapshot};

use crate::trace::{Metrics, Tracer};
use apps::EngineCounts;

/// Workload names, in report order.
pub const NAMES: [&str; 4] = [
    "sio_sort_8rank",
    "wo_map_8rank",
    "paper5_64rank",
    "serve_mix",
];

/// What one pass produced. Everything here is simulated or counted, so
/// every pass of a run must produce the same value bit for bit.
#[derive(Clone, Debug, PartialEq)]
pub struct PassOutcome {
    /// Simulated seconds the pass took.
    pub sim_makespan_s: f64,
    /// Simulated submit→finish latency of each job of the pass.
    pub job_latencies_s: Vec<f64>,
    /// Operations whose output was checked against a reference.
    pub attempted: u64,
    /// Operations whose output matched.
    pub ok: u64,
    /// Operations that produced a wrong output or an engine error. (A
    /// job the service rejects or stops at its deadline is not ok, but
    /// it did not fail: the service did what its contract says.)
    pub failed: u64,
    /// Exact counts, compared between passes.
    pub counts: Vec<(&'static str, u64)>,
}

/// A workload after set-up: inputs generated, references computed.
pub trait Workload {
    /// One pass exactly as gated: tracing off, the workload's own
    /// telemetry setting.
    fn pass(&self, tr: &mut Tracer) -> PassOutcome;

    /// The same pass with the harness spans recording and the repo's
    /// telemetry on; reports the workload's own per-layer metrics into
    /// `m` and returns what the layer replays need. `plain_wall_s` is the
    /// median plain pass, the base of `telemetry.pass_overhead_share`.
    fn traced_pass(
        &self,
        pass: u32,
        plain_wall_s: f64,
        tr: &mut Tracer,
        m: &mut Metrics,
    ) -> (PassOutcome, Observed);
}

/// Build a workload (this is the timed set-up, minus the warm-up pass).
pub fn setup(name: &str, seed: u64, smoke: bool, tr: &mut Tracer) -> Box<dyn Workload> {
    match name {
        "sio_sort_8rank" => Box::new(batch::Batch::sio_sort_8rank(seed, smoke, tr)),
        "wo_map_8rank" => Box::new(batch::Batch::wo_map_8rank(seed, smoke, tr)),
        "paper5_64rank" => Box::new(batch::Batch::paper5_64rank(seed, smoke, tr)),
        "serve_mix" => Box::new(serve::ServeMix::new(seed, smoke, tr)),
        other => unreachable!("workload {other:?} was validated by the argument parser"),
    }
}

/// Span names around each application's engine call; `<name>_s` is the
/// per-layer metric.
pub const APP_SPANS: [&str; 5] = [
    "core.engine.run_sio",
    "core.engine.run_wo",
    "core.engine.run_kmc",
    "core.engine.run_lr",
    "apps.mm.run_mm",
];

/// SplitMix64: the harness's own generator, for what it generates itself
/// (traffic shape, replay keys) rather than through the repo's generators.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// What the repo's own telemetry said about the instrumented engine runs
/// of a traced pass, summed over those runs.
#[derive(Default)]
pub struct Observed {
    /// Ranks of the cluster the pass ran on.
    pub ranks: u32,
    /// Input items of the pass (for the replication rate).
    pub input_items: u64,
    /// Exclusive upper bound of the keys the pass sorts.
    pub key_space: u64,
    pub counts: EngineCounts,
    /// Host seconds inside the engine.
    pub engine_s: f64,
    /// Critical-path seconds: setup, upload, map, bin, sort, reduce.
    pub stage_s: [f64; 6],
    pub imbalance_cv: f64,
    pub overlap_ratio: f64,
    /// Runs averaged into `imbalance_cv` and `overlap_ratio`.
    pub runs: f64,
    pub kernels: f64,
    pub h2d_bytes: f64,
    pub d2h_bytes: f64,
    pub mem_peak_bytes: f64,
    pub fabric_sends: f64,
    pub fabric_bytes: f64,
    pub spans: f64,
    pub analyze_s: f64,
    pub perfetto_s: f64,
    /// Pairs each reducer sorted (from the engine's Sort spans).
    pub sort_sizes: Vec<usize>,
    /// A registry snapshot of the pass, for the time-series replay.
    pub registry: Option<MetricsSnapshot>,
}

const STAGES: [Stage; 6] = [
    Stage::Setup,
    Stage::Upload,
    Stage::Map,
    Stage::Bin,
    Stage::Sort,
    Stage::Reduce,
];

impl Observed {
    /// Fold in the recording of one instrumented engine run that stands
    /// for `times` identical runs of the pass.
    pub fn absorb(&mut self, snap: &TelemetrySnapshot, ranks: u32, times: u32) {
        let weight = f64::from(times);
        assert_eq!(snap.dropped_spans, 0, "telemetry ring dropped spans");
        let t = Instant::now();
        let analysis = analyze(snap);
        self.analyze_s += t.elapsed().as_secs_f64() * weight;
        let t = Instant::now();
        std::hint::black_box(to_perfetto_json(snap));
        self.perfetto_s += t.elapsed().as_secs_f64() * weight;

        for (slot, stage) in self.stage_s.iter_mut().zip(STAGES) {
            *slot += analysis.stage_s.get(&stage).copied().unwrap_or(0.0) * weight;
        }
        self.imbalance_cv += analysis.imbalance_cv * weight;
        self.overlap_ratio += analysis.overlap.map_or(0.0, |o| o.ratio) * weight;
        self.runs += weight;

        let metrics = &snap.metrics;
        let per_rank = |what: &str| -> f64 {
            (0..ranks)
                .map(|r| metrics.counter(&format!("gpu.rank{r}.{what}")) as f64)
                .sum()
        };
        self.kernels += per_rank("kernels") * weight;
        self.h2d_bytes += per_rank("h2d_bytes") * weight;
        self.d2h_bytes += per_rank("d2h_bytes") * weight;
        let peak = (0..ranks)
            .map(|r| metrics.gauge(&format!("gpu.rank{r}.mem_peak_bytes")))
            .fold(0.0, f64::max);
        self.mem_peak_bytes = self.mem_peak_bytes.max(peak);
        self.fabric_sends += metrics.counter("fabric.sends") as f64 * weight;
        self.fabric_bytes += metrics.counter("fabric.bytes") as f64 * weight;
        self.spans += snap.spans.len() as f64 * weight;

        // The engine's Sort spans start their detail with the number of
        // pairs the reducer sorted.
        let sizes: Vec<usize> = snap
            .spans_of("Sort")
            .map(|s| {
                s.attr("detail")
                    .and_then(|d| d.split_whitespace().next())
                    .and_then(|n| n.parse().ok())
                    .expect("Sort span detail starts with its pair count")
            })
            .collect();
        for _ in 0..times {
            self.sort_sizes.extend_from_slice(&sizes);
        }
        self.registry = Some(metrics.clone());
    }

    /// Report the `sim.*`, exact `sim_gpu.*`/`sim_net.*`/`core.engine.*`
    /// and telemetry-cost metrics this recording holds.
    pub fn report(&self, m: &mut Metrics) {
        const MB: f64 = 1024.0 * 1024.0;
        let runs = self.runs.max(1.0);
        for (name, v) in ["setup", "upload", "map", "bin", "sort", "reduce"]
            .iter()
            .zip(self.stage_s)
        {
            m.put(&format!("sim.{name}_s"), v, "s");
        }
        m.put("sim.imbalance_cv", self.imbalance_cv / runs, "ratio");
        m.put("sim.overlap_ratio", self.overlap_ratio / runs, "ratio");
        m.put("sim_gpu.device.kernels", self.kernels, "count");
        m.put("sim_gpu.device.h2d_mb", self.h2d_bytes / MB, "MiB");
        m.put("sim_gpu.device.d2h_mb", self.d2h_bytes / MB, "MiB");
        m.put(
            "sim_gpu.device.mem_peak_mb",
            self.mem_peak_bytes / MB,
            "MiB",
        );
        m.put("sim_net.fabric.sends", self.fabric_sends, "count");
        m.put("sim_net.fabric.mb", self.fabric_bytes / MB, "MiB");
        let c = &self.counts;
        m.put(
            "core.engine.chunks_dispatched",
            c.chunks_dispatched as f64,
            "count",
        );
        m.put("core.engine.chunks_stolen", c.chunks_stolen as f64, "count");
        m.put(
            "core.engine.chunks_requeued",
            c.chunks_requeued as f64,
            "count",
        );
        m.put("core.engine.pairs_emitted", c.pairs_emitted as f64, "count");
        m.put(
            "core.engine.pairs_shuffled",
            c.pairs_shuffled as f64,
            "count",
        );
        m.put(
            "core.engine.transfer_retries",
            c.transfer_retries as f64,
            "count",
        );
        m.put(
            "core.shuffle.replication_rate",
            c.pairs_shuffled as f64 / self.input_items.max(1) as f64,
            "ratio",
        );
        m.put("telemetry.spans_per_pass", self.spans, "count");
        m.put("telemetry.analyze_ms", self.analyze_s * 1e3, "ms");
        m.put("telemetry.export.perfetto_ms", self.perfetto_s * 1e3, "ms");
    }
}
