//! The perf-gate scenario suite: WO and SIO at 1/4/8 ranks, each run
//! instrumented and analyzed into a [`BenchBaseline`] (makespan, per-stage
//! critical-path time, counters, imbalance).
//!
//! `gpmr perf record` writes the suite into `BENCH_PR6.json`; `gpmr perf
//! diff` re-runs it live and compares against that file. The simulation is
//! deterministic and machine-independent, so an unchanged tree reproduces
//! the committed numbers exactly and any drift is a real behaviour change.
//!
//! Beyond the classic WO/SIO × 1/4/8-rank grid, the suite pins the engine
//! tuning axes that matter for the upload wall: GPU-direct transfers
//! (`*_direct`) and the upload pipeline depth (`wo_8rank_k1` runs the
//! 8-rank WO scenario with pipelining disabled, so the gate notices if
//! the pipeline ever stops paying for itself).

use std::collections::BTreeMap;

use gpmr_apps::table::{self, AppInput};
use gpmr_apps::Benchmark;
use gpmr_core::{EngineTuning, RunOpts};
use gpmr_telemetry::analyze::{analyze, Analysis};
use gpmr_telemetry::baseline::{BaselineSet, BenchBaseline};
use gpmr_telemetry::Telemetry;

use crate::harness::chunk_bytes_tuned;
use crate::runners::{scaled_cluster, shared_dictionary};

/// Tolerance the perf gate runs with (±10%, per the CI contract).
pub const DEFAULT_TOLERANCE: f64 = 0.10;

/// Full-scale WO corpus bytes.
const WO_FULL_BYTES: u64 = 1 << 28;
/// Full-scale SIO element count.
const SIO_FULL_ELEMENTS: u64 = 1 << 25;
/// Workload seed shared by every scenario.
const SEED: u64 = 11;

/// One gate scenario: a benchmark at a GPU count under a fixed engine
/// tuning (pipeline depth, transfer mode).
#[derive(Clone, Copy, Debug)]
pub struct PerfScenario {
    /// Stable scenario name used to match baselines, e.g. `"sio_4rank"`.
    pub name: &'static str,
    /// Benchmark to run.
    pub app: Benchmark,
    /// Full-scale input size (divided by the scale divisor per run).
    pub full_size: u64,
    /// Cluster size in GPUs.
    pub gpus: u32,
    /// Upload pipeline depth the engine (and chunk autotuner) run with.
    pub depth: u32,
    /// Shuffle pairs directly between GPUs instead of bouncing via hosts.
    pub gpu_direct: bool,
    /// Draw the workload from a Zipf distribution with this exponent
    /// instead of uniform (the skewed-shuffle scenarios).
    pub zipf: Option<f64>,
    /// Shuffle with sampled range splitters instead of round-robin.
    pub range_partition: bool,
}

impl PerfScenario {
    const fn new(name: &'static str, app: Benchmark, full_size: u64, gpus: u32) -> Self {
        PerfScenario {
            name,
            app,
            full_size,
            gpus,
            depth: 4,
            gpu_direct: false,
            zipf: None,
            range_partition: false,
        }
    }

    /// The [`EngineTuning`] this scenario runs under.
    pub fn tuning(&self) -> EngineTuning {
        EngineTuning {
            pipeline_depth: self.depth,
            gpu_direct: self.gpu_direct,
            ..EngineTuning::default()
        }
    }
}

/// Zipf exponent of the skewed-shuffle scenarios (hot word near 13% of
/// the corpus — heavy enough to unbalance round-robin, small enough that
/// key-granularity splitters can reach balance).
const ZIPF_S: f64 = 1.05;

/// The gate suite: WO + SIO at 1, 4, and 8 ranks at the default tuning,
/// plus the GPU-direct and pipelining-off variants of the 8-rank runs,
/// plus the skewed-shuffle pair — the same Zipf corpus shuffled
/// round-robin (`wo_8rank_zipf`) and with sampled range splitters
/// (`wo_8rank_zipf_range`), pinning the skew-aware partitioner's win
/// into the gate.
pub const SCENARIOS: [PerfScenario; 11] = [
    PerfScenario::new("wo_1rank", Benchmark::Wo, WO_FULL_BYTES, 1),
    PerfScenario::new("wo_4rank", Benchmark::Wo, WO_FULL_BYTES, 4),
    PerfScenario::new("wo_8rank", Benchmark::Wo, WO_FULL_BYTES, 8),
    PerfScenario {
        gpu_direct: true,
        ..PerfScenario::new("wo_8rank_direct", Benchmark::Wo, WO_FULL_BYTES, 8)
    },
    PerfScenario {
        depth: 1,
        ..PerfScenario::new("wo_8rank_k1", Benchmark::Wo, WO_FULL_BYTES, 8)
    },
    PerfScenario {
        zipf: Some(ZIPF_S),
        ..PerfScenario::new("wo_8rank_zipf", Benchmark::Wo, WO_FULL_BYTES, 8)
    },
    PerfScenario {
        zipf: Some(ZIPF_S),
        range_partition: true,
        ..PerfScenario::new("wo_8rank_zipf_range", Benchmark::Wo, WO_FULL_BYTES, 8)
    },
    PerfScenario::new("sio_1rank", Benchmark::Sio, SIO_FULL_ELEMENTS, 1),
    PerfScenario::new("sio_4rank", Benchmark::Sio, SIO_FULL_ELEMENTS, 4),
    PerfScenario::new("sio_8rank", Benchmark::Sio, SIO_FULL_ELEMENTS, 8),
    PerfScenario {
        gpu_direct: true,
        ..PerfScenario::new("sio_8rank_direct", Benchmark::Sio, SIO_FULL_ELEMENTS, 8)
    },
];

/// Scenario by name.
pub fn scenario(name: &str) -> Option<PerfScenario> {
    SCENARIOS.iter().copied().find(|s| s.name == name)
}

/// Run one scenario instrumented at the given inverse scale, returning its
/// baseline record and the full analysis behind it. Inputs never shrink
/// below 64 KiB, and WO reads the harness's shared dictionary.
pub fn run_scenario(sc: &PerfScenario, scale: u64) -> (BenchBaseline, Analysis) {
    let scale = scale.max(1);
    let tel = Telemetry::enabled();
    let mut cluster = scaled_cluster(sc.gpus, scale);
    let floor = 64 * 1024 / sc.app.element_bytes().unwrap_or(1);
    let size = (sc.full_size / scale).max(floor) as usize;
    let input = AppInput::generate(sc.app, size, SEED, sc.zipf, || {
        (shared_dictionary(scale), SEED)
    });
    let chunk = chunk_bytes_tuned(input.bytes(), sc.gpus, scale, sc.depth);
    let opts = RunOpts {
        tuning: sc.tuning(),
        tel: tel.clone(),
        ..RunOpts::default()
    };
    table::run(&input, &mut cluster, chunk, sc.range_partition, opts)
        .expect("perf scenario failed");
    let snap = tel.snapshot();
    let analysis = analyze(&snap);
    let counters: BTreeMap<String, u64> = snap
        .metrics
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("engine."))
        .map(|(k, v)| (k.clone(), *v))
        .collect();
    let baseline = BenchBaseline::from_analysis(sc.name, &analysis, counters);
    (baseline, analysis)
}

/// Run the whole suite and collect a baseline set, invoking `progress`
/// after each scenario (for harness output).
pub fn record_suite(
    scale: u64,
    mut progress: impl FnMut(&BenchBaseline, &Analysis),
) -> BaselineSet {
    let mut set = BaselineSet {
        scale,
        tolerance: DEFAULT_TOLERANCE,
        baselines: Vec::new(),
    };
    for sc in &SCENARIOS {
        let (baseline, analysis) = run_scenario(sc, scale);
        progress(&baseline, &analysis);
        set.baselines.push(baseline);
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpmr_telemetry::baseline::{diff, Verdict};

    #[test]
    fn scenario_reruns_are_bit_identical() {
        let sc = scenario("sio_4rank").unwrap();
        // A large scale keeps the test fast; determinism is scale-blind.
        let (a, _) = run_scenario(&sc, 2048);
        let (b, _) = run_scenario(&sc, 2048);
        assert_eq!(a, b, "deterministic sim must reproduce exactly");
        assert_eq!(diff(&a, &b, DEFAULT_TOLERANCE).verdict, Verdict::Pass);
    }

    #[test]
    fn stage_attribution_reconciles_with_makespan() {
        let sc = scenario("wo_4rank").unwrap();
        let (baseline, analysis) = run_scenario(&sc, 2048);
        assert!(baseline.makespan_ns > 0);
        let stage_sum: u64 = baseline.stage_ns.values().sum();
        let drift =
            (stage_sum as f64 - baseline.makespan_ns as f64).abs() / baseline.makespan_ns as f64;
        assert!(
            drift < 0.01,
            "stage sum {stage_sum} vs {}",
            baseline.makespan_ns
        );
        // The accumulate-mode WO job must now report emitted pairs.
        let emitted = baseline.counters["engine.pairs_emitted"];
        let shuffled = baseline.counters["engine.pairs_shuffled"];
        assert!(emitted > 0, "WO pairs_emitted stuck at 0");
        assert!(emitted >= shuffled);
        assert!(analysis.ranks.len() == 4);
    }
}
