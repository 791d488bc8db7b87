//! The harness runner: generate a (scaled) benchmark input once, run it
//! on N-GPU clusters with matching scaled hardware, and return the timing
//! breakdown. Which generator, chunker and job a benchmark means is
//! [`gpmr_apps::table`]'s business; this module owns what is the
//! harness's — the shared dictionary, the double-buffer chunk sizing and
//! the scale law each run's hardware takes.
//!
//! Workload-scaling: element counts are divided by `scale` and every
//! hardware throughput is divided by `scale` too (latencies unchanged),
//! so the simulated times approximate full-scale runs — see
//! [`gpmr_sim_gpu::GpuSpec::scaled`]. MM's matrix order shrinks by
//! [`mm_dim_factor`] and its hardware by [`ScaleLaw::mm`].

use std::sync::Arc;

use gpmr_apps::datasets::{mm_dim_factor, Workload};
use gpmr_apps::mm::{mm_auto_blocks, run_mm, Matrix, TILE};
use gpmr_apps::table::{self, dictionary_words, AppData, AppInput};
use gpmr_apps::text::Dictionary;
use gpmr_core::{EngineResult, JobTimings, RunOpts};
use gpmr_sim_gpu::{GpuSpec, ScaleLaw};
use gpmr_sim_net::{Cluster, Topology};

use crate::harness::chunk_bytes;

/// A GT200 cluster with hardware scaled to match workloads divided by
/// `scale`.
pub fn scaled_cluster(gpus: u32, scale: u64) -> Cluster {
    Cluster::accelerator_scaled(gpus, GpuSpec::gt200(), scale as f64)
}

/// The dictionary every harness WO run of a scale shares:
/// [`dictionary_words`] words from a fixed seed.
pub fn shared_dictionary(scale: u64) -> Arc<Dictionary> {
    Arc::new(Dictionary::generate(dictionary_words(scale), 0xd1c7))
}

/// Generate workload `w`'s input the harness way: WO reads the shared
/// dictionary and draws its text from the workload seed itself. Sweeps
/// call this once per size and reuse the input across GPU counts.
pub fn harness_input(w: &Workload, scale: u64) -> AppInput {
    AppInput::generate(w.benchmark, w.size as usize, w.seed, None, || {
        (shared_dictionary(scale), w.seed)
    })
}

/// Run `input`'s benchmark on `gpus` GPUs of hardware scaled by `scale`,
/// in chunks sized for the classic double buffer. A job the scaled
/// cluster cannot hold is the engine's typed error, not a panic.
pub fn run_bench(input: &AppInput, gpus: u32, scale: u64) -> EngineResult<JobTimings> {
    if let AppData::Mm { a, b } = input.data() {
        return run_mm_scaled(a, b, gpus, scale);
    }
    let mut cluster = scaled_cluster(gpus, scale);
    let chunk = chunk_bytes(input.bytes(), gpus, scale);
    let run = table::run(input, &mut cluster, chunk, false, RunOpts::default())?;
    Ok(run.timings)
}

/// MM under its own scaling law ([`ScaleLaw::mm`]): the matrix order
/// was already divided by [`mm_dim_factor`], the chunk blocks shrink by
/// the same `d` — making the scaled run time-equivalent to the full-order
/// run (up to fixed latencies). Both GPMR phases are included.
fn run_mm_scaled(a: &Matrix, b: &Matrix, gpus: u32, scale: u64) -> EngineResult<JobTimings> {
    let d = mm_dim_factor(scale);
    let nt_full = a.n * d as usize / TILE;
    let (side_f, _, kb_f) = mm_auto_blocks(nt_full, gpus, GpuSpec::gt200().mem_capacity);
    let side = (side_f / d as usize).max(1);
    let kb = (kb_f / d as usize).max(1);
    let topology = Topology::accelerator(gpus);
    let mut cluster = Cluster::scaled(topology, GpuSpec::gt200(), ScaleLaw::mm(d));
    Ok(run_mm(&mut cluster, a, b, side, side, kb, RunOpts::default())?.timings())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpmr_apps::Benchmark;

    fn input(benchmark: Benchmark, size: u64, seed: u64) -> AppInput {
        let w = Workload {
            benchmark,
            size,
            seed,
        };
        harness_input(&w, 64)
    }

    #[test]
    fn runner_produces_positive_times() {
        for (bench, size) in [
            (Benchmark::Sio, 20_000),
            (Benchmark::Lr, 20_000),
            (Benchmark::Kmc, 5_000),
            (Benchmark::Mm, 64),
        ] {
            let timings = run_bench(&input(bench, size, 1), 2, 64).unwrap();
            assert!(timings.total.as_secs() > 0.0, "{}", bench.name());
        }
    }

    #[test]
    fn wo_runner_works_with_small_dictionary() {
        let wo = AppInput::generate(Benchmark::Wo, 10_000, 3, None, || {
            (Arc::new(Dictionary::generate(100, 9)), 3)
        });
        let timings = run_bench(&wo, 2, 64).unwrap();
        assert!(timings.total.as_secs() > 0.0);
        assert_eq!(timings.per_rank.len(), 2);
    }

    #[test]
    fn more_gpus_do_not_increase_makespan_for_large_jobs() {
        let sio = input(Benchmark::Sio, 400_000, 2);
        let t1 = run_bench(&sio, 1, 64).unwrap().total;
        let t4 = run_bench(&sio, 4, 64).unwrap().total;
        assert!(
            t4.as_secs() < t1.as_secs(),
            "4-GPU run ({t4}) should beat 1 GPU ({t1})"
        );
    }

    #[test]
    fn mm_runs_where_its_key_groups_straddle_the_staging_bound() {
        // Device capacity shrinks by d^2 while phase 2 keeps whole tile
        // groups per chunk: at `--scale 128` a chunk grew past its group
        // boundary to 1 024 tiles, more than a 4 MiB device stages four
        // times, and `gpmr paper fig2` failed with `ChunkTooLarge`.
        for scale in [128, 4096] {
            let w = gpmr_apps::strong_workload(Benchmark::Mm, 3, scale, 1);
            let timings = run_bench(&harness_input(&w, scale), 1, scale).unwrap();
            assert!(timings.total.as_secs() > 0.0, "scale {scale}");
        }
    }
}
