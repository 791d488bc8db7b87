//! Criterion benches mirroring the paper's evaluation artifacts — one
//! group per table/figure, at miniature sizes so `cargo bench` completes
//! quickly. These measure *wall-clock* cost of regenerating each artifact
//! point; the artifact values themselves come from the harness binaries
//! (`fig3_efficiency`, `table2_phoenix`, ...), which print the simulated
//! times at full calibrated scale.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpmr_apps::{AppData, AppInput, Benchmark, Workload};
use gpmr_baselines::mars::run_mars;
use gpmr_baselines::mars_apps::MarsKmc;
use gpmr_baselines::phoenix::{run_phoenix, PhoenixConfig};
use gpmr_baselines::phoenix_apps::PhoenixSio;
use gpmr_bench::runners::{harness_input, run_bench};
use gpmr_sim_gpu::{Gpu, GpuSpec};

/// Miniature scale: tiny workloads, hardware scaled to match.
const SCALE: u64 = 1024;

/// A miniature harness input, generated once per bench like the sweeps do.
fn input(benchmark: Benchmark, size: u64, seed: u64) -> AppInput {
    let w = Workload {
        benchmark,
        size,
        seed,
    };
    harness_input(&w, SCALE)
}

fn fig3_strong_scaling_points(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3_efficiency_point");
    let points = [
        ("sio_128k", input(Benchmark::Sio, 128 * 1024, 1)),
        ("kmc_64k", input(Benchmark::Kmc, 64 * 1024, 1)),
        ("lr_128k", input(Benchmark::Lr, 128 * 1024, 1)),
    ];
    for gpus in [1u32, 8] {
        for (name, input) in &points {
            group.bench_with_input(BenchmarkId::new(*name, gpus), &gpus, |b, &g| {
                b.iter(|| run_bench(input, g, SCALE).unwrap());
            });
        }
    }
    group.finish();
}

fn fig2_breakdown_point(c: &mut Criterion) {
    let wo = input(Benchmark::Wo, 512 * 1024, 2);
    c.bench_function("fig2_breakdown_wo_8gpu", |b| {
        b.iter(|| run_bench(&wo, 8, SCALE).unwrap());
    });
}

fn table2_phoenix_point(c: &mut Criterion) {
    let sio = input(Benchmark::Sio, 128 * 1024, 3);
    let AppData::Sio(data) = sio.data() else {
        unreachable!("generated as SIO");
    };
    let cfg = PhoenixConfig::default();
    let mut group = c.benchmark_group("table2_phoenix_point");
    group.bench_function("phoenix_sio_128k", |b| {
        b.iter(|| run_phoenix(&cfg, &PhoenixSio, data));
    });
    group.bench_function("gpmr_sio_128k_1gpu", |b| {
        b.iter(|| run_bench(&sio, 1, SCALE).unwrap());
    });
    group.finish();
}

fn table3_mars_point(c: &mut Criterion) {
    let kmc = input(Benchmark::Kmc, 64 * 1024, 5);
    let AppData::Kmc { centers, points } = kmc.data() else {
        unreachable!("generated as KMC");
    };
    let mut group = c.benchmark_group("table3_mars_point");
    group.bench_function("mars_kmc_64k", |b| {
        let mut gpu = Gpu::new(GpuSpec::gt200());
        b.iter(|| run_mars(&mut gpu, &MarsKmc::new(centers.clone()), points).unwrap());
    });
    group.bench_function("gpmr_kmc_64k_1gpu", |b| {
        b.iter(|| run_bench(&kmc, 1, SCALE).unwrap());
    });
    group.finish();
}

fn mm_end_to_end(c: &mut Criterion) {
    let mm = input(Benchmark::Mm, 128, 6);
    // MM's scaling law stops at `--scale 80`: past it the d²-scaled
    // devices cannot stage phase 2 (this point died there at `SCALE`).
    c.bench_function("fig3_mm_128_2gpu", |b| {
        b.iter(|| run_bench(&mm, 2, gpmr_bench::DEFAULT_SCALE).unwrap());
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = fig3_strong_scaling_points,
              fig2_breakdown_point,
              table2_phoenix_point,
              table3_mars_point,
              mm_end_to_end
);
criterion_main!(benches);
