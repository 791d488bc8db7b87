//! Hot-path microbenches for kernel launches and shuffle/sort
//! allocation work: kernel launch overhead, radix sort throughput,
//! the engine's bucket-split/combine shuffle path, the cost of the
//! telemetry subsystem (disabled vs enabled) on a full engine run, the
//! fixed cost of a job too small for anything else to show, and the two
//! application kernels that are host work rather than engine work.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gpmr_apps::kmc::{self, KmcJob};
use gpmr_apps::mm::{self, Matrix, MmMapJob};
use gpmr_core::helpers::{combine_pairs, split_buckets};
use gpmr_core::{run_job, run_job_instrumented, EngineTuning, GpmrJob, KvSet, SliceChunk};
use gpmr_primitives::sort_pairs;
use gpmr_service::{JobKind, JobService, JobSpec, ServiceConfig, TenantConfig};
use gpmr_sim_gpu::{Gpu, GpuSpec, LaunchConfig, SimTime};
use gpmr_sim_net::Cluster;
use gpmr_telemetry::{AlertEngine, AlertRule, Telemetry, TimeSeriesStore};

fn pseudo_random(n: usize, seed: u64) -> Vec<u32> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 16) as u32
        })
        .collect()
}

/// One cheap 64-block kernel: the real work is negligible, so the
/// measured time is the launch's own bookkeeping.
fn tiny_launch(gpu: &mut Gpu) -> usize {
    let cfg = LaunchConfig::for_items(4096, 64, 64);
    let (launch, _) = gpu
        .launch(SimTime::ZERO, &cfg, |ctx| {
            let r = ctx.item_range(4096);
            ctx.charge_flops(r.len() as u64);
            r.len()
        })
        .expect("launch");
    launch.outputs.into_iter().sum()
}

fn bench_launch_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("launch_overhead");
    group.bench_function("inline", |b| {
        let mut gpu = Gpu::new(GpuSpec::gt200());
        b.iter(|| tiny_launch(&mut gpu));
    });
    group.finish();
}

fn bench_sort_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("sort_throughput");
    for &n in &[256 * 1024usize, 1024 * 1024] {
        let keys = pseudo_random(n, 42);
        let vals: Vec<u32> = (0..n as u32).collect();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            let mut gpu = Gpu::new(GpuSpec::gt200());
            b.iter(|| sort_pairs(&mut gpu, SimTime::ZERO, &keys, &vals).unwrap());
        });
    }
    group.finish();
}

fn bench_shuffle_throughput(c: &mut Criterion) {
    let n = 512 * 1024usize;
    let keys = pseudo_random(n, 9);
    let mut group = c.benchmark_group("shuffle_throughput");
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("split_buckets_64", |b| {
        b.iter(|| {
            let pairs: KvSet<u32, u32> = KvSet::from_parts(keys.clone(), (0..n as u32).collect());
            split_buckets(pairs, 64, |k| k % 64)
        });
    });
    group.bench_function("combine_pairs", |b| {
        let mut gpu = Gpu::new(GpuSpec::gt200());
        b.iter(|| {
            let pairs: KvSet<u32, u32> =
                KvSet::from_parts(keys.iter().map(|k| k % 4096).collect(), vec![1u32; n]);
            combine_pairs(&mut gpu, SimTime::ZERO, pairs, |a, b| a.wrapping_add(b)).unwrap()
        });
    });
    group.finish();
}

/// Full engine run of a small SIO job with telemetry disabled vs
/// enabled vs enabled-plus-continuous-observability. "disabled" is the
/// default `run_job` path and must stay within a few percent of the
/// pre-telemetry engine; "enabled" shows the full recording cost
/// (spans, counters, samples); "timeseries" adds the SLO observability layer
/// on top — a windowed collect plus an alert evaluation per iteration,
/// the per-event-boundary work the job service does — and must stay
/// within a few percent of plain "enabled".
fn bench_telemetry_overhead(c: &mut Criterion) {
    let n = 200_000usize;
    let data = gpmr_apps::sio::generate_integers(n, 7);
    let mut group = c.benchmark_group("telemetry_overhead");
    group.throughput(Throughput::Elements(n as u64));
    for (name, enabled) in [("disabled", false), ("enabled", true), ("timeseries", true)] {
        group.bench_function(name, |b| {
            let mut cluster = Cluster::accelerator(4, GpuSpec::gt200());
            let observe = name == "timeseries";
            let mut store = TimeSeriesStore::new(1.0, 20);
            let mut alerts = AlertEngine::new(
                AlertRule::parse_list(
                    "dispatch: rate(engine.chunks_dispatched) > 1e12; \
                     stolen: sum(engine.chunks_stolen) > 1e12",
                )
                .expect("rules parse"),
            );
            let mut t = 0.0;
            b.iter(|| {
                let tel = if enabled {
                    Telemetry::enabled()
                } else {
                    Telemetry::disabled()
                };
                let chunks = gpmr_apps::sio::sio_chunks(&data, 64 * 1024);
                let out = run_job_instrumented(
                    &mut cluster,
                    &gpmr_apps::sio::SioJob::default(),
                    chunks,
                    &EngineTuning::default(),
                    &tel,
                )
                .unwrap();
                if observe {
                    t += 1e-3;
                    if let Some(reg) = tel.registry() {
                        store.collect(t, &reg.snapshot());
                    }
                    alerts.eval(t, &store);
                }
                out
            });
        });
    }
    group.finish();
}

/// What a job costs before its data costs anything. `sio_100_keys` is
/// 100 keys on 4 ranks through `run_job` — the engine's per-run and
/// per-sort bookkeeping (69 µs while every sort asked the OS for the core
/// count, four times 12 µs of it). `wo_dispatch` is one 512-word,
/// 4 KiB WO job submitted to a warm `JobService` and drained — what a
/// tenant's repeat job costs the serve path (0.40 ms more while every
/// dispatch rebuilt the dictionary and its perfect hash).
fn bench_tiny_job(c: &mut Criterion) {
    let mut group = c.benchmark_group("tiny_job");
    group.bench_function("sio_100_keys", |b| {
        let data = gpmr_apps::sio::generate_integers(100, 7);
        let mut cluster = Cluster::accelerator(4, GpuSpec::gt200());
        b.iter(|| {
            let chunks = gpmr_apps::sio::sio_chunks(&data, 64 * 1024);
            run_job(&mut cluster, &gpmr_apps::sio::SioJob::default(), chunks).unwrap()
        });
    });
    group.bench_function("wo_dispatch", |b| {
        let mut svc = JobService::new(
            ServiceConfig::default(),
            vec![TenantConfig::unlimited("t")],
            Telemetry::disabled(),
        );
        let spec = JobSpec::new(
            "t",
            JobKind::Wo {
                bytes: 4096,
                dict_words: 512,
                seed: 7,
                chunk_kb: 16,
            },
        );
        let mut dispatch = || {
            let id = svc.submit(spec.clone());
            svc.drain();
            svc.poll(id)
        };
        dispatch().expect("the job was submitted");
        b.iter(dispatch);
    });
    group.finish();
}

/// The two application kernels `paper5_64rank` spends host time in,
/// outside an engine run. `kmc_assign` is 1 M points against 32 centers
/// through `KmcJob::map_accumulate` on one GPU; the rate is points per
/// second, and it falls to a third if the compiler stops vectorising the
/// eight-point step. `mm_regroup` is the hand-over between MM's two
/// phases alone — order 512 on 64 ranks, 32 768 partial tiles (32 MiB).
fn bench_app_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("app_kernels");

    let points = 1 << 20;
    let job = KmcJob::new(kmc::initial_centers(32, 42));
    let chunk = SliceChunk::new(0, 0, kmc::generate_points(points, 32, 43));
    group.throughput(Throughput::Elements(points as u64));
    group.bench_function("kmc_assign", |b| {
        let mut gpu = Gpu::new(GpuSpec::gt200());
        let (mut state, t) = job.accumulate_init(&mut gpu, SimTime::ZERO).unwrap();
        b.iter(|| job.map_accumulate(&mut gpu, t, &chunk, &mut state).unwrap());
    });

    let (a, b) = (Matrix::random(512, 42), Matrix::random(512, 43));
    let mut cluster = Cluster::accelerator(64, GpuSpec::gt200());
    let capacity = cluster.gpu(0).mem.capacity();
    let (rb, cb, kb) = mm::mm_auto_blocks(a.n_tiles(), cluster.size(), capacity);
    let chunks = mm::mm_chunks(&a, &b, rb, cb, kb);
    let phase1 = run_job(&mut cluster, &MmMapJob::new(a.n_tiles() as u32), chunks).unwrap();
    let tiles: usize = phase1.outputs.iter().map(KvSet::len).sum();
    group.throughput(Throughput::Elements(tiles as u64));
    group.bench_function("mm_regroup", |b| {
        b.iter(|| mm::phase2_chunks(&phase1.outputs, capacity));
    });
    group.finish();
}

criterion_group!(
    hot_path,
    bench_launch_overhead,
    bench_sort_throughput,
    bench_shuffle_throughput,
    bench_telemetry_overhead,
    bench_tiny_job,
    bench_app_kernels
);
criterion_main!(hot_path);
