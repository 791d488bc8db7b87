//! Engine-level invariants: determinism, timing accounting, load
//! balancing, and the hardware-scaling equivalence the harness relies on.

use gpmr::prelude::*;
use gpmr::sim_gpu::SimDuration;
use gpmr_apps::sio::{generate_integers, sio_chunks};

fn run_sio(gpus: u32, elements: usize) -> gpmr::core::JobResult<u32, u32> {
    let data = generate_integers(elements, 42);
    let mut cluster = Cluster::accelerator(gpus, GpuSpec::gt200());
    run_job(
        &mut cluster,
        &SioJob::default(),
        sio_chunks(&data, 32 * 1024),
    )
    .unwrap()
}

#[test]
fn runs_are_deterministic() {
    let a = run_sio(6, 50_000);
    let b = run_sio(6, 50_000);
    assert_eq!(a.total_time(), b.total_time());
    assert_eq!(a.merged_output(), b.merged_output());
    assert_eq!(a.timings.chunks_per_rank, b.timings.chunks_per_rank);
    assert_eq!(a.timings.chunks_stolen, b.timings.chunks_stolen);
}

#[test]
fn stage_times_sum_to_makespan_on_every_rank() {
    let result = run_sio(8, 100_000);
    for (r, st) in result.timings.per_rank.iter().enumerate() {
        let sum = st.total().as_secs();
        let makespan = result.timings.total.as_secs();
        assert!(
            (sum - makespan).abs() < 1e-9 * makespan.max(1.0),
            "rank {r}: {sum} vs {makespan}"
        );
    }
}

#[test]
fn every_rank_maps_some_chunks_on_balanced_input() {
    let result = run_sio(8, 400_000);
    for (r, &n) in result.timings.chunks_per_rank.iter().enumerate() {
        assert!(n > 0, "rank {r} mapped nothing");
    }
    assert_eq!(result.timings.pairs_emitted, 400_000);
    assert_eq!(result.timings.pairs_shuffled, 400_000);
}

#[test]
fn dynamic_scheduler_steals_on_skewed_queues() {
    // Chunks of wildly different sizes force queue imbalance: the
    // round-robin distribution gives some ranks far more *work* even with
    // equal chunk counts, so stealing should fire.
    let data = generate_integers(600_000, 3);
    let mut chunks = sio_chunks(&data, 8 * 1024);
    // Pile the large chunks onto the queues of the first ranks by
    // re-splitting unevenly: first 80% of data in big chunks, rest tiny.
    chunks.sort_by_key(|c| std::cmp::Reverse(c.items.len()));
    let mut cluster = Cluster::accelerator(8, GpuSpec::gt200());
    let result = run_job(&mut cluster, &SioJob::default(), chunks).unwrap();
    // All data still counted exactly once.
    let total: u64 = result
        .merged_output()
        .vals
        .iter()
        .map(|&v| u64::from(v))
        .sum();
    assert_eq!(total, 600_000);
}

#[test]
fn more_gpus_never_lose_badly_on_large_jobs() {
    let t2 = run_sio(2, 500_000).total_time();
    let t8 = run_sio(8, 500_000).total_time();
    assert!(
        t8.as_secs() < t2.as_secs(),
        "8 GPUs ({t8}) should beat 2 GPUs ({t2}) on a large job"
    );
}

#[test]
fn scaled_hardware_reproduces_full_scale_times() {
    // The harness's workload-scaling trick: workload/κ on hardware/κ
    // gives (approximately) the same simulated time. Compare two scale
    // factors of the same full-size job.
    let full = 512_000usize;
    let times: Vec<SimDuration> = [8u64, 16]
        .iter()
        .map(|&k| {
            let elements = full / k as usize;
            let data = generate_integers(elements, 9);
            let mut cluster = Cluster::accelerator_scaled(4, GpuSpec::gt200(), k as f64);
            let chunk_bytes = (4 * elements / 16).max(1024);
            let r = run_job(
                &mut cluster,
                &SioJob::default(),
                sio_chunks(&data, chunk_bytes),
            )
            .unwrap();
            r.total_time()
        })
        .collect();
    let (a, b) = (times[0].as_secs(), times[1].as_secs());
    assert!(
        (a - b).abs() / a.max(b) < 0.25,
        "scale-8 {a} vs scale-16 {b} should agree within 25%"
    );
}

#[test]
fn efficiency_definition_matches_paper() {
    // Efficiency = speedup / #GPUs, bounded by ~1 for non-superlinear
    // in-core jobs.
    let t1 = run_sio(1, 200_000).total_time();
    let t4 = run_sio(4, 200_000).total_time();
    let eff = gpmr::core::efficiency(t1, t4, 4);
    assert!(eff > 0.2 && eff < 1.3, "efficiency {eff}");
    assert!((gpmr::core::speedup(t1, t4) / 4.0 - eff).abs() < 1e-12);
}

#[test]
fn empty_job_completes_with_zero_output() {
    let mut cluster = Cluster::accelerator(4, GpuSpec::gt200());
    let result = run_job(&mut cluster, &SioJob::default(), Vec::new()).unwrap();
    assert!(result.merged_output().is_empty());
    assert_eq!(result.outputs.len(), 4);
}

#[test]
fn chunked_reduce_matches_single_kernel_reduce() {
    // The paper's reduce-chunking callback (§4.3): splitting the key
    // segments across many reduce kernels must not change the output,
    // only add kernel launches (and their simulated time).
    let data = generate_integers(120_000, 11);
    let chunks = sio_chunks(&data, 32 * 1024);

    let mut c1 = Cluster::accelerator(2, GpuSpec::gt200());
    let whole = run_job(&mut c1, &SioJob::default(), chunks.clone()).unwrap();
    let mut c2 = Cluster::accelerator(2, GpuSpec::gt200());
    let chunked = run_job(&mut c2, &SioJob::default().with_reduce_chunk(1000), chunks).unwrap();

    assert_eq!(whole.merged_output(), chunked.merged_output());
    // Chunked reduce pays more launch overhead.
    assert!(chunked.total_time().as_secs() >= whole.total_time().as_secs());
}

#[test]
fn gpu_direct_networking_speeds_up_shuffle_heavy_jobs() {
    use gpmr::core::{run_job_with, EngineTuning, RunOpts};
    // The paper's concluding hardware wish: GPUs sourcing/sinking network
    // I/O directly removes the PCI-e round trips around every pair
    // transfer. A shuffle-heavy SIO job must get faster; results must not
    // change.
    let data = generate_integers(400_000, 21);
    let chunks = sio_chunks(&data, 64 * 1024);
    let mut plain = Cluster::accelerator(8, GpuSpec::gt200());
    let without = run_job(&mut plain, &SioJob::default(), chunks.clone()).unwrap();
    let mut direct = Cluster::accelerator(8, GpuSpec::gt200());
    let opts = RunOpts {
        tuning: EngineTuning {
            gpu_direct: true,
            ..EngineTuning::default()
        },
        ..RunOpts::default()
    };
    let with = run_job_with(&mut direct, &SioJob::default(), chunks, opts).unwrap();

    assert_eq!(without.merged_output(), with.merged_output());
    assert!(
        with.total_time().as_secs() < without.total_time().as_secs(),
        "GPU-direct {} should beat host-staged {}",
        with.total_time(),
        without.total_time()
    );
}

#[test]
fn reduce_memory_clamp_handles_tiny_devices() {
    // A device whose memory cannot hold all values in one reduce chunk
    // still completes (the engine halves the chunk until it fits).
    let data = generate_integers(40_000, 22);
    let spec = GpuSpec::gt200().with_mem_capacity(256 * 1024);
    let mut cluster = Cluster::new(gpmr::sim_net::Topology::new(1, 2, 2), spec);
    let result = run_job(
        &mut cluster,
        &SioJob::default(),
        sio_chunks(&data, 16 * 1024),
    )
    .unwrap();
    let total: u64 = result
        .merged_output()
        .vals
        .iter()
        .map(|&v| u64::from(v))
        .sum();
    assert_eq!(total, 40_000);
}

#[test]
fn dynamic_scheduling_beats_static_on_skewed_work() {
    use gpmr::core::{run_job_with, EngineTuning, RunOpts};
    // Adversarial queue skew: the round-robin distribution assigns chunk i
    // to rank i % 8, so placing every big chunk at positions = 0 (mod 8)
    // piles all the heavy work onto rank 0's queue. The big chunks are
    // 128x the small ones, so rank 0 stays transfer-bound long after the
    // light ranks drain — skew the deep upload pipeline cannot hide, so
    // it must be stolen away.
    let data = generate_integers(2_211_840, 31);
    let heavy = sio_chunks(&data[..2_097_152], 256 * 1024); // 32 big chunks
    let light = sio_chunks(&data[2_097_152..], 2 * 1024); // 224 tiny chunks
    let mut heavy = heavy.into_iter();
    let mut light = light.into_iter();
    let mut big: Vec<_> = Vec::new();
    let mut i = 0usize;
    loop {
        let next = if i.is_multiple_of(8) {
            heavy.next().or_else(|| light.next())
        } else {
            light.next().or_else(|| heavy.next())
        };
        match next {
            Some(c) => big.push(c),
            None => break,
        }
        i += 1;
    }

    let static_tuning = EngineTuning {
        allow_stealing: false,
        ..EngineTuning::default()
    };
    let mut c1 = Cluster::accelerator(8, GpuSpec::gt200());
    let dynamic = run_job(&mut c1, &SioJob::default(), big.clone()).unwrap();
    let mut c2 = Cluster::accelerator(8, GpuSpec::gt200());
    let opts = RunOpts {
        tuning: static_tuning,
        ..RunOpts::default()
    };
    let fixed = run_job_with(&mut c2, &SioJob::default(), big, opts).unwrap();

    assert_eq!(dynamic.merged_output(), fixed.merged_output());
    assert_eq!(fixed.timings.chunks_stolen, 0);
    assert!(
        dynamic.timings.chunks_stolen > 0,
        "skew should trigger steals"
    );
    assert!(
        dynamic.total_time().as_secs() < fixed.total_time().as_secs(),
        "dynamic {} should beat static {}",
        dynamic.total_time(),
        fixed.total_time()
    );
}

#[test]
fn zeroed_overheads_form_the_software_ceiling() {
    use gpmr::core::{run_job_with, EngineTuning, RunOpts};
    let data = generate_integers(100_000, 32);
    let chunks = sio_chunks(&data, 16 * 1024);
    let ideal = EngineTuning {
        sched_overhead_s: 0.0,
        setup_base_s: 0.0,
        setup_per_rank_s: 0.0,
        ..EngineTuning::default()
    };
    let mut c1 = Cluster::accelerator(8, GpuSpec::gt200());
    let real = run_job(&mut c1, &SioJob::default(), chunks.clone()).unwrap();
    let mut c2 = Cluster::accelerator(8, GpuSpec::gt200());
    let opts = RunOpts {
        tuning: ideal,
        ..RunOpts::default()
    };
    let ceiling = run_job_with(&mut c2, &SioJob::default(), chunks, opts).unwrap();
    assert_eq!(real.merged_output(), ceiling.merged_output());
    assert!(ceiling.total_time().as_secs() < real.total_time().as_secs());
}

#[test]
fn more_ranks_than_chunks_leaves_idle_ranks_harmless() {
    let data = generate_integers(6_000, 41);
    // Three chunks on a 16-GPU cluster: 13 ranks never map anything.
    let chunks = sio_chunks(&data, 8 * 1024);
    assert!(chunks.len() < 16, "test premise: fewer chunks than ranks");
    let mut cluster = Cluster::accelerator(16, GpuSpec::gt200());
    let result = run_job(&mut cluster, &SioJob::default(), chunks).unwrap();
    let total: u64 = result
        .merged_output()
        .vals
        .iter()
        .map(|&v| u64::from(v))
        .sum();
    assert_eq!(total, 6_000);
    let mappers = result
        .timings
        .chunks_per_rank
        .iter()
        .filter(|&&n| n > 0)
        .count();
    assert!(mappers <= 3);
    // Stage accounting still sums to the makespan on idle ranks.
    for st in &result.timings.per_rank {
        assert!((st.total().as_secs() - result.total_time().as_secs()).abs() < 1e-12);
    }
}
