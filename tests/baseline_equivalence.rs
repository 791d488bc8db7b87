//! The baselines must be *correct* implementations, not strawmen: Phoenix
//! and Mars must produce exactly the same answers as the GPMR jobs and
//! the sequential references. The faulted-conformance half then pins the
//! recovery path to the same bar: every app must still match its CPU
//! reference when a GPU dies mid-job.

use std::sync::Arc;

use gpmr::apps::{kmc, lr, mm, sio, text, wo};
use gpmr::baselines::{
    mars_mm, phoenix_mm, run_mars, run_phoenix, MarsKmc, MarsWo, PhoenixConfig, PhoenixKmc,
    PhoenixLr, PhoenixSio, PhoenixWo,
};
use gpmr::core::{JobTimings, RunOpts};
use gpmr::prelude::*;
use gpmr::sim_gpu::FaultPlan;
use gpmr::sim_net::CpuSpec;
use gpmr_sim_gpu::Gpu;

fn phoenix_cfg() -> PhoenixConfig {
    PhoenixConfig {
        task_items: 8 * 1024,
        ..PhoenixConfig::default()
    }
}

#[test]
fn phoenix_and_gpmr_agree_on_sio() {
    let data = sio::generate_integers(40_000, 10);
    let expect = sio::cpu_reference(&data);

    let mut phoenix = run_phoenix(&phoenix_cfg(), &PhoenixSio, &data).pairs;
    phoenix.sort_unstable();
    assert_eq!(phoenix, expect);

    let mut cluster = Cluster::accelerator(4, GpuSpec::gt200());
    let gpmr = run_job(
        &mut cluster,
        &SioJob::default(),
        sio::sio_chunks(&data, 16 * 1024),
    )
    .unwrap();
    assert_eq!(sio::counts_from_output(&gpmr.merged_output()), expect);
}

#[test]
fn phoenix_and_gpmr_agree_on_wo() {
    let dict = Arc::new(Dictionary::generate(250, 11));
    let corpus = text::generate_text(&dict, 40_000, 12);
    let expect = wo::cpu_reference(&dict, &corpus);

    let phoenix = run_phoenix(&phoenix_cfg(), &PhoenixWo::new(dict.clone()), &corpus);
    let mut phoenix_counts = vec![0u32; dict.len()];
    for &(k, v) in &phoenix.pairs {
        phoenix_counts[k as usize] = v;
    }
    assert_eq!(phoenix_counts, expect);

    let mut gpu = Gpu::new(GpuSpec::gt200());
    let mars = run_mars(&mut gpu, &MarsWo::new(dict.clone()), &corpus).unwrap();
    let mut mars_counts = vec![0u32; dict.len()];
    for &(k, v) in &mars.pairs {
        mars_counts[k as usize] = v;
    }
    assert_eq!(mars_counts, expect);
}

#[test]
fn phoenix_mars_and_gpmr_agree_on_kmc() {
    let centers = kmc::initial_centers(10, 13);
    let points = kmc::generate_points(30_000, 10, 14);
    let expect = kmc::cpu_reference(&centers, &points);

    let phoenix = run_phoenix(&phoenix_cfg(), &PhoenixKmc::new(centers.clone()), &points);
    let mut gpu = Gpu::new(GpuSpec::gt200());
    let mars = run_mars(&mut gpu, &MarsKmc::new(centers.clone()), &points).unwrap();

    for pairs in [&phoenix.pairs, &mars.pairs] {
        for &(c, v) in pairs {
            let base = c as usize * (kmc::DIMS + 1);
            for d in 0..=kmc::DIMS {
                let want = expect[base + d];
                assert!(
                    (v[d] - want).abs() <= 1e-6 * (1.0 + want.abs()),
                    "center {c} dim {d}"
                );
            }
        }
    }
}

#[test]
fn phoenix_lr_agrees_with_reference() {
    let samples = lr::generate_samples(30_000, 3.0, 1.0, 15);
    let expect = lr::cpu_reference(&samples);
    let phoenix = run_phoenix(&phoenix_cfg(), &PhoenixLr, &samples);
    for &(k, v) in &phoenix.pairs {
        let want = expect[k as usize];
        assert!((v - want).abs() <= 1e-6 * (1.0 + want.abs()));
    }
}

#[test]
fn all_three_mm_implementations_agree() {
    let a = Matrix::random(96, 16);
    let b = Matrix::random(96, 17);
    let reference = a.multiply_reference(&b);

    let (phoenix_c, phoenix_t) = phoenix_mm(&CpuSpec::dual_opteron_2216(), &a, &b);
    assert_eq!(phoenix_c, reference);

    let mut gpu = Gpu::new(GpuSpec::gt200());
    let (mars_c, mars_t) = mars_mm(&mut gpu, &a, &b).unwrap();
    for (x, y) in mars_c.data.iter().zip(&reference.data) {
        assert!((x - y).abs() < 1e-3);
    }

    let mut cluster = Cluster::accelerator(2, GpuSpec::gt200());
    let gpmr = gpmr::apps::mm::run_mm(&mut cluster, &a, &b, 3, 3, 3, RunOpts::default()).unwrap();
    for (x, y) in gpmr.c.data.iter().zip(&reference.data) {
        assert!((x - y).abs() <= 1e-4 * (1.0 + x.abs()));
    }

    // The GPU implementations beat the CPU baseline even at this toy
    // size. (GPMR-beats-Mars needs benchmark-scale matrices where job
    // setup amortizes — that ordering is exercised by the Table 3
    // harness, `gpmr paper table3`.)
    assert!(gpmr.total_time.as_secs() < phoenix_t.as_secs());
    assert!(mars_t.as_secs() < phoenix_t.as_secs());
}

// ---------------------------------------------------------------------
// Golden conformance under faults: each paper app, with one GPU killed
// mid-job, must still match its sequential CPU reference — exactly for
// the integer apps, within float-accumulation tolerance for KMC/LR/MM.
// ---------------------------------------------------------------------

fn close(a: &[f64], b: &[f64], tol: f64) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())))
}

/// Run `run` fault-free to learn the makespan, then again with rank 1
/// killed at 35% of it. Returns the faulted outcome.
fn with_mid_job_kill<T>(
    gpus: u32,
    run: impl Fn(&mut Cluster) -> (T, JobTimings),
) -> (T, JobTimings) {
    let mut clean = Cluster::accelerator(gpus, GpuSpec::gt200());
    let (_, base_t) = run(&mut clean);
    let mut faulted = Cluster::accelerator(gpus, GpuSpec::gt200());
    faulted.set_fault_plan(Some(
        FaultPlan::new().kill(1, base_t.total.as_secs() * 0.35),
    ));
    let (out, t) = run(&mut faulted);
    assert!(t.gpus_lost >= 1, "the mid-job kill never landed");
    (out, t)
}

#[test]
fn sio_with_mid_job_kill_matches_reference() {
    let data = sio::generate_integers(60_000, 21);
    let expect = sio::cpu_reference(&data);
    let (merged, t) = with_mid_job_kill(4, |cluster| {
        let r = run_job(
            cluster,
            &SioJob::default(),
            sio::sio_chunks(&data, 16 * 1024),
        )
        .expect("SIO survives the kill");
        let timings = r.timings.clone();
        (r.merged_output(), timings)
    });
    assert!(t.chunks_requeued > 0);
    assert_eq!(sio::counts_from_output(&merged), expect);
}

#[test]
fn wo_with_mid_job_kill_matches_reference() {
    let dict = Arc::new(Dictionary::generate(300, 22));
    let corpus = text::generate_text(&dict, 60_000, 23);
    let expect = wo::cpu_reference(&dict, &corpus);
    let (merged, _) = with_mid_job_kill(4, |cluster| {
        let job = WoJob::new(dict.clone(), 4);
        let r =
            run_job(cluster, &job, text::chunk_text(&corpus, 6_000)).expect("WO survives the kill");
        let timings = r.timings.clone();
        (r.merged_output(), timings)
    });
    assert_eq!(wo::counts_from_output(&dict, &merged), expect);
}

#[test]
fn kmc_with_mid_job_kill_matches_reference() {
    let centers = kmc::initial_centers(12, 24);
    let points = kmc::generate_points(50_000, 12, 25);
    let expect = kmc::cpu_reference(&centers, &points);
    let (merged, _) = with_mid_job_kill(4, |cluster| {
        let job = KmcJob::new(centers.clone());
        let r = run_job(cluster, &job, SliceChunk::split(&points, 8_192))
            .expect("KMC survives the kill");
        let timings = r.timings.clone();
        (r.merged_output(), timings)
    });
    let sums = kmc::sums_from_output(centers.len(), &merged);
    assert!(close(&sums, &expect, 1e-6), "KMC sums diverged after kill");
}

#[test]
fn lr_with_mid_job_kill_matches_reference() {
    let samples = lr::generate_samples(80_000, -0.5, 7.0, 26);
    let expect = lr::cpu_reference(&samples);
    let (merged, _) = with_mid_job_kill(4, |cluster| {
        let r = run_job(cluster, &LrJob, SliceChunk::split(&samples, 16_384))
            .expect("LR survives the kill");
        let timings = r.timings.clone();
        (r.merged_output(), timings)
    });
    let stats = lr::stats_from_output(&merged);
    assert!(close(&stats, &expect, 1e-6), "LR stats diverged after kill");
}

#[test]
fn mm_with_mid_job_kill_matches_reference() {
    let a = Matrix::random(192, 27);
    let b = Matrix::random(192, 28);
    let reference = a.multiply_reference(&b);

    let mut clean = Cluster::accelerator(4, GpuSpec::gt200());
    let base = mm::run_mm(&mut clean, &a, &b, 4, 6, 3, RunOpts::default()).expect("fault-free MM");

    let mut faulted = Cluster::accelerator(4, GpuSpec::gt200());
    faulted.set_fault_plan(Some(
        FaultPlan::new().kill(1, base.total_time.as_secs() * 0.35),
    ));
    let result = mm::run_mm(&mut faulted, &a, &b, 4, 6, 3, RunOpts::default())
        .expect("MM survives the kill");
    assert!(
        result.phase1.gpus_lost + result.phase2.gpus_lost >= 1,
        "the mid-job kill never landed"
    );
    for (i, (x, y)) in result.c.data.iter().zip(&reference.data).enumerate() {
        assert!(
            (x - y).abs() <= 1e-4 * (1.0 + x.abs()),
            "element {i}: {x} vs {y}"
        );
    }
    // The bits of the two-`run_job` chain MM ran as before the round
    // driver. A migrating chunk is charged its serialized length, so these
    // also pin that tagging a chunk with its round adds no byte.
    let makespan = result.total_time.as_secs().to_bits();
    assert_eq!(makespan, 0x3f6c_63a3_332d_ebe0, "{}", result.total_time);
    // FNV-1a of the product's encoding, the pair hash of the build that
    // recorded it.
    let bytes: Vec<u8> = result.c.data.iter().flat_map(|x| x.to_le_bytes()).collect();
    let product = gpmr::core::journal::fnv1a(&bytes);
    assert_eq!(product, 0x470d_1501_2494_58cd);
}
