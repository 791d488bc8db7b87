//! Cross-crate integration: every paper benchmark, executed through the
//! public facade on multiple cluster shapes, must reproduce its
//! sequential reference bit-for-bit (or within float-accumulation
//! tolerance).

use std::sync::Arc;

use gpmr::apps::{kmc, lr, mm, sio, text, wo};
use gpmr::core::RunOpts;
use gpmr::prelude::*;

fn close(a: &[f64], b: &[f64], tol: f64) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())))
}

#[test]
fn sio_correct_across_cluster_shapes() {
    let data = sio::generate_integers(60_000, 1);
    let expect = sio::cpu_reference(&data);
    for gpus in [1u32, 2, 4, 6, 8, 16] {
        let mut cluster = Cluster::accelerator(gpus, GpuSpec::gt200());
        let result = run_job(
            &mut cluster,
            &SioJob::default(),
            sio::sio_chunks(&data, 16 * 1024),
        )
        .unwrap();
        let got = sio::counts_from_output(&result.merged_output());
        assert_eq!(got, expect, "{gpus} GPUs");
    }
}

#[test]
fn wo_correct_across_cluster_shapes_and_crossover() {
    let dict = Arc::new(Dictionary::generate(300, 2));
    let corpus = text::generate_text(&dict, 60_000, 3);
    let expect = wo::cpu_reference(&dict, &corpus);
    for gpus in [1u32, 4, 12] {
        let mut cluster = Cluster::accelerator(gpus, GpuSpec::gt200());
        let job = WoJob::new(dict.clone(), gpus);
        let result = run_job(&mut cluster, &job, text::chunk_text(&corpus, 6_000)).unwrap();
        assert_eq!(
            wo::counts_from_output(&dict, &result.merged_output()),
            expect,
            "{gpus} GPUs"
        );
    }
}

#[test]
fn kmc_correct_across_cluster_shapes() {
    let centers = kmc::initial_centers(12, 4);
    let points = kmc::generate_points(50_000, 12, 5);
    let expect = kmc::cpu_reference(&centers, &points);
    for gpus in [1u32, 3, 8] {
        let mut cluster = Cluster::accelerator(gpus, GpuSpec::gt200());
        let job = KmcJob::new(centers.clone());
        let chunks = SliceChunk::split(&points, 8_192);
        let result = run_job(&mut cluster, &job, chunks).unwrap();
        let sums = kmc::sums_from_output(centers.len(), &result.merged_output());
        assert!(close(&sums, &expect, 1e-6), "{gpus} GPUs");
    }
}

#[test]
fn lr_correct_and_recovers_model() {
    let samples = lr::generate_samples(80_000, -0.5, 7.0, 6);
    let expect = lr::cpu_reference(&samples);
    for gpus in [1u32, 5, 16] {
        let mut cluster = Cluster::accelerator(gpus, GpuSpec::gt200());
        let chunks = SliceChunk::split(&samples, 16_384);
        let result = run_job(&mut cluster, &LrJob, chunks).unwrap();
        let stats = lr::stats_from_output(&result.merged_output());
        assert!(close(&stats, &expect, 1e-6), "{gpus} GPUs");
        let model = lr::model_from_stats(&stats);
        assert!((model.slope + 0.5).abs() < 0.02);
        assert!((model.intercept - 7.0).abs() < 0.05);
    }
}

#[test]
fn mm_correct_across_cluster_shapes() {
    let a = Matrix::random(192, 7);
    let b = Matrix::random(192, 8);
    let reference = a.multiply_reference(&b);
    for gpus in [1u32, 2, 6] {
        let mut cluster = Cluster::accelerator(gpus, GpuSpec::gt200());
        let result = mm::run_mm(&mut cluster, &a, &b, 4, 6, 3, RunOpts::default()).unwrap();
        for (i, (x, y)) in result.c.data.iter().zip(&reference.data).enumerate() {
            assert!(
                (x - y).abs() <= 1e-4 * (1.0 + x.abs()),
                "{gpus} GPUs, element {i}: {x} vs {y}"
            );
        }
    }
}

#[test]
fn facade_prelude_covers_the_quickstart_path() {
    // The prelude alone must be enough to build and run a job.
    let mut cluster = Cluster::accelerator(2, GpuSpec::gt200());
    let data: Vec<u32> = (0..10_000).map(|i| i % 7).collect();
    let chunks = SliceChunk::split(&data, 2048);
    let result = run_job(&mut cluster, &SioJob::default(), chunks).unwrap();
    assert_eq!(result.merged_output().len(), 7);
    assert!(result.total_time().as_secs() > 0.0);
}
