//! Iterative K-Means Clustering on a GPU cluster.
//!
//! The paper benchmarks a single k-means iteration; this example runs the
//! full iterative algorithm on the multi-round job driver — each round is
//! one GPMR job whose reduced sums produce the next centers, the updated
//! centers are broadcast over the simulated fabric, and the points stay
//! device-resident between rounds when they fit (the i-MapReduce-style
//! loop the paper's §2.2 mentions). The reported time is one honest
//! cross-round clock: map/shuffle/reduce makespans *plus* the
//! inter-round center broadcasts, not a naive per-job sum.
//!
//! Run with: `cargo run --release --example kmeans`

use gpmr::apps::iterative::run_kmeans;
use gpmr::apps::kmc::{generate_points, initial_centers};
use gpmr::prelude::*;

fn main() {
    const K: usize = 8;
    const POINTS: usize = 200_000;
    const ITERATIONS: usize = 8;
    const CHUNK_POINTS: usize = 32 * 1024;

    let points = generate_points(POINTS, K, 7);
    println!("{POINTS} points, {K} centers, {ITERATIONS} max iterations on 8 GPUs\n");

    let mut cluster = Cluster::accelerator(8, GpuSpec::gt200());
    let result = run_kmeans(
        &mut cluster,
        &points,
        initial_centers(K, 99),
        CHUNK_POINTS,
        ITERATIONS,
        1e-4,
        None,
    )
    .expect("k-means failed");

    for (iter, movement) in result.movement.iter().enumerate() {
        println!("iteration {iter}: center movement {movement:.5}");
    }
    if result.iterations < ITERATIONS {
        println!("converged early");
    }
    println!(
        "\ntotal simulated time: {} ({} of {} iterations device-resident)",
        result.total_time, result.resident_rounds, result.iterations
    );
    println!("final centers:");
    for (i, c) in result.centers.iter().enumerate() {
        println!(
            "  c{i}: [{:+.3}, {:+.3}, {:+.3}, {:+.3}]",
            c[0], c[1], c[2], c[3]
        );
    }
}
