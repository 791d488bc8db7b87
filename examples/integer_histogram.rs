//! Sparse Integer Occurrence at cluster scale, with the pipeline knobs
//! exposed: compare the paper's plain configuration against Partial
//! Reduction and Combine on both sparse and dense key distributions —
//! reproducing the paper's finding that the right pipeline depends on the
//! data.
//!
//! Run with: `cargo run --release --example integer_histogram`

use gpmr::apps::sio::{
    counts_from_output, cpu_reference, generate_integers, sio_chunks, SioJob, SioMode,
};
use gpmr::prelude::*;

fn run_one(label: &str, data: &[u32], mode: SioMode) {
    let mut cluster = Cluster::accelerator(4, GpuSpec::gt200());
    let job = SioJob::with_mode(mode);
    let chunks = sio_chunks(data, 512 * 1024);
    let result = run_job(&mut cluster, &job, chunks).expect("SIO job failed");

    // Verify counts.
    assert_eq!(
        counts_from_output(&result.merged_output()),
        cpu_reference(data)
    );
    println!(
        "  {label:<18} {}  ({} pairs shuffled)",
        result.total_time(),
        result.timings.pairs_shuffled
    );
}

fn main() {
    const N: usize = 1_000_000;

    println!("sparse keys (~{N} distinct values — the paper's SIO):");
    let sparse = generate_integers(N, 11);
    run_one("plain (paper)", &sparse, SioMode::Plain);
    run_one("partial reduce", &sparse, SioMode::PartialReduce);
    run_one("combine", &sparse, SioMode::Combine);

    println!("\ndense keys (256 distinct values — compaction pays off):");
    let dense: Vec<u32> = sparse.iter().map(|x| x % 256).collect();
    run_one("plain", &dense, SioMode::Plain);
    run_one("partial reduce", &dense, SioMode::PartialReduce);
    run_one("combine", &dense, SioMode::Combine);

    println!("\nthe paper's conclusion in action: no single pipeline configuration");
    println!("is best for every input — sparse keys want the plain path, dense");
    println!("keys want a reduction substage.");
}
