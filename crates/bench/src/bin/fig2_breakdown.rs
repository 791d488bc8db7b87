//! Figure 2: GPMR runtime breakdowns (Map / Complete Binning / Sort /
//! Reduce / GPMR Internal-Scheduler) on the largest datasets at 1, 8, and
//! 64 GPUs.
//!
//! Usage: `cargo run --release -p gpmr-bench --bin fig2_breakdown
//! [--scale N] [--csv]`

use gpmr_apps::{strong_workload, Benchmark};
use gpmr_bench::table::{percent_cell, render};
use gpmr_bench::{harness_input, or_exit, run_bench, HarnessConfig};

fn main() {
    let cfg = HarnessConfig::from_args();
    println!(
        "Figure 2 — GPMR runtime breakdown on the largest datasets, scale divisor {}\n",
        cfg.scale
    );

    let want_csv = gpmr_bench::harness::parse_flag("--csv");
    let mut csv = String::from("benchmark,gpus,map_pct,bin_pct,sort_pct,reduce_pct,sched_pct\n");
    let gpu_counts = [1u32, 8, 64];
    let headers = ["benchmark", "GPUs", "Map", "Bin", "Sort", "Reduce", "Sched"];
    let mut rows = Vec::new();
    for bench in Benchmark::ALL {
        // Largest strong-scaling input (index 3).
        let input = harness_input(&strong_workload(bench, 3, cfg.scale, cfg.seed), cfg.scale);
        for &g in &gpu_counts {
            let p = or_exit(run_bench(&input, g, cfg.scale)).mean_percentages();
            csv.push_str(&format!(
                "{},{g},{:.2},{:.2},{:.2},{:.2},{:.2}\n",
                bench.name(),
                p[0],
                p[1],
                p[2],
                p[3],
                p[4]
            ));
            rows.push(vec![
                bench.name().to_string(),
                g.to_string(),
                percent_cell(p[0]),
                percent_cell(p[1]),
                percent_cell(p[2]),
                percent_cell(p[3]),
                percent_cell(p[4]),
            ]);
        }
    }
    println!("{}", render(&headers, &rows));
    if want_csv {
        println!("--- CSV ---");
        print!("{csv}");
    }
    println!("Expected shapes (paper Fig. 2): MM stays Map-dominated at every scale;");
    println!("SIO's bottleneck shifts from Sort (few GPUs) toward Binning/network");
    println!("(many GPUs); WO/KMC/LR are Map-dominated at 1 GPU with the scheduler");
    println!("and binning slices growing with GPU count.");
}
