//! Weak scaling (Table 1, set two): fixed input *per GPU*; ideal behaviour
//! is constant runtime as GPUs are added. Reports runtimes and weak
//! efficiency `T(1)/T(n)` for a mid-range per-GPU size of each benchmark.
//!
//! Usage: `cargo run --release -p gpmr-bench --bin weak_scaling
//! [--scale N] [--full]` — by default only the mid-range per-GPU size of
//! each benchmark runs; `--full` sweeps the paper's entire set two.

use gpmr_apps::{Benchmark, Workload};
use gpmr_bench::table::{efficiency_cell, render};
use gpmr_bench::{harness_input, or_exit, run_bench, HarnessConfig};
use gpmr_sim_gpu::SimDuration;

fn main() {
    let cfg = HarnessConfig::from_args();
    let full = gpmr_bench::harness::parse_flag("--full");
    println!(
        "Weak scaling (Table 1 set two) — constant per-GPU input, scale divisor {}\n",
        cfg.scale
    );

    let gpu_counts = [1u32, 4, 16, 64];
    for bench in Benchmark::ALL {
        // Mid-range per-GPU size by default; the whole set with --full.
        // (MM has no weak-scaling set.)
        let sizes = bench.weak_sizes_per_gpu();
        if sizes.is_empty() {
            continue;
        }
        let chosen: Vec<u64> = if full {
            sizes.to_vec()
        } else {
            vec![sizes[sizes.len() / 2]]
        };
        for per_gpu_m in chosen {
            let per_gpu = (per_gpu_m * 1_000_000 / cfg.scale.max(1)).max(1024);

            let mut headers: Vec<String> =
                vec![format!("{} ({}M/GPU paper)", bench.name(), per_gpu_m)];
            headers.extend(gpu_counts.iter().map(|g| format!("{g} GPU")));
            let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();

            let mut time_cells = vec!["runtime".to_string()];
            let mut eff_cells = vec!["weak efficiency".to_string()];
            let mut t1 = SimDuration::ZERO;
            for &g in &gpu_counts {
                let w = Workload {
                    benchmark: bench,
                    size: per_gpu * u64::from(g),
                    seed: cfg.seed,
                };
                let t = or_exit(run_bench(&harness_input(&w, cfg.scale), g, cfg.scale)).total;
                if g == 1 {
                    t1 = t;
                }
                time_cells.push(format!("{t}"));
                eff_cells.push(efficiency_cell(if t.as_secs() > 0.0 {
                    t1.as_secs() / t.as_secs()
                } else {
                    0.0
                }));
            }
            println!("{}", render(&header_refs, &[time_cells, eff_cells]));
        }
    }
    println!("Ideal weak scaling holds runtime flat (efficiency 1.0) as GPUs grow;");
    println!("communication-bound benchmarks (SIO) degrade fastest, accumulation-");
    println!("based ones (KMC, LR) stay closest to flat.");
}
