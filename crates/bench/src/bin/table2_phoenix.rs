//! Table 2: GPMR speedup over Phoenix (1 GPU and 4 GPUs, single node) on
//! the second-largest strong-scaling inputs — except MM, which uses the
//! small input set (the paper: Phoenix needed ~20 s for a 1024x1024
//! multiply).
//!
//! Usage: `cargo run --release -p gpmr-bench --bin table2_phoenix [--scale N]`

use gpmr_apps::datasets::mm_dim_factor;
use gpmr_apps::{strong_workload, AppData, Benchmark};
use gpmr_baselines::phoenix::{run_phoenix, PhoenixConfig};
use gpmr_baselines::phoenix_apps::{phoenix_mm, PhoenixKmc, PhoenixLr, PhoenixSio, PhoenixWo};
use gpmr_bench::table::{render, speedup_cell};
use gpmr_bench::{harness_input, or_exit, run_bench, HarnessConfig};
use gpmr_sim_gpu::SimDuration;
use gpmr_sim_net::CpuSpec;

fn main() {
    let cfg = HarnessConfig::from_args();
    println!(
        "Table 2 — GPMR speedup over Phoenix, scale divisor {} (paper values in parens)\n",
        cfg.scale
    );

    // Phoenix runs on one node with hardware scaled like the GPMR side.
    let cpu = CpuSpec::dual_opteron_2216().scaled(cfg.scale as f64);
    let phx = PhoenixConfig {
        cpu,
        task_items: 16 * 1024,
    };

    // (benchmark, strong-size index, paper 1-GPU, paper 4-GPU)
    let entries: [(Benchmark, usize, f64, f64); 5] = [
        (Benchmark::Mm, 0, 162.712, 559.209),
        (Benchmark::Kmc, 2, 2.991, 11.726),
        (Benchmark::Lr, 2, 1.296, 4.085),
        (Benchmark::Sio, 2, 1.450, 2.322),
        (Benchmark::Wo, 2, 11.080, 18.441),
    ];

    let headers = [
        "benchmark",
        "Phoenix",
        "GPMR 1-GPU",
        "GPMR 4-GPU",
        "1-GPU x (paper)",
        "4-GPU x (paper)",
    ];
    let mut rows = Vec::new();
    for (bench, idx, paper1, paper4) in entries {
        // Phoenix and GPMR read the same generated input.
        let input = harness_input(&strong_workload(bench, idx, cfg.scale, cfg.seed), cfg.scale);
        let phoenix_t = match input.data() {
            AppData::Mm { a, b } => {
                // Phoenix MM scales uniformly by d^3 (compute and naive
                // vector-vector traffic are both n^3).
                let d = mm_dim_factor(cfg.scale) as f64;
                let mm_cpu = CpuSpec::dual_opteron_2216().scaled(d * d * d);
                phoenix_mm(&mm_cpu, a, b).1
            }
            AppData::Sio(data) => run_phoenix(&phx, &PhoenixSio, data).time,
            AppData::Wo { dict, text } => {
                run_phoenix(&phx, &PhoenixWo::new(dict.clone()), text).time
            }
            AppData::Kmc { centers, points } => {
                run_phoenix(&phx, &PhoenixKmc::new(centers.clone()), points).time
            }
            AppData::Lr(samples) => run_phoenix(&phx, &PhoenixLr, samples).time,
        };
        let g1 = or_exit(run_bench(&input, 1, cfg.scale)).total;
        let g4 = or_exit(run_bench(&input, 4, cfg.scale)).total;
        rows.push(vec![
            bench.name().to_string(),
            format!("{phoenix_t}"),
            format!("{g1}"),
            format!("{g4}"),
            format!("{} ({paper1})", speedup_cell(ratio(phoenix_t, g1))),
            format!("{} ({paper4})", speedup_cell(ratio(phoenix_t, g4))),
        ]);
    }
    println!("{}", render(&headers, &rows));
    println!("Expected shape: GPMR beats Phoenix on every benchmark at 1 GPU and");
    println!("scales further at 4; MM's gap is by far the largest.");
}

fn ratio(a: SimDuration, b: SimDuration) -> f64 {
    if b.as_secs() <= 0.0 {
        0.0
    } else {
        a.as_secs() / b.as_secs()
    }
}
