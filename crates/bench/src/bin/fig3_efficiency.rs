//! Figure 3: GPMR parallel efficiency for MM, SIO, WO, KMC, and LR —
//! strong-scaling set one, efficiency = speedup / #GPUs.
//!
//! Usage: `cargo run --release -p gpmr-bench --bin fig3_efficiency
//! [--scale N] [--csv]` — `--csv` appends machine-readable rows
//! (`benchmark,paper_size,gpus,seconds,efficiency`) for plotting.

use gpmr_apps::Benchmark;
use gpmr_bench::plot::{render_chart, Series};
use gpmr_bench::table::{efficiency_cell, render};
use gpmr_bench::{harness_input, or_exit, run_bench, HarnessConfig};
use gpmr_core::efficiency;
use gpmr_sim_gpu::SimDuration;

fn main() {
    let cfg = HarnessConfig::from_args();
    let want_csv = gpmr_bench::harness::parse_flag("--csv");
    let mut csv = String::from("benchmark,paper_size,gpus,seconds,efficiency\n");
    println!(
        "Figure 3 — GPMR parallel efficiency (strong scaling), scale divisor {}\n",
        cfg.scale
    );

    for bench in Benchmark::ALL {
        let gpu_counts = if bench == Benchmark::Mm {
            cfg.mm_gpu_counts()
        } else {
            cfg.gpu_counts.clone()
        };
        // The paper plots the largest sizes; MM uses its top three.
        let sizes = bench.strong_sizes();
        let size_idx: Vec<usize> = if bench == Benchmark::Mm {
            vec![1, 2, 3]
        } else {
            (0..sizes.len()).collect()
        };

        let mut headers: Vec<String> = vec![format!("{} input", bench.name())];
        headers.extend(gpu_counts.iter().map(|g| format!("{g} GPU")));
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();

        let mut rows = Vec::new();
        let mut chart_series: Vec<Series> = Vec::new();
        for &si in &size_idx {
            let w = gpmr_apps::strong_workload(bench, si, cfg.scale, cfg.seed);
            let label = match bench {
                Benchmark::Mm => format!("{0}x{0} (paper {1}x{1})", w.size, sizes[si]),
                _ => format!("{} (paper {}M)", human(w.size), sizes[si]),
            };
            let input = harness_input(&w, cfg.scale);
            let mut t1 = SimDuration::ZERO;
            let mut points = Vec::new();
            let mut cells = vec![label.clone()];
            for &g in &gpu_counts {
                let out = or_exit(run_bench(&input, g, cfg.scale)).total;
                if g == 1 {
                    t1 = out;
                }
                let eff = efficiency(t1, out, g);
                points.push((f64::from(g), eff));
                cells.push(efficiency_cell(eff));
                csv.push_str(&format!(
                    "{},{},{g},{:.9},{eff:.4}\n",
                    bench.name(),
                    sizes[si],
                    out.as_secs()
                ));
            }
            rows.push(cells);
            chart_series.push(Series { label, points });
        }
        println!("{}", render(&header_refs, &rows));
        println!("{}", render_chart(&chart_series, 64, 12, 1.3));
    }
    if want_csv {
        println!("--- CSV ---");
        print!("{csv}");
    }
    println!("Expected shapes (paper §6): MM near-perfect; SIO super-linear at 4 GPUs");
    println!("(in-core crossover) then network-bound decay; WO recovers past the");
    println!("partitioner crossover; KMC >60% at 64 GPUs; LR flat past one node.");
}

fn human(n: u64) -> String {
    if n >= 1_000_000 {
        format!("{:.1}M", n as f64 / 1e6)
    } else if n >= 1_000 {
        format!("{:.0}k", n as f64 / 1e3)
    } else {
        n.to_string()
    }
}
