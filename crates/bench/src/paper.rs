//! The paper's evaluation artifacts, one function per `gpmr paper` mode.
//! Each runs its sweep at workload scale divisor `scale` and returns the
//! report it prints; a job the scaled cluster cannot hold is the engine's
//! typed error and no report.

use gpmr_apps::datasets::{mm_dim_factor, second_seed};
use gpmr_apps::kmc::{self, KmcJob};
use gpmr_apps::lr::{self, LrJob};
use gpmr_apps::sio::{self, SioJob, SioMode};
use gpmr_apps::table::{KMC_CENTERS, LR_MODEL};
use gpmr_apps::text::chunk_text;
use gpmr_apps::wo::WoJob;
use gpmr_apps::{strong_workload, AppData, Benchmark, Workload};
use gpmr_baselines::mars::{run_mars, MarsError};
use gpmr_baselines::mars_apps::{mars_mm, MarsKmc, MarsWo};
use gpmr_baselines::phoenix::{run_phoenix, PhoenixConfig};
use gpmr_baselines::phoenix_apps::{phoenix_mm, PhoenixKmc, PhoenixLr, PhoenixSio, PhoenixWo};
use gpmr_core::{efficiency, run_job, run_job_with, EngineResult, EngineTuning, RunOpts};
use gpmr_core::{EngineError, SliceChunk};
use gpmr_sim_gpu::{Gpu, GpuSpec, PcieLink, SharedLink, SimDuration, SimGpuError};
use gpmr_sim_net::{Cluster, CpuSpec, Topology};

use crate::harness::chunk_bytes;
use crate::loc::count_file;
use crate::plot::{render_chart, Series};
use crate::runners::{harness_input, mm_scaled_spec, run_bench, scaled_cluster, shared_dictionary};
use crate::table::{efficiency_cell, percent_cell, render, speedup_cell};

/// Base RNG seed of every artifact (fixed for reproducibility).
const SEED: u64 = 0x47504d52; // "GPMR"

/// Table 1: dataset sizes for all benchmarks — element sizes, the
/// strong-scaling input set (set one), and the weak-scaling per-GPU set
/// (set two) — plus the sizes actually used at scale divisor `scale`.
pub fn table1(scale: u64) -> String {
    let mut out = format!("Table 1 — dataset sizes (scale divisor {scale})\n\n");

    let headers = [
        "benchmark",
        "elem bytes",
        "set one (paper)",
        "set two per-GPU (paper, x1e6)",
        "set one (this run)",
    ];
    let mut rows = Vec::new();
    for bench in Benchmark::ALL {
        let elem = bench
            .element_bytes()
            .map(|b| b.to_string())
            .unwrap_or_else(|| "n/a (matrix)".into());
        let strong = match bench {
            Benchmark::Mm => bench
                .strong_sizes()
                .iter()
                .map(|s| format!("{s}^2"))
                .collect::<Vec<_>>()
                .join(", "),
            _ => format!(
                "{} x1e6",
                bench
                    .strong_sizes()
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        };
        let weak = if bench.weak_sizes_per_gpu().is_empty() {
            "—".to_string()
        } else {
            bench
                .weak_sizes_per_gpu()
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        };
        let actual = (0..bench.strong_sizes().len())
            .map(|i| {
                let w = strong_workload(bench, i, scale, SEED);
                match bench {
                    Benchmark::Mm => format!("{}^2", w.size),
                    _ => w.size.to_string(),
                }
            })
            .collect::<Vec<_>>()
            .join(", ");
        rows.push(vec![bench.name().to_string(), elem, strong, weak, actual]);
    }
    out += &format!("{}\n", render(&headers, &rows));
    out += &format!(
        "Element counts divide by {}; MM matrix orders divide by {} (with the\n\
         matching hardware-scaling laws applied by the runners).\n",
        scale,
        mm_dim_factor(scale)
    );
    out
}

/// Table 2: GPMR speedup over Phoenix (1 GPU and 4 GPUs, single node) on
/// the second-largest strong-scaling inputs — except MM, which uses the
/// small input set (the paper: Phoenix needed ~20 s for a 1024x1024
/// multiply).
pub fn table2(scale: u64) -> EngineResult<String> {
    let mut out = format!(
        "Table 2 — GPMR speedup over Phoenix, scale divisor {scale} (paper values in parens)\n\n"
    );

    // Phoenix runs on one node with hardware scaled like the GPMR side.
    let cpu = CpuSpec::dual_opteron_2216().scaled(scale as f64);
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
    let table = speedup_table(scale, "Phoenix", &entries, |data| {
        Ok(match data {
            AppData::Mm { a, b } => {
                // Phoenix MM scales uniformly by d^3 (compute and naive
                // vector-vector traffic are both n^3).
                let d = mm_dim_factor(scale) as f64;
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
        })
    })?;
    out += &format!("{table}\n");
    out += "Expected shape: GPMR beats Phoenix on every benchmark at 1 GPU and\n";
    out += "scales further at 4; MM's gap is by far the largest.\n";
    Ok(out)
}

/// Mars gets the card's full 4 GB (the paper's 1 GB cap is a GPMR test
/// restriction; Mars needs the head-room to hold its intermediate pairs).
const MARS_CAPACITY: u64 = 4 << 30;

/// A standalone Mars GPU with uniformly scaled hardware and the full 4 GB.
fn mars_gpu(scale: f64) -> Gpu {
    let spec = GpuSpec::gt200()
        .with_mem_capacity(MARS_CAPACITY)
        .scaled(scale);
    Gpu::with_link(spec, SharedLink::new(PcieLink::gen1_x16().scaled(scale)))
}

/// A Mars GPU under the MM scaling law (compute d^3, traffic/capacity d^2).
fn mars_gpu_mm(d: u64) -> Gpu {
    let spec = mm_scaled_spec(GpuSpec::gt200().with_mem_capacity(MARS_CAPACITY), d);
    let link = PcieLink::gen1_x16().scaled((d as f64).powi(2));
    Gpu::with_link(spec, SharedLink::new(link))
}

/// A Mars job that does not fit in core is out of device memory.
fn in_core(e: MarsError) -> EngineError {
    match e {
        MarsError::InCoreViolation { required, capacity } => {
            EngineError::Gpu(SimGpuError::OutOfMemory {
                requested: required,
                available: capacity,
            })
        }
        MarsError::Gpu(e) => EngineError::Gpu(e),
    }
}

/// Table 3: GPMR speedup over Mars (1 GPU and 4 GPUs) on the largest
/// problems that satisfy Mars's in-core requirement: 4096x4096 MM, an
/// 8 M-point K-Means, and a 512 MB Word Occurrence.
pub fn table3(scale: u64) -> EngineResult<String> {
    let mut out = format!(
        "Table 3 — GPMR speedup over Mars, scale divisor {scale} (paper values in parens)\n\n"
    );

    // The largest inputs Mars holds in core: MM on 4096^2, KMC on 8 M
    // points, WO on 512 MB of text — (benchmark, strong-size index,
    // paper 1-GPU, paper 4-GPU).
    let entries: [(Benchmark, usize, f64, f64); 3] = [
        (Benchmark::Mm, 2, 2.695, 10.760),
        (Benchmark::Kmc, 1, 37.344, 129.425),
        (Benchmark::Wo, 3, 3.098, 11.709),
    ];
    let table = speedup_table(scale, "Mars", &entries, |data| match data {
        AppData::Mm { a, b } => {
            let mut gpu = mars_gpu_mm(mm_dim_factor(scale));
            Ok(mars_mm(&mut gpu, a, b).map_err(in_core)?.1)
        }
        AppData::Kmc { centers, points } => {
            let mut gpu = mars_gpu(scale as f64);
            let run = run_mars(&mut gpu, &MarsKmc::new(centers.clone()), points);
            Ok(run.map_err(in_core)?.time)
        }
        AppData::Wo { dict, text } => {
            let mut gpu = mars_gpu(scale as f64);
            let run = run_mars(&mut gpu, &MarsWo::new(dict.clone()), text);
            Ok(run.map_err(in_core)?.time)
        }
        AppData::Sio(_) | AppData::Lr(_) => unreachable!("the paper has no Mars SIO or LR"),
    })?;

    out += &format!("{table}\n");
    out += "Expected shape: GPMR 1-GPU beats Mars everywhere; KMC's gap is the\n";
    out += "largest (Mars ships a fat pair per point through a bitonic sort,\n";
    out += "GPMR accumulates on-GPU); all gaps widen ~4x with 4 GPUs.\n";
    Ok(out)
}

/// Tables 2 and 3: for each `(benchmark, strong-size index, paper 1-GPU,
/// paper 4-GPU)` entry, the `baseline`'s time on the input, GPMR's at 1
/// and 4 GPUs, and the speedups beside the paper's.
fn speedup_table(
    scale: u64,
    baseline: &str,
    entries: &[(Benchmark, usize, f64, f64)],
    baseline_time: impl Fn(&AppData) -> EngineResult<SimDuration>,
) -> EngineResult<String> {
    let headers = [
        "benchmark",
        baseline,
        "GPMR 1-GPU",
        "GPMR 4-GPU",
        "1-GPU x (paper)",
        "4-GPU x (paper)",
    ];
    let mut rows = Vec::new();
    for &(bench, idx, paper1, paper4) in entries {
        // The baseline and GPMR read the same generated input.
        let input = harness_input(&strong_workload(bench, idx, scale, SEED), scale);
        let base = baseline_time(input.data())?;
        let g1 = run_bench(&input, 1, scale)?.total;
        let g4 = run_bench(&input, 4, scale)?.total;
        let ratio = |b: SimDuration| {
            if b.as_secs() <= 0.0 {
                0.0
            } else {
                base.as_secs() / b.as_secs()
            }
        };
        rows.push(vec![
            bench.name().to_string(),
            format!("{base}"),
            format!("{g1}"),
            format!("{g4}"),
            format!("{} ({paper1})", speedup_cell(ratio(g1))),
            format!("{} ({paper4})", speedup_cell(ratio(g4))),
        ]);
    }
    Ok(render(&headers, &rows))
}

/// Table 4: lines of source code per benchmark implementation. The paper
/// compares Phoenix/Mars/GPMR on MM, KMC, and WO (setup excluded,
/// boilerplate included); this counts the real line counts of the
/// corresponding implementations in this repository and prints the
/// paper's reported numbers alongside.
pub fn table4() -> String {
    let mut out = String::from("Table 4 — benchmark source lines of code\n\n");

    // (name, paper Phoenix, paper Mars, paper GPMR, our GPMR files).
    // The paper's WO count includes its hashing machinery, which lives in
    // mph.rs here; MM includes the Matrix/tile plumbing, as the paper's
    // MM included its tiling boilerplate.
    let entries: [(&str, i32, i32, i32, &[&str]); 5] = [
        ("MM", 317, 235, 214, &["apps/src/mm.rs"]),
        ("KMC", 345, 152, 129, &["apps/src/kmc.rs"]),
        ("WO", 231, 140, 397, &["apps/src/wo.rs", "apps/src/mph.rs"]),
        ("SIO", 0, 0, 0, &["apps/src/sio.rs"]),
        ("LR", 0, 0, 0, &["apps/src/lr.rs"]),
    ];

    let headers = [
        "benchmark",
        "Phoenix (paper)",
        "Mars (paper)",
        "GPMR (paper)",
        "this repo (GPMR port)",
    ];
    let mut rows = Vec::new();
    for (name, phx, mars, gpmr, files) in entries {
        let ours = files
            .iter()
            .map(|f| count_file(f))
            .sum::<Result<usize, _>>()
            .map(|n| n.to_string())
            .unwrap_or_else(|e| format!("error: {e}"));
        let cell = |v: i32| {
            if v == 0 {
                "—".to_string()
            } else {
                v.to_string()
            }
        };
        rows.push(vec![
            name.to_string(),
            cell(phx),
            cell(mars),
            cell(gpmr),
            ours,
        ]);
    }
    out += &format!("{}\n", render(&headers, &rows));
    out += "Counting rule: non-blank, non-comment lines before the test module;\n";
    out += "WO includes its minimal-perfect-hash machinery (as the paper's 397-\n";
    out += "line count did). The paper's qualitative point survives the port:\n";
    out += "hashing makes WO heavyweight while SIO/KMC stay compact; MM carries\n";
    out += "its tiling plumbing.\n";
    out
}

/// Figure 2: GPMR runtime breakdowns (Map / Complete Binning / Sort /
/// Reduce / GPMR Internal-Scheduler) on the largest datasets at 1, 8, and
/// 64 GPUs; `csv` appends machine-readable rows.
pub fn fig2(scale: u64, csv: bool) -> EngineResult<String> {
    let mut out = format!(
        "Figure 2 — GPMR runtime breakdown on the largest datasets, scale divisor {scale}\n\n"
    );

    let mut csv_rows =
        String::from("benchmark,gpus,map_pct,bin_pct,sort_pct,reduce_pct,sched_pct\n");
    let gpu_counts = [1u32, 8, 64];
    let headers = ["benchmark", "GPUs", "Map", "Bin", "Sort", "Reduce", "Sched"];
    let mut rows = Vec::new();
    for bench in Benchmark::ALL {
        // Largest strong-scaling input (index 3).
        let input = harness_input(&strong_workload(bench, 3, scale, SEED), scale);
        for &g in &gpu_counts {
            let p = run_bench(&input, g, scale)?.mean_percentages();
            csv_rows.push_str(&format!(
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
    out += &format!("{}\n", render(&headers, &rows));
    if csv {
        out += "--- CSV ---\n";
        out += &csv_rows;
    }
    out += "Expected shapes (paper Fig. 2): MM stays Map-dominated at every scale;\n";
    out += "SIO's bottleneck shifts from Sort (few GPUs) toward Binning/network\n";
    out += "(many GPUs); WO/KMC/LR are Map-dominated at 1 GPU with the scheduler\n";
    out += "and binning slices growing with GPU count.\n";
    Ok(out)
}

/// Figure 3: GPMR parallel efficiency for MM, SIO, WO, KMC, and LR —
/// strong-scaling set one, efficiency = speedup / #GPUs. `csv` appends
/// machine-readable rows (`benchmark,paper_size,gpus,seconds,efficiency`)
/// for plotting.
pub fn fig3(scale: u64, csv: bool) -> EngineResult<String> {
    let mut csv_rows = String::from("benchmark,paper_size,gpus,seconds,efficiency\n");
    let mut out =
        format!("Figure 3 — GPMR parallel efficiency (strong scaling), scale divisor {scale}\n\n");

    for bench in Benchmark::ALL {
        // The paper's x-axis; MM adds 2 GPUs.
        let gpu_counts: &[u32] = if bench == Benchmark::Mm {
            &[1, 2, 4, 8, 16, 32, 64]
        } else {
            &[1, 4, 8, 16, 32, 64]
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
            let w = strong_workload(bench, si, scale, SEED);
            let label = match bench {
                Benchmark::Mm => format!("{0}x{0} (paper {1}x{1})", w.size, sizes[si]),
                _ => format!("{} (paper {}M)", human(w.size), sizes[si]),
            };
            let input = harness_input(&w, scale);
            let mut t1 = SimDuration::ZERO;
            let mut points = Vec::new();
            let mut cells = vec![label.clone()];
            for &g in gpu_counts {
                let time = run_bench(&input, g, scale)?.total;
                if g == 1 {
                    t1 = time;
                }
                let eff = efficiency(t1, time, g);
                points.push((f64::from(g), eff));
                cells.push(efficiency_cell(eff));
                csv_rows.push_str(&format!(
                    "{},{},{g},{:.9},{eff:.4}\n",
                    bench.name(),
                    sizes[si],
                    time.as_secs()
                ));
            }
            rows.push(cells);
            chart_series.push(Series { label, points });
        }
        out += &format!("{}\n", render(&header_refs, &rows));
        out += &format!("{}\n", render_chart(&chart_series, 64, 12, 1.3));
    }
    if csv {
        out += "--- CSV ---\n";
        out += &csv_rows;
    }
    out += "Expected shapes (paper §6): MM near-perfect; SIO super-linear at 4 GPUs\n";
    out += "(in-core crossover) then network-bound decay; WO recovers past the\n";
    out += "partitioner crossover; KMC >60% at 64 GPUs; LR flat past one node.\n";
    Ok(out)
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

/// Weak scaling (Table 1, set two): fixed input *per GPU*; ideal behaviour
/// is constant runtime as GPUs are added. Reports runtimes and weak
/// efficiency `T(1)/T(n)` for the mid-range per-GPU size of each
/// benchmark, or with `full` for the paper's entire set two.
pub fn weak(scale: u64, full: bool) -> EngineResult<String> {
    let mut out = format!(
        "Weak scaling (Table 1 set two) — constant per-GPU input, scale divisor {scale}\n\n"
    );

    let gpu_counts = [1u32, 4, 16, 64];
    for bench in Benchmark::ALL {
        // Mid-range per-GPU size by default; the whole set with `full`.
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
            let per_gpu = (per_gpu_m * 1_000_000 / scale.max(1)).max(1024);

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
                    seed: SEED,
                };
                let t = run_bench(&harness_input(&w, scale), g, scale)?.total;
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
            out += &format!("{}\n", render(&header_refs, &[time_cells, eff_cells]));
        }
    }
    out += "Ideal weak scaling holds runtime flat (efficiency 1.0) as GPUs grow;\n";
    out += "communication-bound benchmarks (SIO) degrade fastest, accumulation-\n";
    out += "based ones (KMC, LR) stay closest to flat.\n";
    Ok(out)
}

/// Ablation studies for the design choices DESIGN.md calls out.
///
/// 1. **Accumulation** (paper §6: "note the importance of Accumulation —
///    we saw dramatically worse performance in KMC, LR, and especially WO
///    before implementing it"): WO with and without Accumulation.
/// 2. **Partial Reduction / Combine on sparse keys** (paper §5.3.2: no
///    speedup / slowdown for SIO): the three SIO pipeline modes.
/// 3. **Partitioner crossover** (paper §5.3.3): WO efficiency with the
///    partitioner always off, always on, and at the default crossover.
/// 4. **FP atomics** (paper §5.3.4: GT200's missing float atomics forced
///    per-block pools): KMC on GT200 vs a Fermi-class device.
/// 5. **PCI-e link sharing**: LR with dedicated vs S1070-paired links.
/// 6. **Pair distribution** (paper §4.1: "no best-performance distribution
///    for all jobs — round-robin vs consecutive blocks"): SIO under both
///    partitioners on uniform and on skewed key sets.
/// 7. **Chunk size** (paper §4.4: "tuning the size of each chunk to allow
///    overlap in computation and communication"): SIO runtime across a
///    chunk-size sweep — too small pays per-chunk overhead, too large
///    loses overlap and double-buffering.
/// 8. **Sorter choice** (paper §4.2: radix "when possible", a custom
///    comparator sort otherwise): SIO under the default radix Sorter vs
///    the bitonic fallback.
/// 9. **Dynamic load balancing** (paper §4.1: chunks shift between local
///    queues): the work-stealing scheduler vs static assignment under an
///    adversarially skewed chunk distribution.
pub fn ablations(scale: u64) -> EngineResult<String> {
    let mut out = format!("Ablation studies, scale divisor {scale}\n\n");
    // Scale 0 means the full sizes, as it does for every other artifact.
    let s = scale.max(1) as usize;

    // The corpus ablations 1 and 3 share.
    let bytes = (64_000_000 / s).max(64 * 1024);
    let dict = shared_dictionary(scale);
    let text = gpmr_apps::text::generate_text(&dict, bytes, SEED);

    // ---- 1. WO accumulation on/off -----------------------------------
    {
        let gpus = 4;
        let chunks = chunk_text(&text, chunk_bytes(bytes as u64, gpus, scale));
        let mut rows = Vec::new();
        for (label, job) in [
            ("Accumulate (paper)", WoJob::new(dict.clone(), gpus)),
            (
                "Plain (no accumulation)",
                WoJob::new(dict.clone(), gpus).with_accumulation(false),
            ),
        ] {
            let mut cl = scaled_cluster(gpus, scale);
            let r = run_job(&mut cl, &job, chunks.clone())?;
            rows.push(vec![
                label.to_string(),
                format!("{}", r.timings.total),
                r.timings.pairs_shuffled.to_string(),
            ]);
        }
        out += "WO accumulation ablation (4 GPUs, 64M-byte-equivalent corpus):\n";
        out += &format!(
            "{}\n",
            render(&["configuration", "runtime", "pairs shuffled"], &rows)
        );
    }

    // ---- 2. SIO pipeline modes ----------------------------------------
    {
        let elements = (32_000_000 / s).max(16 * 1024);
        let data = sio::generate_integers(elements, SEED);
        let gpus = 4;
        let chunks = sio::sio_chunks(&data, chunk_bytes(4 * elements as u64, gpus, scale));
        let mut rows = Vec::new();
        for (label, mode) in [
            ("Plain (paper)", SioMode::Plain),
            ("Partial Reduction", SioMode::PartialReduce),
            ("Combine", SioMode::Combine),
        ] {
            let mut cl = scaled_cluster(gpus, scale);
            let r = run_job(&mut cl, &SioJob::with_mode(mode), chunks.clone())?;
            rows.push(vec![
                label.to_string(),
                format!("{}", r.timings.total),
                r.timings.pairs_shuffled.to_string(),
            ]);
        }
        out += "SIO pipeline-mode ablation (4 GPUs, 32M-element-equivalent, sparse keys):\n";
        out += &format!(
            "{}\n",
            render(&["configuration", "runtime", "pairs shuffled"], &rows)
        );
    }

    // ---- 3. WO partitioner crossover ----------------------------------
    {
        let mut rows = Vec::new();
        for gpus in [4u32, 16, 64] {
            let chunks = chunk_text(&text, chunk_bytes(bytes as u64, gpus, scale));
            let mut cells = vec![format!("{gpus} GPUs")];
            for (_, crossover) in [("never", u32::MAX), ("default", 8), ("always", 0)] {
                let job = WoJob::new(dict.clone(), gpus).with_crossover(crossover);
                let mut cl = scaled_cluster(gpus, scale);
                let r = run_job(&mut cl, &job, chunks.clone())?;
                cells.push(format!("{}", r.timings.total));
            }
            rows.push(cells);
        }
        out += "WO partitioner crossover (single reducer vs round-robin):\n";
        out += &format!(
            "{}\n",
            render(
                &[
                    "cluster",
                    "partition never",
                    "crossover 8 (paper)",
                    "partition always"
                ],
                &rows
            )
        );
    }

    // ---- 4. KMC FP atomics (GT200 pools vs Fermi atomics) -------------
    {
        let points = (8_000_000 / s).max(16 * 1024);
        let centers = kmc::initial_centers(KMC_CENTERS, SEED);
        let data = kmc::generate_points(points, KMC_CENTERS, second_seed(SEED));
        let chunk_items = chunk_bytes(16 * points as u64, 1, scale) / 16;
        let chunks = SliceChunk::split(&data, chunk_items.max(1));
        let mut rows = Vec::new();
        for (label, spec) in [
            ("GT200 (per-block pools)", GpuSpec::gt200()),
            ("Fermi (FP atomics)", GpuSpec::fermi()),
        ] {
            let mut cl = Cluster::custom_scaled(
                Topology::accelerator(1),
                spec.scaled(scale as f64),
                scale as f64,
            );
            let r = run_job(&mut cl, &KmcJob::new(centers.clone()), chunks.clone())?;
            rows.push(vec![label.to_string(), format!("{}", r.timings.total)]);
        }
        out += "KMC atomic-free accumulation (1 GPU, 8M-point-equivalent):\n";
        out += &format!("{}\n", render(&["device", "runtime"], &rows));
    }

    // ---- 6. Round-robin vs consecutive-blocks partitioning ------------
    {
        let elements = (32_000_000 / s).max(16 * 1024);
        let gpus = 8;
        // Uniform keys: both distributions balance. Skewed keys (all in
        // the bottom 1/8th of the key space): blocks collapse onto rank 0.
        let uniform = sio::generate_integers(elements, SEED);
        let max_key = u64::from(*uniform.iter().max().unwrap_or(&1));
        let skewed: Vec<u32> = uniform.iter().map(|k| k / 8).collect();
        let chunksz = chunk_bytes(4 * elements as u64, gpus, scale);
        let mut rows = Vec::new();
        for (label, data) in [("uniform keys", &uniform), ("skewed keys", &skewed)] {
            let mut cells = vec![label.to_string()];
            for blocks in [false, true] {
                let job = if blocks {
                    SioJob::default().with_block_partition(max_key)
                } else {
                    SioJob::default()
                };
                let mut cl = scaled_cluster(gpus, scale);
                let r = run_job(&mut cl, &job, sio::sio_chunks(data, chunksz))?;
                cells.push(format!("{}", r.timings.total));
            }
            rows.push(cells);
        }
        out += "SIO pair distribution (8 GPUs): round-robin vs consecutive blocks:\n";
        out += &format!("{}\n", render(&["key set", "round-robin", "blocks"], &rows));
    }

    // ---- 7. Chunk-size sweep -------------------------------------------
    {
        let elements = (32_000_000 / s).max(64 * 1024);
        let data = sio::generate_integers(elements, SEED);
        let gpus = 4;
        let total_bytes = 4 * elements;
        let mut rows = Vec::new();
        for divisor in [1usize, 4, 16, 64, 256, 1024] {
            let chunksz = (total_bytes / (gpus as usize * divisor)).max(1024);
            let chunks = sio::sio_chunks(&data, chunksz);
            let n_chunks = chunks.len();
            let mut cl = scaled_cluster(gpus, scale);
            let r = run_job(&mut cl, &SioJob::default(), chunks)?;
            rows.push(vec![
                format!("{} kB", chunksz / 1024),
                n_chunks.to_string(),
                format!("{}", r.timings.total),
            ]);
        }
        out += "SIO chunk-size sweep (4 GPUs, 32M-element-equivalent):\n";
        out += &format!("{}\n", render(&["chunk size", "chunks", "runtime"], &rows));
    }

    // ---- 8. Sorter choice: radix vs bitonic -----------------------------
    {
        let elements = (32_000_000 / s).max(64 * 1024);
        let data = sio::generate_integers(elements, SEED);
        let gpus = 4;
        let chunks = sio::sio_chunks(&data, chunk_bytes(4 * elements as u64, gpus, scale));
        let mut rows = Vec::new();
        for (label, job) in [
            ("radix (CUDPP default)", SioJob::default()),
            ("bitonic (fallback)", SioJob::default().with_bitonic_sort()),
        ] {
            let mut cl = scaled_cluster(gpus, scale);
            let r = run_job(&mut cl, &job, chunks.clone())?;
            let sort_pct = r.timings.mean_percentages()[2];
            rows.push(vec![
                label.to_string(),
                format!("{}", r.timings.total),
                format!("{sort_pct:.1}%"),
            ]);
        }
        out += "SIO sorter choice (4 GPUs, 32M-element-equivalent):\n";
        out += &format!("{}\n", render(&["sorter", "runtime", "sort share"], &rows));
    }

    // ---- 9. Dynamic vs static scheduling --------------------------------
    {
        let elements = (32_000_000 / s).max(128 * 1024);
        let data = sio::generate_integers(elements, SEED);
        let gpus = 8u32;
        // Pile the big chunks onto rank 0's queue (round-robin assigns
        // chunk i to rank i % gpus).
        let split = elements * 4 / 5;
        let mut heavy =
            sio::sio_chunks(&data[..split], chunk_bytes(4 * split as u64, 2, scale)).into_iter();
        let mut light = sio::sio_chunks(&data[split..], 4 * 1024 / s + 1024).into_iter();
        let mut chunks = Vec::new();
        let mut i = 0usize;
        loop {
            let next = if i.is_multiple_of(gpus as usize) {
                heavy.next().or_else(|| light.next())
            } else {
                light.next().or_else(|| heavy.next())
            };
            match next {
                Some(c) => chunks.push(c),
                None => break,
            }
            i += 1;
        }
        let mut rows = Vec::new();
        for (label, tuning) in [
            ("dynamic (stealing)", EngineTuning::default()),
            (
                "static assignment",
                EngineTuning {
                    allow_stealing: false,
                    ..EngineTuning::default()
                },
            ),
        ] {
            let mut cl = scaled_cluster(gpus, scale);
            let opts = RunOpts {
                tuning,
                ..RunOpts::default()
            };
            let r = run_job_with(&mut cl, &SioJob::default(), chunks.clone(), opts)?;
            rows.push(vec![
                label.to_string(),
                format!("{}", r.timings.total),
                r.timings.chunks_stolen.to_string(),
            ]);
        }
        out += "SIO scheduling under skewed queues (8 GPUs):\n";
        out += &format!(
            "{}\n",
            render(&["scheduler", "runtime", "chunks stolen"], &rows)
        );
        out += "(On a transfer-bound job like SIO, migrating a chunk costs about as\n";
        out += "much as mapping it, so stealing roughly breaks even — the dynamic\n";
        out += "scheduler pays off on compute-bound work, never hurts here.)\n\n";
    }

    // ---- 5. PCI-e link sharing ----------------------------------------
    {
        let samples = (64_000_000 / s).max(16 * 1024);
        let data = lr::generate_samples(samples, LR_MODEL.0, LR_MODEL.1, SEED);
        let chunk_items = chunk_bytes(8 * samples as u64, 4, scale) / 8;
        let chunks = SliceChunk::split(&data, chunk_items.max(1));
        let mut rows = Vec::new();
        for (label, links) in [("dedicated links", 4u32), ("S1070 paired links", 2)] {
            let topo = Topology::new(1, 4, links);
            let mut cl =
                Cluster::custom_scaled(topo, GpuSpec::gt200().scaled(scale as f64), scale as f64);
            let r = run_job(&mut cl, &LrJob, chunks.clone())?;
            rows.push(vec![label.to_string(), format!("{}", r.timings.total)]);
        }
        out += "LR under PCI-e link sharing (4 GPUs, one node, 64M-sample-equivalent):\n";
        out += &format!("{}\n", render(&["host wiring", "runtime"], &rows));
    }
    Ok(out)
}
