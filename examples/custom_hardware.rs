//! Exploring hardware configurations — the paper's concluding question
//! ("the proper configuration of a GPU cluster for MapReduce ...
//! unfortunately depends on the characteristics of the task at hand").
//!
//! Runs the same shuffle-heavy SIO job on four hardware variants and uses
//! the low-level device API directly to show overlap on a single device.
//!
//! Run with: `cargo run --release --example custom_hardware`

use gpmr::core::{run_job_with, EngineTuning, RunOpts};
use gpmr::prelude::*;
use gpmr_apps::sio::{generate_integers, sio_chunks, SioJob};

fn main() {
    let data = generate_integers(1_000_000, 3);
    let chunks = sio_chunks(&data, 256 * 1024);
    println!(
        "SIO, {} integers on 8 GPUs, four hardware variants:\n",
        data.len()
    );

    // 1. The paper's testbed: GT200s, gen-1 PCI-e, QDR InfiniBand.
    let mut baseline = Cluster::accelerator(8, GpuSpec::gt200());
    let t_base = run_job(&mut baseline, &SioJob::default(), chunks.clone())
        .unwrap()
        .total_time();
    println!("GT200 + PCIe gen1 (paper testbed) : {t_base}");

    // 2. Fermi-class GPUs on the same interconnect.
    let mut fermi = Cluster::accelerator(8, GpuSpec::fermi());
    let t_fermi = run_job(&mut fermi, &SioJob::default(), chunks.clone())
        .unwrap()
        .total_time();
    println!("Fermi GPUs, same fabric           : {t_fermi}");

    // 3. GPU-direct networking (the paper's future-work hardware).
    let mut direct = Cluster::accelerator(8, GpuSpec::gt200());
    let opts = RunOpts {
        tuning: EngineTuning {
            gpu_direct: true,
            ..EngineTuning::default()
        },
        ..RunOpts::default()
    };
    let t_direct = run_job_with(&mut direct, &SioJob::default(), chunks.clone(), opts)
        .unwrap()
        .total_time();
    println!("GT200 + GPU-direct networking     : {t_direct}");

    // 4. The physical S1070 link pairing (two GPUs per host link).
    let mut paired = Cluster::new(Topology::new(2, 4, 2), GpuSpec::gt200());
    let t_paired = run_job(&mut paired, &SioJob::default(), chunks)
        .unwrap()
        .total_time();
    println!("GT200, paired PCI-e links         : {t_paired}");

    println!(
        "\nGPU-direct gains {:.2}x on this shuffle-heavy job; paired links cost {:.2}x.",
        t_base.as_secs() / t_direct.as_secs(),
        t_paired.as_secs() / t_base.as_secs()
    );

    // --- Device API: overlap on one device --------------------------------
    // Every operation takes the instant it may start: issuing the kernel at
    // the copy's end serializes them, issuing both at zero lets the copy
    // engine and the compute engine overlap.
    println!("\nStream-level overlap on a single GT200:");
    let mut gpu = gpmr::sim_gpu::Gpu::new(GpuSpec::gt200());
    let cfg = LaunchConfig::grid(120, 256);
    let kernel = |ctx: &mut gpmr::sim_gpu::BlockCtx| ctx.charge_flops(1 << 24);

    // Serial: upload, then compute.
    let copy = gpu.h2d(SimTime::ZERO, 64 << 20);
    let (_, compute) = gpu.launch(copy.end, &cfg, kernel).unwrap();
    let t_serial = compute.end;

    // Overlapped: the copy and an independent kernel, both issued at zero.
    gpu.reset_clock();
    let copy = gpu.h2d(SimTime::ZERO, 64 << 20);
    let (_, compute) = gpu.launch(SimTime::ZERO, &cfg, kernel).unwrap();
    let t_overlap = copy.end.max(compute.end);
    println!("  serial copy+kernel   : {}", t_serial);
    println!("  overlapped streams   : {}", t_overlap);
}
