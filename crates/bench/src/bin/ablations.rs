//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! 1. **Accumulation** (paper §6: "note the importance of Accumulation —
//!    we saw dramatically worse performance in KMC, LR, and especially WO
//!    before implementing it"): WO with and without Accumulation.
//! 2. **Partial Reduction / Combine on sparse keys** (paper §5.3.2: no
//!    speedup / slowdown for SIO): the three SIO pipeline modes.
//! 3. **Partitioner crossover** (paper §5.3.3): WO efficiency with the
//!    partitioner always off, always on, and at the default crossover.
//! 4. **FP atomics** (paper §5.3.4: GT200's missing float atomics forced
//!    per-block pools): KMC on GT200 vs a Fermi-class device.
//! 5. **PCI-e link sharing**: LR with dedicated vs S1070-paired links.
//! 6. **Pair distribution** (paper §4.1: "no best-performance distribution
//!    for all jobs — round-robin vs consecutive blocks"): SIO under both
//!    partitioners on uniform and on skewed key sets.
//! 7. **Chunk size** (paper §4.4: "tuning the size of each chunk to allow
//!    overlap in computation and communication"): SIO runtime across a
//!    chunk-size sweep — too small pays per-chunk overhead, too large
//!    loses overlap and double-buffering.
//! 8. **Sorter choice** (paper §4.2: radix "when possible", a custom
//!    comparator sort otherwise): SIO under the default radix Sorter vs
//!    the bitonic fallback.
//! 9. **Dynamic load balancing** (paper §4.1: chunks shift between local
//!    queues): the work-stealing scheduler vs static assignment under an
//!    adversarially skewed chunk distribution.
//!
//! Usage: `cargo run --release -p gpmr-bench --bin ablations [--scale N]`

use gpmr_apps::datasets::second_seed;
use gpmr_apps::kmc::{self, KmcJob};
use gpmr_apps::lr::{self, LrJob};
use gpmr_apps::sio::{self, SioJob, SioMode};
use gpmr_apps::table::{KMC_CENTERS, LR_MODEL};
use gpmr_apps::text::{chunk_text, generate_text};
use gpmr_apps::wo::WoJob;
use gpmr_bench::harness::chunk_bytes;
use gpmr_bench::runners::scaled_cluster;
use gpmr_bench::table::render;
use gpmr_bench::{shared_dictionary, HarnessConfig};
use gpmr_core::{run_job, run_job_with, EngineTuning, RunOpts, SliceChunk};
use gpmr_sim_gpu::GpuSpec;
use gpmr_sim_net::{Cluster, Topology};

fn main() {
    let cfg = HarnessConfig::from_args();
    let scale = cfg.scale;
    println!("Ablation studies, scale divisor {scale}\n");

    // The corpus ablations 1 and 3 share.
    let bytes = (64_000_000 / scale as usize).max(64 * 1024);
    let dict = shared_dictionary(scale);
    let text = generate_text(&dict, bytes, cfg.seed);

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
            let r = run_job(&mut cl, &job, chunks.clone()).unwrap();
            rows.push(vec![
                label.to_string(),
                format!("{}", r.timings.total),
                r.timings.pairs_shuffled.to_string(),
            ]);
        }
        println!("WO accumulation ablation (4 GPUs, 64M-byte-equivalent corpus):");
        println!(
            "{}",
            render(&["configuration", "runtime", "pairs shuffled"], &rows)
        );
    }

    // ---- 2. SIO pipeline modes ----------------------------------------
    {
        let elements = (32_000_000 / scale as usize).max(16 * 1024);
        let data = sio::generate_integers(elements, cfg.seed);
        let gpus = 4;
        let chunks = sio::sio_chunks(&data, chunk_bytes(4 * elements as u64, gpus, scale));
        let mut rows = Vec::new();
        for (label, mode) in [
            ("Plain (paper)", SioMode::Plain),
            ("Partial Reduction", SioMode::PartialReduce),
            ("Combine", SioMode::Combine),
        ] {
            let mut cl = scaled_cluster(gpus, scale);
            let r = run_job(&mut cl, &SioJob::with_mode(mode), chunks.clone()).unwrap();
            rows.push(vec![
                label.to_string(),
                format!("{}", r.timings.total),
                r.timings.pairs_shuffled.to_string(),
            ]);
        }
        println!("SIO pipeline-mode ablation (4 GPUs, 32M-element-equivalent, sparse keys):");
        println!(
            "{}",
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
                let r = run_job(&mut cl, &job, chunks.clone()).unwrap();
                cells.push(format!("{}", r.timings.total));
            }
            rows.push(cells);
        }
        println!("WO partitioner crossover (single reducer vs round-robin):");
        println!(
            "{}",
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
        let points = (8_000_000 / scale as usize).max(16 * 1024);
        let centers = kmc::initial_centers(KMC_CENTERS, cfg.seed);
        let data = kmc::generate_points(points, KMC_CENTERS, second_seed(cfg.seed));
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
            let r = run_job(&mut cl, &KmcJob::new(centers.clone()), chunks.clone()).unwrap();
            rows.push(vec![label.to_string(), format!("{}", r.timings.total)]);
        }
        println!("KMC atomic-free accumulation (1 GPU, 8M-point-equivalent):");
        println!("{}", render(&["device", "runtime"], &rows));
    }

    // ---- 6. Round-robin vs consecutive-blocks partitioning ------------
    {
        let elements = (32_000_000 / scale as usize).max(16 * 1024);
        let gpus = 8;
        // Uniform keys: both distributions balance. Skewed keys (all in
        // the bottom 1/8th of the key space): blocks collapse onto rank 0.
        let uniform = sio::generate_integers(elements, cfg.seed);
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
                let r = run_job(&mut cl, &job, sio::sio_chunks(data, chunksz)).unwrap();
                cells.push(format!("{}", r.timings.total));
            }
            rows.push(cells);
        }
        println!("SIO pair distribution (8 GPUs): round-robin vs consecutive blocks:");
        println!("{}", render(&["key set", "round-robin", "blocks"], &rows));
    }

    // ---- 7. Chunk-size sweep -------------------------------------------
    {
        let elements = (32_000_000 / scale as usize).max(64 * 1024);
        let data = sio::generate_integers(elements, cfg.seed);
        let gpus = 4;
        let total_bytes = 4 * elements;
        let mut rows = Vec::new();
        for divisor in [1usize, 4, 16, 64, 256, 1024] {
            let chunksz = (total_bytes / (gpus as usize * divisor)).max(1024);
            let chunks = sio::sio_chunks(&data, chunksz);
            let n_chunks = chunks.len();
            let mut cl = scaled_cluster(gpus, scale);
            let r = run_job(&mut cl, &SioJob::default(), chunks).unwrap();
            rows.push(vec![
                format!("{} kB", chunksz / 1024),
                n_chunks.to_string(),
                format!("{}", r.timings.total),
            ]);
        }
        println!("SIO chunk-size sweep (4 GPUs, 32M-element-equivalent):");
        println!("{}", render(&["chunk size", "chunks", "runtime"], &rows));
    }

    // ---- 8. Sorter choice: radix vs bitonic -----------------------------
    {
        let elements = (32_000_000 / scale as usize).max(64 * 1024);
        let data = sio::generate_integers(elements, cfg.seed);
        let gpus = 4;
        let chunks = sio::sio_chunks(&data, chunk_bytes(4 * elements as u64, gpus, scale));
        let mut rows = Vec::new();
        for (label, job) in [
            ("radix (CUDPP default)", SioJob::default()),
            ("bitonic (fallback)", SioJob::default().with_bitonic_sort()),
        ] {
            let mut cl = scaled_cluster(gpus, scale);
            let r = run_job(&mut cl, &job, chunks.clone()).unwrap();
            let sort_pct = r.timings.mean_percentages()[2];
            rows.push(vec![
                label.to_string(),
                format!("{}", r.timings.total),
                format!("{sort_pct:.1}%"),
            ]);
        }
        println!("SIO sorter choice (4 GPUs, 32M-element-equivalent):");
        println!("{}", render(&["sorter", "runtime", "sort share"], &rows));
    }

    // ---- 9. Dynamic vs static scheduling --------------------------------
    {
        let elements = (32_000_000 / scale as usize).max(128 * 1024);
        let data = sio::generate_integers(elements, cfg.seed);
        let gpus = 8u32;
        // Pile the big chunks onto rank 0's queue (round-robin assigns
        // chunk i to rank i % gpus).
        let split = elements * 4 / 5;
        let mut heavy =
            sio::sio_chunks(&data[..split], chunk_bytes(4 * split as u64, 2, scale)).into_iter();
        let mut light =
            sio::sio_chunks(&data[split..], 4 * 1024 / scale.max(1) as usize + 1024).into_iter();
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
            let r = run_job_with(&mut cl, &SioJob::default(), chunks.clone(), opts).unwrap();
            rows.push(vec![
                label.to_string(),
                format!("{}", r.timings.total),
                r.timings.chunks_stolen.to_string(),
            ]);
        }
        println!("SIO scheduling under skewed queues (8 GPUs):");
        println!(
            "{}",
            render(&["scheduler", "runtime", "chunks stolen"], &rows)
        );
        println!("(On a transfer-bound job like SIO, migrating a chunk costs about as");
        println!("much as mapping it, so stealing roughly breaks even — the dynamic");
        println!("scheduler pays off on compute-bound work, never hurts here.)\n");
    }

    // ---- 5. PCI-e link sharing ----------------------------------------
    {
        let samples = (64_000_000 / scale as usize).max(16 * 1024);
        let data = lr::generate_samples(samples, LR_MODEL.0, LR_MODEL.1, cfg.seed);
        let chunk_items = chunk_bytes(8 * samples as u64, 4, scale) / 8;
        let chunks = SliceChunk::split(&data, chunk_items.max(1));
        let mut rows = Vec::new();
        for (label, links) in [("dedicated links", 4u32), ("S1070 paired links", 2)] {
            let topo = Topology::new(1, 4, links);
            let mut cl =
                Cluster::custom_scaled(topo, GpuSpec::gt200().scaled(scale as f64), scale as f64);
            let r = run_job(&mut cl, &LrJob, chunks.clone()).unwrap();
            rows.push(vec![label.to_string(), format!("{}", r.timings.total)]);
        }
        println!("LR under PCI-e link sharing (4 GPUs, one node, 64M-sample-equivalent):");
        println!("{}", render(&["host wiring", "runtime"], &rows));
    }
}
