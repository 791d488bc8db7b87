//! # GPMR — Multi-GPU MapReduce on (simulated) GPU clusters
//!
//! A from-scratch Rust reproduction of **Stuart & Owens, "Multi-GPU
//! MapReduce on GPU Clusters", IPDPS 2011** — the GPMR library, every
//! substrate it depends on, the five paper benchmarks, and the Phoenix
//! and Mars baselines it is evaluated against.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`sim_gpu`] — the deterministic GPU device simulator (GT200-class
//!   hardware model, roofline timing, capacity-enforced memory, PCI-e
//!   links);
//! * [`sim_net`] — the cluster simulator (node topology, QDR InfiniBand
//!   NICs, timed messaging);
//! * [`primitives`] — CUDPP-equivalent scan/sort/compact/histogram;
//! * [`core`] — GPMR itself: the chunked MapReduce pipeline with Partial
//!   Reduction, Accumulation, Combine, partitioning, and dynamic load
//!   balancing;
//! * [`apps`] — the paper's benchmarks: Matrix Multiplication, Sparse
//!   Integer Occurrence, Word Occurrence, K-Means, Linear Regression;
//! * [`baselines`] — Phoenix-style CPU MapReduce and Mars-style
//!   single-GPU MapReduce;
//! * [`service`] — the multi-tenant job service: submit/poll/cancel,
//!   admission control, per-tenant quotas, deadlines, small-job
//!   batching on a shared engine pool, and per-tenant SLO accounting
//!   (hit rates, exact wait/e2e percentiles, error-budget burn,
//!   Prometheus export);
//! * [`telemetry`] — metrics registry, structured spans, trace
//!   exporters (Perfetto/Chrome `trace.json`, JSONL, text summaries),
//!   windowed time series, declarative alert rules, and the
//!   crash-scoped flight recorder that dumps postmortem traces.
//!
//! ## Quick start
//!
//! ```
//! use gpmr::prelude::*;
//!
//! // A 4-GPU node of the paper's cluster.
//! let mut cluster = Cluster::accelerator(4, GpuSpec::gt200());
//!
//! // Count words with the paper's Word Occurrence job.
//! let dict = std::sync::Arc::new(Dictionary::generate(500, 7));
//! let text = gpmr::apps::text::generate_text(&dict, 100_000, 8);
//! let chunks = gpmr::apps::text::chunk_text(&text, 16 * 1024);
//! let job = WoJob::new(dict.clone(), 4);
//! let result = run_job(&mut cluster, &job, chunks).unwrap();
//!
//! let counts = gpmr::apps::wo::counts_from_output(&dict, &result.merged_output());
//! assert_eq!(counts, gpmr::apps::wo::cpu_reference(&dict, &text));
//! println!("counted in {} simulated", result.total_time());
//! ```

#![forbid(unsafe_code)]

pub use gpmr_apps as apps;
pub use gpmr_baselines as baselines;
pub use gpmr_core as core;
pub use gpmr_primitives as primitives;
pub use gpmr_service as service;
pub use gpmr_sim_gpu as sim_gpu;
pub use gpmr_sim_net as sim_net;
pub use gpmr_telemetry as telemetry;

/// The common imports for GPMR programs.
pub mod prelude {
    pub use gpmr_apps::{Dictionary, KmcJob, LrJob, Matrix, SioJob, WoJob};
    pub use gpmr_core::{
        run_job, Chunk, GpmrJob, JobResult, KvSet, MapMode, PartitionMode, PipelineConfig,
        SliceChunk, SortMode,
    };
    pub use gpmr_primitives::Segments;
    pub use gpmr_sim_gpu::{Gpu, GpuSpec, LaunchConfig, SimDuration, SimTime};
    pub use gpmr_sim_net::{Cluster, Topology};
}
