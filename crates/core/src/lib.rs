//! # gpmr-core — the GPMR multi-GPU MapReduce library
//!
//! Reproduction of the library presented in Stuart & Owens, *Multi-GPU
//! MapReduce on GPU Clusters* (IPDPS 2011), on the deterministic GPU and
//! cluster simulators in `gpmr-sim-gpu`/`gpmr-sim-net`.
//!
//! ## The pipeline
//!
//! A job streams [`Chunk`]s of input through per-GPU processes:
//!
//! ```text
//! Scheduler -> [Map (+ Partial Reduce | Accumulate) + Partition] -> Bin
//!           -> Sort -> Scheduler -> Reduce
//! ```
//!
//! GPU stages are kernels on the simulated device; Bin is the only CPU
//! stage (GPUs cannot source or sink network I/O) and is overlapped with
//! mapping. Applications implement [`GpmrJob`] and choose their pipeline
//! shape with [`PipelineConfig`]: Partial Reduction, Accumulation, the
//! global Combine, partitioning, and the Sorter are all selectable, with
//! working defaults (round-robin partitioner, CUDPP-style radix sort).
//!
//! ## Entry points
//!
//! [`run_job_with`] is the engine's one general entry: a cluster, a job,
//! its chunks, and a [`RunOpts`] carrying [`EngineTuning`], a telemetry
//! handle, an optional write-ahead [`Journal`] and whether the inputs are
//! already on the devices. [`run_job`] (all defaults),
//! [`run_job_instrumented`] (tuning + telemetry) and
//! [`run_job_journaled`] (plus a journal) are one-line conveniences over
//! it; [`run_rounds`] chains passes for multi-round jobs. [`Run`] is the
//! same execution path as a stepper: a caller that must stop a job where
//! it stands (the job service's cancels and deadlines) steps it with
//! [`Run::step_until`] and ends it with [`Run::finish`] or
//! [`Run::cancel`].
//!
//! ## Quick start
//!
//! ```
//! use gpmr_core::{run_job, GpmrJob, KvSet, SliceChunk};
//! use gpmr_primitives::Segments;
//! use gpmr_sim_gpu::{Gpu, GpuSpec, LaunchConfig, SimGpuResult, SimTime};
//! use gpmr_sim_net::Cluster;
//!
//! /// Count occurrences of each integer (the paper's SIO benchmark).
//! struct CountJob;
//!
//! impl GpmrJob for CountJob {
//!     type Chunk = SliceChunk<u32>;
//!     type Key = u32;
//!     type Value = u32;
//!
//!     fn map(&self, gpu: &mut Gpu, at: SimTime, chunk: &Self::Chunk)
//!         -> SimGpuResult<(KvSet<u32, u32>, SimTime)>
//!     {
//!         let cfg = LaunchConfig::for_items(chunk.items.len(), 2048, 256);
//!         let (launch, res) = gpu.launch(at, &cfg, |ctx| {
//!             let range = ctx.item_range(chunk.items.len());
//!             ctx.charge_read::<u32>(range.len());
//!             ctx.charge_write::<u32>(2 * range.len());
//!             let mut out = KvSet::with_capacity(range.len());
//!             for &x in &chunk.items[range] { out.push(x, 1); }
//!             out
//!         })?;
//!         let mut pairs = KvSet::new();
//!         for p in launch.outputs { pairs.append(p); }
//!         Ok((pairs, res.end))
//!     }
//!
//!     fn reduce(&self, gpu: &mut Gpu, at: SimTime, segs: &Segments<u32>, vals: &[u32])
//!         -> SimGpuResult<(KvSet<u32, u32>, SimTime)>
//!     {
//!         let cfg = LaunchConfig::for_items(segs.len().max(1), 512, 256);
//!         let (launch, res) = gpu.launch(at, &cfg, |ctx| {
//!             let mut out = KvSet::new();
//!             for s in ctx.item_range(segs.len()) {
//!                 let r = segs.range(s);
//!                 ctx.charge_read_uncoalesced::<u32>(r.len());
//!                 out.push(segs.keys[s], vals[r].iter().sum::<u32>());
//!             }
//!             out
//!         })?;
//!         let mut out = KvSet::new();
//!         for p in launch.outputs { out.append(p); }
//!         Ok((out, res.end))
//!     }
//! }
//!
//! let mut cluster = Cluster::accelerator(4, GpuSpec::gt200());
//! let data: Vec<u32> = (0..10_000).map(|i| i % 100).collect();
//! let chunks = SliceChunk::split(&data, 2048);
//! let result = run_job(&mut cluster, &CountJob, chunks).unwrap();
//! let total: u64 = result.merged_output().vals.iter().map(|&v| v as u64).sum();
//! assert_eq!(total, 10_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chunk;
pub mod engine;
pub mod error;
pub mod helpers;
pub mod job;
pub mod journal;
pub mod pod;
pub mod rounds;
pub mod scheduler;
pub mod stats;
pub mod types;

pub use chunk::{Chunk, SliceChunk};
pub use engine::{
    run_job, run_job_instrumented, run_job_journaled, run_job_with, EngineTuning, JobResult, Run,
    RunOpts, MAX_TRANSFER_RETRIES, SCHED_OVERHEAD_S, SETUP_BASE_S, SETUP_PER_RANK_S,
};
pub use error::{EngineError, EngineResult};
pub use job::{
    block_partition, derive_splitters, GpmrJob, MapMode, PartitionMode, PipelineConfig, SortMode,
};
pub use journal::{scan_bytes, Journal, JournalError, JournalRecord, JournalResult, RecordOutcome};
pub use pod::Pod;
pub use rounds::{
    max_resident_chunk_bytes, run_rounds, RoundDecision, RoundJob, RoundStats, RoundStep,
    RoundsResult,
};
pub use scheduler::WorkQueues;
pub use stats::{efficiency, speedup, JobTimings, StageTimes};
pub use types::{Key, KvSet, Value};
