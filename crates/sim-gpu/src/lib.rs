//! # gpmr-sim-gpu — a deterministic GPU device simulator
//!
//! Substrate for the GPMR reproduction (Stuart & Owens, *Multi-GPU
//! MapReduce on GPU Clusters*, IPDPS 2011). The paper's library runs on
//! CUDA hardware; this crate provides the equivalent device abstraction in
//! pure Rust:
//!
//! * [`GpuSpec`] — hardware presets (the paper's GT200/Tesla S1070, plus a
//!   Fermi-class device for ablations), shrunk along with a workload by a
//!   [`ScaleLaw`];
//! * [`DeviceMemory`] — global memory as a capacity and a high-water mark
//!   (the engine admits chunks against the capacity and charges
//!   out-of-core passes; Mars checks its in-core need against it);
//! * [`LaunchConfig`]/[`BlockCtx`] — kernels written at block granularity,
//!   executed for real on the host (a launch that hands back enough work
//!   runs its upper half of blocks on one helper thread), charging a
//!   [`KernelCost`];
//! * a roofline timing model ([`kernel_time`], [`occupancy()`]) converting
//!   costs to simulated time;
//! * [`Timeline`]s for the compute engine and [`PcieLink`]s: every
//!   [`Gpu`] operation takes the instant it may start, so callers express
//!   the overlap of copies and kernels by the instants they pass (a gated
//!   upload is [`Gpu::h2d`] at the later of its issue and its gate);
//! * [`FaultPlan`] — the one schedule of injected faults, built by its
//!   builders, which [`FaultPlan::parse`] calls too.
//!
//! A device counts its activity once: kernels launched and bytes moved
//! each way are the `gpu.rank{r}.*` counters of the registry attached
//! with [`Gpu::attach_telemetry`]; the `Gpu` keeps no second tally.
//!
//! Computation is bit-exact and testable; *time* is simulated. See the
//! repository `DESIGN.md` for the calibration used to reproduce the
//! paper's figures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod device;
pub mod error;
pub mod fault;
pub mod kernel;
pub mod link;
pub mod memory;
pub mod occupancy;
pub mod spec;
pub mod time;

pub use cost::{kernel_time, KernelCost};
pub use device::Gpu;
pub use error::{SimGpuError, SimGpuResult};
pub use fault::{FaultEvent, FaultPlan, FaultPlanParseError, TransferOutcome};
pub use kernel::{BlockCtx, Launch, LaunchConfig};
pub use link::{Direction, PcieLink, SharedLink};
pub use memory::DeviceMemory;
pub use occupancy::{occupancy, Occupancy};
pub use spec::{GpuSpec, ScaleLaw};
pub use time::{Reservation, SimDuration, SimTime, Timeline};

/// `f(0), f(1), … f(n - 1)`, in that order, on the calling thread. This
/// and the function below exist only because the frozen benchmark harness
/// names them (`benchmark/src/layers.rs:16,65`, `benchmark/src/lib.rs:128`);
/// they go when its pool probe does (ROADMAP item 4 vii).
pub fn run_indexed<T, F: Fn(usize) -> T>(n: usize, f: F) -> Vec<T> {
    (0..n).map(f).collect()
}

/// The worker count the benchmark harness reads and prints: 1. A
/// launch's blocks run on the calling thread, and a split launch's upper
/// half on one helper besides (`kernel::run_blocks`); the harness refuses
/// a box with fewer cores than this value, so it stays the calling one.
pub fn worker_threads() -> usize {
    1
}
