//! # gpmr-sim-gpu — a deterministic GPU device simulator
//!
//! Substrate for the GPMR reproduction (Stuart & Owens, *Multi-GPU
//! MapReduce on GPU Clusters*, IPDPS 2011). The paper's library runs on
//! CUDA hardware; this crate provides the equivalent device abstraction in
//! pure Rust:
//!
//! * [`GpuSpec`] — hardware presets (the paper's GT200/Tesla S1070, plus a
//!   Fermi-class device for ablations);
//! * [`DeviceMemory`]/[`DeviceBuffer`] — capacity-enforced global memory
//!   (chunking and out-of-core behaviour depend on real OOM errors);
//! * [`LaunchConfig`]/[`BlockCtx`] — kernels written at block granularity,
//!   executed for real on the calling thread, charging a [`KernelCost`];
//! * a roofline timing model ([`kernel_time`], [`occupancy()`]) converting
//!   costs to simulated time;
//! * [`Timeline`]s for the compute engine and [`PcieLink`]s, so callers can
//!   express stream-style overlap of copies and kernels.
//!
//! Computation is bit-exact and testable; *time* is simulated. See the
//! repository `DESIGN.md` for the calibration used to reproduce the
//! paper's figures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod cost;
pub mod device;
pub mod error;
pub mod fault;
pub mod kernel;
pub mod link;
pub mod memory;
pub mod occupancy;
pub mod spec;
pub mod stream;
pub mod time;

pub use access::{coalesce_block, coalesce_warp, CoalescingSummary};
pub use cost::{kernel_time, KernelCost};
pub use device::{Gpu, GpuStats};
pub use error::{SimGpuError, SimGpuResult};
pub use fault::{FaultEvent, FaultPlan, FaultPlanParseError, TransferOutcome};
pub use kernel::{BlockCtx, Launch, LaunchConfig};
pub use link::{Direction, PcieLink, SharedLink};
pub use memory::{DeviceBuffer, DeviceMemory};
pub use occupancy::{occupancy, Occupancy};
pub use spec::GpuSpec;
pub use stream::Stream;
pub use time::{Reservation, SimDuration, SimTime, Timeline};

/// `f(0), f(1), … f(n - 1)`, in that order, on the calling thread. This
/// and the function below exist only because the frozen benchmark harness
/// names them (`benchmark/src/layers.rs:16,65`, `benchmark/src/lib.rs:128`);
/// they go when its pool probe does (ROADMAP item 4 vii).
pub fn run_indexed<T, F: Fn(usize) -> T>(n: usize, f: F) -> Vec<T> {
    (0..n).map(f).collect()
}

/// Host threads that execute kernel blocks: the calling one.
pub fn worker_threads() -> usize {
    1
}
