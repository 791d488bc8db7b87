//! # gpmr-baselines — the comparison systems of Tables 2 and 3
//!
//! * [`phoenix`] — a Phoenix-style (Ranger et al.) multicore CPU
//!   MapReduce executor with an Opteron cost model, plus the paper's five
//!   benchmarks in their typical CPU formulations ([`phoenix_apps`]);
//! * [`mars`] — a Mars-style (He et al.) single-GPU, in-core MapReduce
//!   executor with Mars's structural handicaps (two-pass emission,
//!   one-thread-per-item, bitonic sort), plus the Table 3 benchmarks
//!   ([`mars_apps`]).
//!
//! Both executors compute real results (verified against the same CPU
//! references as the GPMR jobs) and charge their time to the same
//! simulated-hardware models, so speedup ratios are apples-to-apples.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cpu;
pub mod mars;
pub mod mars_apps;
pub mod phoenix;
pub mod phoenix_apps;

pub use cpu::{cpu_time, CpuCost};
pub use mars::{run_mars, MarsApp, MarsError, MarsResult};
pub use mars_apps::{mars_mm, MarsKmc, MarsWo};
pub use phoenix::{run_phoenix, PhoenixApp, PhoenixConfig, PhoenixResult};
pub use phoenix_apps::{phoenix_mm, PhoenixKmc, PhoenixLr, PhoenixSio, PhoenixWo};
