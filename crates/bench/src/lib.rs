//! # gpmr-bench — harnesses regenerating every table and figure of the
//! GPMR paper
//!
//! [`paper`] has one function per artifact of the paper's evaluation,
//! each run as a mode of `gpmr paper`:
//!
//! | `gpmr paper` mode | Paper artifact |
//! |---|---|
//! | `table1` | Table 1: dataset sizes |
//! | `table2` | Table 2: GPMR speedup over Phoenix (1 and 4 GPUs) |
//! | `table3` | Table 3: GPMR speedup over Mars (1 and 4 GPUs) |
//! | `table4` | Table 4: benchmark source lines of code |
//! | `fig2` | Figure 2: runtime breakdown at 1/8/64 GPUs |
//! | `fig3` | Figure 3: parallel efficiency curves |
//! | `weak` | Table 1 set two: weak-scaling sweep |
//! | `ablations` | extension: accumulation / partial-reduce / crossover ablations |
//!
//! All but `table4` take `--scale N` (default [`DEFAULT_SCALE`]): element
//! counts are divided by `N` (matrix orders by `sqrt(N)`) so runs finish
//! in seconds-to-minutes; `--scale 1` reproduces the paper's full sizes if
//! you have the time and memory. Simulated times scale with the workload,
//! so speedup and efficiency *shapes* are preserved; EXPERIMENTS.md
//! records results at the default scale. A job the scaled cluster cannot
//! hold (MM above `--scale 80`) is the engine's typed error.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod loc;
pub mod paper;
pub mod perf;
pub mod plot;
pub mod runners;
pub mod table;

pub use harness::DEFAULT_SCALE;
pub use runners::{harness_input, run_bench, shared_dictionary};
