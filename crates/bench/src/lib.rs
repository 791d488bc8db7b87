//! # gpmr-bench — harnesses regenerating every table and figure of the
//! GPMR paper
//!
//! Each binary regenerates one artifact of the paper's evaluation:
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `table1_datasets` | Table 1: dataset sizes |
//! | `table2_phoenix` | Table 2: GPMR speedup over Phoenix (1 and 4 GPUs) |
//! | `table3_mars` | Table 3: GPMR speedup over Mars (1 and 4 GPUs) |
//! | `table4_loc` | Table 4: benchmark source lines of code |
//! | `fig2_breakdown` | Figure 2: runtime breakdown at 1/8/64 GPUs |
//! | `fig3_efficiency` | Figure 3: parallel efficiency curves |
//! | `weak_scaling` | Table 1 set two: weak-scaling sweep |
//! | `ablations` | extension: accumulation / partial-reduce / crossover ablations |
//!
//! All binaries take `--scale N` (default 64): element counts are divided
//! by `N` (matrix orders by `sqrt(N)`) so runs finish in seconds-to-
//! minutes; `--scale 1` reproduces the paper's full sizes if you have the
//! time and memory. Simulated times scale with the workload, so speedup
//! and efficiency *shapes* are preserved; EXPERIMENTS.md records results
//! at the default scale. A job the scaled cluster cannot hold (MM above
//! `--scale 80`) is reported and exits 2 ([`or_exit`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod loc;
pub mod perf;
pub mod plot;
pub mod runners;
pub mod table;

pub use harness::{or_exit, parse_scale, HarnessConfig, DEFAULT_SCALE};
pub use runners::{harness_input, run_bench, shared_dictionary};
