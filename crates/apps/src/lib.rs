//! # gpmr-apps — the five GPMR paper benchmarks
//!
//! Every benchmark of Stuart & Owens (IPDPS 2011) §5, implemented as a
//! [`gpmr_core::GpmrJob`] with the paper's GPU-specific adaptations, plus
//! seeded workload generators and sequential CPU references:
//!
//! | Benchmark | Module | Pipeline shape |
//! |---|---|---|
//! | Matrix Multiplication | [`mm`] | two-phase, tiled, bypasses Sort/Reduce |
//! | Sparse Integer Occurrence | [`sio`] | plain map, full shuffle, radix sort |
//! | Word Occurrence | [`wo`] | Accumulation, MPH keys, partitioner crossover |
//! | K-Means Clustering | [`kmc`] | Accumulation, per-block pools, per-center partition |
//! | Linear Regression | [`lr`] | Accumulation, six keys, no partitioner |
//!
//! [`datasets`] encodes the paper's Table 1 and [`table`] puts the five
//! benchmarks behind one input type and one run function — what the CLI,
//! the perf gate and the paper harness call; [`mph`] and [`text`] are the
//! Word Occurrence substrates (minimal perfect hashing, corpus
//! generation).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod datasets;
pub mod iterative;
pub mod kmc;
pub mod lr;
pub mod mm;
pub mod mph;
pub mod sio;
pub mod table;
pub mod text;
pub mod wo;

pub use datasets::{strong_workload, Benchmark, Workload};
pub use iterative::{run_kmeans, KmcRounds, KmeansResult};
pub use kmc::KmcJob;
pub use lr::LrJob;
pub use mm::{run_mm, Matrix, MmMapJob, MmResult, MmSumJob};
pub use mph::MinimalPerfectHash;
pub use sio::SioJob;
pub use table::{AppData, AppInput, AppOutput, AppRun};
pub use text::Dictionary;
pub use wo::WoJob;
