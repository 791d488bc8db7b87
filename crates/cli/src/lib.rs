//! # gpmr-cli — command-line front end for the GPMR simulator
//!
//! ```text
//! gpmr run   --benchmark sio --gpus 8 --size 1000000 [--scale 64] [--trace]
//!            [--metrics-out m.json] [--trace-out t.json] [--events-out e.jsonl]
//! gpmr analyze --events e.jsonl [--json]
//! gpmr trace export --in e.jsonl --out t.json
//! gpmr perf  diff --baseline BENCH_PR6.json
//! gpmr paper fig3 [--scale 64] [--csv]
//! gpmr info  [--gpus 8]
//! gpmr help
//! ```
//!
//! `run` executes one benchmark on a simulated cluster and prints the
//! simulated runtime, throughput, and stage breakdown; `--trace` adds an
//! ASCII Gantt chart of the schedule, and the `--*-out` flags export the
//! telemetry recording (metrics snapshot, Chrome/Perfetto trace JSON, raw
//! JSONL stream). `trace` converts, validates, and summarises those
//! exports. `analyze` runs the performance-diagnosis layer (critical path,
//! stragglers, overlap, findings) over a recording or a live run, and
//! `perf` records/gates the deterministic baselines, `paper` regenerates
//! the paper's tables and figures ([`gpmr_bench::paper`]), `info` prints
//! the hardware. A subcommand's flags, their ranges and its handler:
//! [`COMMANDS`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;

pub use args::{ArgError, Args, Flag, Kind};
pub use commands::{dispatch, help, CliError, Command, COMMANDS};
