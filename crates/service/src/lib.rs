//! # gpmr-service — multi-tenant job service for GPMR
//!
//! A long-running job service in front of the GPMR engine: tenants
//! `submit` jobs, `poll` their status, and `cancel` them; the service
//! admits or rejects work against per-tenant quotas (concurrent jobs,
//! GPU-seconds budget, memory share) and cluster limits (queue depth,
//! the engine's `ChunkTooLarge` staging formula), runs up to N jobs
//! concurrently on a shared engine pool, enforces per-job deadlines
//! (missed deadlines surface as a typed [`JobStatus::DeadlineMissed`]),
//! and batches compatible small jobs into a single cluster pass with
//! bit-identical per-member outputs.
//!
//! Everything runs in simulated time on the deterministic GPMR engine:
//! the same workload script always produces the same admissions,
//! dispatch order, outputs, and telemetry.
//!
//! ```
//! use gpmr_service::{JobKind, JobService, JobSpec, JobStatus, ServiceConfig, TenantConfig};
//! use gpmr_telemetry::Telemetry;
//!
//! let mut svc = JobService::new(
//!     ServiceConfig::default(),
//!     vec![TenantConfig::unlimited("alice")],
//!     Telemetry::disabled(),
//! );
//! let id = svc.submit(JobSpec::new(
//!     "alice",
//!     JobKind::Sio { n: 10_000, seed: 7, chunk_kb: 16 },
//! ));
//! svc.drain();
//! assert!(matches!(svc.poll(id), Ok(JobStatus::Completed { .. })));
//! assert!(svc.merged_output(id).is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod service;
pub mod slo;
pub mod spec;
pub mod workload;

pub use batch::{BatchChunk, SioBatchJob};
pub use service::{
    JobService, ObsConfig, ServiceConfig, ServiceStats, DICT_CACHE_ENTRIES, QUEUE_WAIT_BOUNDS,
};
pub use slo::{render_prometheus, SloAccountant, SloPolicy, SloReport, TenantSlo};
pub use spec::{
    JobId, JobKind, JobSpec, JobStatus, RejectReason, ServiceError, TenantConfig, MAX_DICT_WORDS,
    MAX_SIO_INTEGERS, MAX_WO_BYTES,
};
pub use workload::{parse, run, run_script, Action, Workload, WorkloadError};
