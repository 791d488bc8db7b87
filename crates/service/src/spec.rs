//! Job specifications, tenant quotas, and the status/error vocabulary of
//! the service API.

use std::fmt;

/// Opaque handle returned by [`JobService::submit`](crate::JobService::submit).
///
/// Displays as `job{N}` with `N` starting at 1 in submission order, which
/// is also the name used by workload scripts (`cancel job3`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job{}", self.0)
    }
}

impl JobId {
    /// Parse a `job{N}` name back into an id (used by workload scripts).
    pub fn parse(s: &str) -> Option<JobId> {
        let n = s.strip_prefix("job")?.parse().ok()?;
        Some(JobId(n))
    }
}

/// What workload a job runs. Both kinds regenerate their input
/// deterministically from the seed, so a job is fully described by its
/// spec — a standalone run of the same spec sees bit-identical inputs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum JobKind {
    /// Sparse-integer-occurrence count (the paper's SIO benchmark):
    /// `n` random integers, chunked at `chunk_kb` KiB.
    Sio {
        /// Number of input integers.
        n: usize,
        /// Input generator seed.
        seed: u64,
        /// Chunk size in KiB.
        chunk_kb: usize,
    },
    /// Word occurrence (the paper's WO benchmark): `bytes` of generated
    /// text over a `dict_words`-word dictionary, chunked at `chunk_kb` KiB.
    Wo {
        /// Text size in bytes.
        bytes: usize,
        /// Dictionary size in words; at least 1, or admission refuses the
        /// job with [`RejectReason::EmptyDictionary`].
        dict_words: usize,
        /// Input generator seed.
        seed: u64,
        /// Chunk size in KiB.
        chunk_kb: usize,
    },
}

/// Most integers an SIO job may ask the service to generate (1 GiB of
/// `u32` keys).
pub const MAX_SIO_INTEGERS: usize = 1 << 28;
/// Most text a WO job may ask the service to generate (1 GiB).
pub const MAX_WO_BYTES: usize = 1 << 30;
/// Largest WO dictionary the service will build, in words (24 times the
/// paper's).
pub const MAX_DICT_WORDS: usize = 1 << 20;

impl JobKind {
    /// The refusal for a job whose generated input exceeds the service's
    /// fixed bounds ([`MAX_SIO_INTEGERS`], [`MAX_WO_BYTES`],
    /// [`MAX_DICT_WORDS`]). The lengths come from the submitter and every
    /// one of them sizes an allocation, so they are checked before
    /// anything is generated.
    pub fn input_too_large(&self) -> Option<RejectReason> {
        let over = |field, value: usize, max: usize| {
            (value > max).then_some(RejectReason::InputTooLarge {
                field,
                value: value as u64,
                max: max as u64,
            })
        };
        match *self {
            JobKind::Sio { n, .. } => over("n", n, MAX_SIO_INTEGERS),
            JobKind::Wo {
                bytes, dict_words, ..
            } => over("bytes", bytes, MAX_WO_BYTES)
                .or_else(|| over("dict", dict_words, MAX_DICT_WORDS)),
        }
    }

    /// Short kind name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            JobKind::Sio { .. } => "sio",
            JobKind::Wo { .. } => "wo",
        }
    }

    /// The largest chunk the job will stage, in bytes — the quantity the
    /// `ChunkTooLarge` admission formula multiplies by the staging-slot
    /// count.
    pub fn chunk_bytes(&self) -> u64 {
        match self {
            JobKind::Sio { chunk_kb, .. } | JobKind::Wo { chunk_kb, .. } => {
                (*chunk_kb as u64).saturating_mul(1024)
            }
        }
    }

    /// Whether this kind is eligible for small-job batching. Only plain
    /// SIO qualifies: WO runs in Accumulate mode (per-job resident device
    /// state) which cannot share a cluster pass.
    pub fn batchable_kind(&self) -> bool {
        matches!(self, JobKind::Sio { .. })
    }
}

/// A job submission.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Owning tenant (must be registered with the service).
    pub tenant: String,
    /// The workload.
    pub kind: JobKind,
    /// Dispatch priority among queued jobs (higher first; ties break by
    /// submission order).
    pub priority: u32,
    /// Deadline in seconds after submission. A job that has not finished
    /// by its deadline is cancelled mid-flight and surfaced as
    /// [`JobStatus::DeadlineMissed`].
    pub deadline_s: Option<f64>,
    /// Opt in to small-job batching (only honored for batchable kinds
    /// with no fault plan and no journal).
    pub batchable: bool,
    /// Inject a GPU fail-stop: kill `rank` at `at_s` seconds after the
    /// job starts (fault-tolerance exercise; the job recovers on the
    /// surviving ranks with output unchanged).
    pub kill: Option<(u32, f64)>,
    /// Inject a stall: freeze `rank` at `at_s` for `dur_s` seconds. Like
    /// `kill`, a per-job fault plan (excludes the job from batching).
    pub stall: Option<(u32, f64, f64)>,
    /// Run with a write-ahead journal (the journal lives for the run and
    /// is dropped after; exercises the journaled engine path under
    /// multi-tenancy).
    pub journal: bool,
}

impl JobSpec {
    /// A plain spec with defaults: priority 0, no deadline, no batching,
    /// no faults, no journal.
    pub fn new(tenant: impl Into<String>, kind: JobKind) -> Self {
        JobSpec {
            tenant: tenant.into(),
            kind,
            priority: 0,
            deadline_s: None,
            batchable: false,
            kill: None,
            stall: None,
            journal: false,
        }
    }

    /// The refusal for a spec no run can honour: a deadline, kill instant,
    /// stall instant or stall duration that is not finite and
    /// non-negative (the workload parser's rule for times), or a chunk of
    /// zero KiB, which would make every input element its own chunk.
    pub fn out_of_range(&self) -> Option<RejectReason> {
        let times = [
            ("deadline", self.deadline_s),
            ("kill time", self.kill.map(|(_, at_s)| at_s)),
            ("stall time", self.stall.map(|(_, at_s, _)| at_s)),
            ("stall duration", self.stall.map(|(_, _, dur_s)| dur_s)),
        ];
        let bad_time = times.into_iter().find_map(|(field, t)| {
            t.filter(|t| !(t.is_finite() && *t >= 0.0))
                .map(|value| RejectReason::OutOfRange {
                    field,
                    value,
                    want: "finite and non-negative",
                })
        });
        bad_time.or_else(|| {
            (self.kind.chunk_bytes() == 0).then_some(RejectReason::OutOfRange {
                field: "chunk_kb",
                value: 0.0,
                want: "at least 1",
            })
        })
    }

    /// Whether the job may share a cluster pass with other jobs: the kind
    /// must be batchable, the spec must opt in, and fault injection or
    /// journaling (both per-job concerns) must be off.
    pub fn can_batch(&self) -> bool {
        self.batchable
            && self.kind.batchable_kind()
            && self.kill.is_none()
            && self.stall.is_none()
            && !self.journal
    }
}

/// Per-tenant resource quotas.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantConfig {
    /// Tenant name (the `JobSpec::tenant` key).
    pub name: String,
    /// Maximum jobs running at once; further admitted jobs wait in the
    /// queue (they are *not* rejected).
    pub max_concurrent: u32,
    /// GPU-seconds budget (simulated seconds × GPUs). Once spent, new
    /// submissions are rejected and already-queued jobs stay queued.
    pub gpu_seconds: f64,
    /// Fraction of per-GPU memory the tenant's chunks may stage into
    /// (`0.0..=1.0`); the `ChunkTooLarge` formula is evaluated against
    /// `capacity × mem_share`.
    pub mem_share: f64,
}

impl TenantConfig {
    /// An unconstrained tenant (useful defaults for tests).
    pub fn unlimited(name: impl Into<String>) -> Self {
        TenantConfig {
            name: name.into(),
            max_concurrent: u32::MAX,
            gpu_seconds: f64::INFINITY,
            mem_share: 1.0,
        }
    }
}

/// Why a submission was refused at admission.
#[derive(Clone, Debug, PartialEq)]
pub enum RejectReason {
    /// The spec names a tenant the service does not know.
    UnknownTenant,
    /// The service queue is at capacity.
    QueueFull {
        /// Jobs queued at submission time.
        depth: usize,
        /// The configured queue-depth limit.
        max: usize,
    },
    /// The job's chunks cannot be staged inside the tenant's memory
    /// share — the engine's `ChunkTooLarge` formula, evaluated before the
    /// job ever reaches a cluster.
    MemoryExceeded {
        /// The job's chunk size in bytes.
        chunk_bytes: u64,
        /// Staging slots the chunk must fit simultaneously.
        slots: u64,
        /// The tenant's memory budget in bytes (`capacity × mem_share`).
        budget_bytes: u64,
    },
    /// The tenant's GPU-seconds budget is spent.
    BudgetExhausted {
        /// GPU-seconds charged so far.
        spent_s: f64,
        /// The configured budget.
        budget_s: f64,
    },
    /// A WO job over a dictionary of zero words: there is no text to
    /// generate and nothing to count.
    EmptyDictionary,
    /// A time or size in the spec that no run can honour (see
    /// [`JobSpec::out_of_range`]).
    OutOfRange {
        /// The workload-script name of the field (`deadline`, `kill time`,
        /// `stall time`, `stall duration` or `chunk_kb`).
        field: &'static str,
        /// The value given.
        value: f64,
        /// What the field must be.
        want: &'static str,
    },
    /// The job asks for a generated input beyond the service's fixed
    /// bounds (see [`JobKind::input_too_large`]).
    InputTooLarge {
        /// The workload-script key of the oversized length (`n`, `bytes`
        /// or `dict`).
        field: &'static str,
        /// The requested length.
        value: u64,
        /// The bound it exceeds.
        max: u64,
    },
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::UnknownTenant => write!(f, "unknown tenant"),
            RejectReason::QueueFull { depth, max } => {
                write!(f, "queue full ({depth} of {max} slots)")
            }
            RejectReason::MemoryExceeded {
                chunk_bytes,
                slots,
                budget_bytes,
            } => write!(
                f,
                "chunk of {chunk_bytes} bytes cannot be staged {slots} times in the \
                 tenant's {budget_bytes}-byte memory share"
            ),
            RejectReason::BudgetExhausted { spent_s, budget_s } => {
                write!(
                    f,
                    "GPU-seconds budget spent ({spent_s:.4}s of {budget_s:.4}s)"
                )
            }
            RejectReason::EmptyDictionary => write!(f, "wo job over an empty dictionary"),
            RejectReason::OutOfRange { field, value, want } => {
                write!(f, "{field} {value} out of range: must be {want}")
            }
            RejectReason::InputTooLarge { field, value, max } => {
                write!(f, "input too large: {field}={value} exceeds {max}")
            }
        }
    }
}

/// Where a job is in its lifecycle; the `poll` return value.
#[derive(Clone, Debug, PartialEq)]
pub enum JobStatus {
    /// Admitted, waiting for a pool slot (and for its tenant to drop
    /// below `max_concurrent` / back under budget).
    Queued,
    /// Executing on a pool slot since `started_s`.
    Running {
        /// Dispatch instant in service seconds.
        started_s: f64,
    },
    /// Finished; output available through
    /// [`JobService::outputs`](crate::JobService::outputs).
    Completed {
        /// Dispatch instant.
        started_s: f64,
        /// Completion instant.
        finished_s: f64,
        /// Time spent queued before dispatch.
        wait_s: f64,
        /// Whether the job shared its cluster pass with other jobs.
        batched: bool,
    },
    /// Cancelled by the user. For a mid-flight cancel the engine's
    /// conservation accounting is attached; a queued cancel reports zero
    /// for both counts.
    Cancelled {
        /// Cancellation instant.
        at_s: f64,
        /// Chunks whose map work committed before the stop.
        chunks_committed: u32,
        /// Chunks drained back out of the work queues.
        chunks_released: u32,
    },
    /// The typed deadline error: the job missed its deadline and was
    /// cancelled (mid-flight if running, silently if still queued).
    DeadlineMissed {
        /// The absolute deadline instant that passed.
        deadline_s: f64,
        /// Chunks committed before the stop (0 if never dispatched).
        chunks_committed: u32,
        /// Chunks released by the stop (0 if never dispatched).
        chunks_released: u32,
    },
    /// The engine failed the job (e.g. every GPU lost).
    Failed {
        /// The engine error, rendered.
        error: String,
    },
    /// Refused at admission; never queued.
    Rejected(RejectReason),
}

impl JobStatus {
    /// Short status word for reports.
    pub fn word(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running { .. } => "running",
            JobStatus::Completed { .. } => "completed",
            JobStatus::Cancelled { .. } => "cancelled",
            JobStatus::DeadlineMissed { .. } => "deadline-missed",
            JobStatus::Failed { .. } => "failed",
            JobStatus::Rejected(_) => "rejected",
        }
    }

    /// Whether the job can still change state.
    pub fn is_live(&self) -> bool {
        matches!(self, JobStatus::Queued | JobStatus::Running { .. })
    }
}

/// Errors from service calls themselves (not job outcomes).
#[derive(Clone, Debug, PartialEq)]
pub enum ServiceError {
    /// No job with that id.
    UnknownJob(JobId),
    /// The job already reached a terminal state and cannot be cancelled.
    NotCancellable(JobId),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownJob(id) => write!(f, "unknown job {id}"),
            ServiceError::NotCancellable(id) => {
                write!(f, "{id} already finished and cannot be cancelled")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_id_round_trips_through_display() {
        let id = JobId(17);
        assert_eq!(id.to_string(), "job17");
        assert_eq!(JobId::parse("job17"), Some(id));
        assert_eq!(JobId::parse("17"), None);
        assert_eq!(JobId::parse("jobx"), None);
    }

    #[test]
    fn batching_eligibility_rules() {
        let sio = JobKind::Sio {
            n: 1000,
            seed: 1,
            chunk_kb: 16,
        };
        let wo = JobKind::Wo {
            bytes: 1000,
            dict_words: 64,
            seed: 1,
            chunk_kb: 16,
        };
        let mut spec = JobSpec::new("t", sio);
        assert!(!spec.can_batch(), "must opt in");
        spec.batchable = true;
        assert!(spec.can_batch());
        spec.kill = Some((1, 0.001));
        assert!(!spec.can_batch(), "fault plans are per-job");
        spec.kill = None;
        spec.journal = true;
        assert!(!spec.can_batch(), "journals are per-job");
        let mut wo_spec = JobSpec::new("t", wo);
        wo_spec.batchable = true;
        assert!(!wo_spec.can_batch(), "accumulate-mode WO never batches");
    }

    #[test]
    fn chunk_bytes_is_kib() {
        let sio = JobKind::Sio {
            n: 1,
            seed: 0,
            chunk_kb: 16,
        };
        assert_eq!(sio.chunk_bytes(), 16 * 1024);
        // A chunk size from a script saturates (and then fails the
        // staging formula) instead of overflowing at admission.
        let huge = JobKind::Sio {
            n: 1,
            seed: 0,
            chunk_kb: usize::MAX,
        };
        assert_eq!(huge.chunk_bytes(), u64::MAX);
    }
}
