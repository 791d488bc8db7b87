//! Engine error types.

use std::fmt;

use gpmr_sim_gpu::SimGpuError;
use gpmr_sim_net::TransferFault;

use crate::journal::JournalError;

/// Errors raised while running a GPMR job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// A device operation failed (out of memory, bad launch, ...).
    Gpu(SimGpuError),
    /// The job's pipeline configuration is inconsistent.
    InvalidPipeline(String),
    /// A chunk cannot fit in device memory once per staging slot of the
    /// upload pipeline (`EngineTuning::pipeline_depth` buffers, plus one
    /// GPU-direct staging slot when that mode is on); re-chunk the input
    /// with a smaller chunk size or shrink the pipeline depth.
    ChunkTooLarge {
        /// The chunk's transfer size in bytes.
        bytes: u64,
        /// The device capacity in bytes.
        capacity: u64,
        /// Staging slots the chunk must fit into the capacity: the
        /// configured pipeline depth plus one when GPU-direct staging is
        /// enabled.
        slots: u64,
    },
    /// A GPU failed and no live GPU remained to take over its work. Raised
    /// only when a fault plan kills *every* rank; any plan that leaves one
    /// GPU alive recovers instead.
    GpuLost {
        /// The last rank to fail.
        rank: u32,
    },
    /// A fabric transfer kept failing past the engine's retry budget
    /// ([`MAX_TRANSFER_RETRIES`](crate::MAX_TRANSFER_RETRIES)).
    TransferFailed {
        /// Number of attempts made (initial try plus retries).
        attempt: u32,
        /// The underlying fabric fault (source of this error).
        fault: TransferFault,
    },
    /// The write-ahead journal failed: an I/O error, or a resumed run
    /// diverging from the journal's record prefix (see
    /// [`JournalError::Diverged`]).
    Journal(JournalError),
    /// The run was stopped by its caller (`Run::cancel`): service
    /// cancellation or a missed deadline. Ranks stop dequeuing at the stop
    /// instant, in-flight chunks finish at their chunk boundary, every
    /// queued chunk is drained back out of the work queues, and device
    /// memory is released. Committed plus released chunks account for the
    /// whole input (absent fault-plan kills, which may rerun chunks).
    Cancelled {
        /// Stop instant in integer nanoseconds of simulated time.
        at_ns: u64,
        /// Chunks whose map work committed before the engine stopped.
        chunks_committed: u32,
        /// Chunks drained from the work queues when the engine stopped.
        chunks_released: u32,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Gpu(e) => write!(f, "device error: {e}"),
            EngineError::InvalidPipeline(msg) => write!(f, "invalid pipeline: {msg}"),
            EngineError::ChunkTooLarge {
                bytes,
                capacity,
                slots,
            } => write!(
                f,
                "chunk of {bytes} bytes cannot be staged {slots} times (pipeline depth plus \
                 GPU-direct staging) in {capacity} bytes of device memory"
            ),
            EngineError::GpuLost { rank } => {
                write!(
                    f,
                    "GPU on rank {rank} lost with no surviving GPU to recover onto"
                )
            }
            EngineError::TransferFailed { attempt, fault } => {
                write!(f, "transfer failed after {attempt} attempts: {fault}")
            }
            EngineError::Journal(e) => write!(f, "journal error: {e}"),
            EngineError::Cancelled {
                at_ns,
                chunks_committed,
                chunks_released,
            } => write!(
                f,
                "job cancelled at {:.6}s: {chunks_committed} chunk(s) committed, \
                 {chunks_released} released",
                *at_ns as f64 / 1e9
            ),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Gpu(e) => Some(e),
            EngineError::TransferFailed { fault, .. } => Some(fault),
            EngineError::Journal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimGpuError> for EngineError {
    fn from(e: SimGpuError) -> Self {
        EngineError::Gpu(e)
    }
}

impl From<JournalError> for EngineError {
    fn from(e: JournalError) -> Self {
        EngineError::Journal(e)
    }
}

/// Convenience result alias for engine operations.
pub type EngineResult<T> = Result<T, EngineError>;
