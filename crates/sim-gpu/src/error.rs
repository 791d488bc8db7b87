//! Error types for the GPU simulator.

use std::fmt;

/// Errors raised by the simulated device.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimGpuError {
    /// A working set that must stay in core exceeds the device's capacity
    /// (Mars, which cannot chunk, checks its need against it).
    OutOfMemory {
        /// Bytes the working set needs.
        requested: u64,
        /// Bytes the device holds.
        available: u64,
    },
    /// A kernel requested more shared memory than its launch configuration
    /// declared.
    SharedMemExceeded {
        /// Bytes requested within the block.
        requested: u32,
        /// Bytes declared in the launch configuration.
        declared: u32,
    },
    /// A launch configuration is impossible on this device (e.g. more
    /// threads per block than the hardware maximum, or a zero dimension).
    InvalidLaunch(String),
}

impl fmt::Display for SimGpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimGpuError::OutOfMemory {
                requested,
                available,
            } => write!(
                f,
                "device out of memory: requested {requested} bytes, {available} available"
            ),
            SimGpuError::SharedMemExceeded {
                requested,
                declared,
            } => write!(
                f,
                "shared memory exceeded: block requested {requested} bytes, launch declared {declared}"
            ),
            SimGpuError::InvalidLaunch(msg) => write!(f, "invalid launch configuration: {msg}"),
        }
    }
}

impl std::error::Error for SimGpuError {}

/// Convenience result alias for simulator operations.
pub type SimGpuResult<T> = Result<T, SimGpuError>;
