//! # gpmr-sim-net — cluster interconnect simulator
//!
//! Models the parts of the GPMR paper's testbed that live *outside* the
//! GPU: node topology (NCSA Accelerator: 4 GPUs per node over 2 shared
//! PCI-e links), QDR InfiniBand NICs with full-duplex send/receive
//! engines, timed point-to-point messaging ([`Fabric`]) with real payload
//! delivery ([`Mailbox`]), host CPU description ([`CpuSpec`]) and a whole
//! assembled [`Cluster`].
//!
//! GPUs cannot source or sink network I/O (the paper's motivating
//! constraint): every network byte first crosses PCI-e to the host, which
//! the GPMR engine models by chaining a device D2H reservation into a
//! fabric send.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod collectives;
pub mod fabric;
pub mod nic;
pub mod topology;

pub use cluster::Cluster;
pub use collectives::{all_to_all, broadcast};
pub use fabric::{Delivery, Fabric, Mailbox, TransferFault};
pub use nic::{CpuSpec, Nic};
pub use topology::Topology;
