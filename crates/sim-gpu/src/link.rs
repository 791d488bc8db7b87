//! PCI-e link model.
//!
//! The paper's cluster connects each Tesla S1070 (4 GPUs) to its host
//! through generation-1 PCI-e; GPUs contend for host links, and the cost of
//! streaming chunks across PCI-e is one of the two communication costs the
//! GPMR pipeline is designed around (the other being the network). A link
//! has one timeline per direction, so an H2D copy can overlap a D2H copy
//! but two H2D copies serialize — matching full-duplex DMA hardware.

use std::sync::Arc;

use std::sync::Mutex;

use crate::time::{Reservation, SimDuration, SimTime, Timeline};

/// Transfer direction across the link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Host memory to device memory (upload).
    HostToDevice,
    /// Device memory to host memory (download).
    DeviceToHost,
}

/// A full-duplex PCI-e link with per-direction bandwidth and a fixed
/// initiation latency per transfer.
#[derive(Debug)]
pub struct PcieLink {
    /// Effective bandwidth per direction in bytes/second.
    pub bandwidth: f64,
    /// Fixed cost to initiate a DMA transfer, in seconds.
    pub latency_s: f64,
    h2d: Timeline,
    d2h: Timeline,
}

impl PcieLink {
    /// Create a link with the given per-direction bandwidth and latency.
    pub fn new(bandwidth: f64, latency_s: f64) -> Self {
        PcieLink {
            bandwidth,
            latency_s,
            h2d: Timeline::new(),
            d2h: Timeline::new(),
        }
    }

    /// Generation-1 x16 link as in the paper's cluster: ~3.2 GB/s
    /// effective, ~10 microseconds to initiate a transfer.
    pub fn gen1_x16() -> Self {
        Self::new(3.2e9, 10.0e-6)
    }

    /// Scale bandwidth down by `s`, keeping the initiation latency (see
    /// [`crate::GpuSpec::scaled`] for the workload-scaling rationale).
    pub fn scaled(mut self, s: f64) -> Self {
        self.bandwidth /= s.max(1.0);
        self
    }

    /// Reserve the link for a `bytes`-sized transfer in `dir`, starting no
    /// earlier than `at`.
    pub fn transfer(&mut self, dir: Direction, at: SimTime, bytes: u64) -> Reservation {
        let dur = SimDuration::from_secs(self.latency_s + bytes as f64 / self.bandwidth);
        match dir {
            Direction::HostToDevice => self.h2d.reserve(at, dur),
            Direction::DeviceToHost => self.d2h.reserve(at, dur),
        }
    }

    /// Instant after which direction `dir` is idle.
    pub fn free_at(&self, dir: Direction) -> SimTime {
        match dir {
            Direction::HostToDevice => self.h2d.free_at(),
            Direction::DeviceToHost => self.d2h.free_at(),
        }
    }

    /// Total busy time across both directions.
    pub fn busy_time(&self) -> SimDuration {
        self.h2d.busy_time() + self.d2h.busy_time()
    }

    /// Reset both directions to idle, clearing statistics.
    pub fn reset(&mut self) {
        self.h2d.reset();
        self.d2h.reset();
    }
}

/// A PCI-e link shareable between devices (the S1070 topology pairs two
/// GPUs per host link). Cheap to clone.
#[derive(Clone, Debug)]
pub struct SharedLink(Arc<Mutex<PcieLink>>);

impl SharedLink {
    /// Wrap a link for sharing.
    pub fn new(link: PcieLink) -> Self {
        SharedLink(Arc::new(Mutex::new(link)))
    }

    /// Reserve a transfer; see [`PcieLink::transfer`].
    pub fn transfer(&self, dir: Direction, at: SimTime, bytes: u64) -> Reservation {
        self.0.lock().unwrap().transfer(dir, at, bytes)
    }

    /// See [`PcieLink::free_at`].
    pub fn free_at(&self, dir: Direction) -> SimTime {
        self.0.lock().unwrap().free_at(dir)
    }

    /// See [`PcieLink::busy_time`].
    pub fn busy_time(&self) -> SimDuration {
        self.0.lock().unwrap().busy_time()
    }

    /// See [`PcieLink::reset`].
    pub fn reset(&self) {
        self.0.lock().unwrap().reset()
    }
}

impl Default for SharedLink {
    fn default() -> Self {
        SharedLink::new(PcieLink::gen1_x16())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_is_latency_plus_bytes_over_bw() {
        let mut link = PcieLink::new(1e9, 1e-6);
        let r = link.transfer(Direction::HostToDevice, SimTime::ZERO, 1_000_000);
        assert!((r.duration().as_secs() - (1e-6 + 1e-3)).abs() < 1e-12);
    }

    #[test]
    fn directions_are_independent() {
        let mut link = PcieLink::gen1_x16();
        let up = link.transfer(Direction::HostToDevice, SimTime::ZERO, 1 << 30);
        let down = link.transfer(Direction::DeviceToHost, SimTime::ZERO, 1 << 30);
        // Both start immediately: full duplex.
        assert_eq!(up.start, SimTime::ZERO);
        assert_eq!(down.start, SimTime::ZERO);
    }

    #[test]
    fn same_direction_serializes() {
        let mut link = PcieLink::gen1_x16();
        let a = link.transfer(Direction::HostToDevice, SimTime::ZERO, 1 << 20);
        let b = link.transfer(Direction::HostToDevice, SimTime::ZERO, 1 << 20);
        assert_eq!(b.start, a.end);
        assert_eq!(link.free_at(Direction::HostToDevice), b.end);
    }

    #[test]
    fn shared_link_contention_between_devices() {
        let shared = SharedLink::new(PcieLink::gen1_x16());
        let other = shared.clone();
        let a = shared.transfer(Direction::HostToDevice, SimTime::ZERO, 1 << 25);
        let b = other.transfer(Direction::HostToDevice, SimTime::ZERO, 1 << 25);
        assert_eq!(b.start, a.end);
        assert!(shared.busy_time().as_secs() > 0.0);
        shared.reset();
        assert_eq!(other.busy_time(), SimDuration::ZERO);
    }
}
