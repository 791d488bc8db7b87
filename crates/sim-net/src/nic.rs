//! Network interface model.
//!
//! Each node owns one NIC with independent send and receive engines
//! (full-duplex InfiniBand). A message reserves the sender's send engine,
//! then the receiver's receive engine after the wire latency; contention on
//! either side delays delivery. The preset matches the paper's QDR
//! InfiniBand fabric.

use gpmr_sim_gpu::{Reservation, ScaleLaw, SimDuration, SimTime, Timeline};

/// A full-duplex network interface.
#[derive(Debug)]
pub struct Nic {
    /// Effective bandwidth per direction, bytes/second.
    pub bandwidth: f64,
    /// One-way wire + stack latency, seconds.
    pub latency_s: f64,
    send: Timeline,
    recv: Timeline,
}

impl Nic {
    /// Create a NIC with the given bandwidth and latency.
    pub fn new(bandwidth: f64, latency_s: f64) -> Self {
        Nic {
            bandwidth,
            latency_s,
            send: Timeline::new(),
            recv: Timeline::new(),
        }
    }

    /// QDR InfiniBand as deployed on the paper's cluster: ~3.2 GB/s
    /// effective per node, ~2 microsecond latency.
    pub fn qdr_infiniband() -> Self {
        Self::new(3.2e9, 2.0e-6)
    }

    /// Scale bandwidth down by `law.data`, keeping latency
    /// (workload-scaling mode; see `GpuSpec::scaled`).
    pub fn scaled(mut self, law: ScaleLaw) -> Self {
        self.bandwidth /= law.data;
        self
    }

    /// Serialization time for `bytes` on the wire.
    pub fn wire_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs(bytes as f64 / self.bandwidth)
    }

    /// Reserve the send engine for `bytes` starting no earlier than `at`.
    pub fn reserve_send(&mut self, at: SimTime, bytes: u64) -> Reservation {
        self.send.reserve(at, self.wire_time(bytes))
    }

    /// Reserve the receive engine for `bytes` starting no earlier than `at`.
    pub fn reserve_recv(&mut self, at: SimTime, bytes: u64) -> Reservation {
        self.recv.reserve(at, self.wire_time(bytes))
    }

    /// Reset both engines to idle.
    pub fn reset(&mut self) {
        self.send.reset();
        self.recv.reset();
    }
}

/// Host CPU and memory description for a cluster node. Used by the Bin
/// stage (intra-node copies through host memory) and by the Phoenix-style
/// CPU baseline's cost model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CpuSpec {
    /// Display name.
    pub name: &'static str,
    /// Worker cores available.
    pub cores: u32,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Useful scalar operations per core-cycle (ILP + SSE folded in).
    pub ops_per_cycle: f64,
    /// Sustained memory bandwidth, bytes/second (shared by all cores).
    pub mem_bandwidth: f64,
}

impl CpuSpec {
    /// The paper's node host: two dual-core 2.4 GHz AMD Opterons, 8 GB RAM.
    /// Memory bandwidth is the era's measured STREAM figure (~3 GB/s per
    /// node), not the DDR2 theoretical peak.
    pub fn dual_opteron_2216() -> Self {
        CpuSpec {
            name: "2x dual-core Opteron 2.4 GHz",
            cores: 4,
            clock_ghz: 2.4,
            ops_per_cycle: 2.0,
            mem_bandwidth: 3.0e9,
        }
    }

    /// Peak scalar throughput over all cores, ops/second.
    pub fn peak_ops(&self) -> f64 {
        self.cores as f64 * self.clock_ghz * 1e9 * self.ops_per_cycle
    }

    /// Scale the clock down by `law.compute` and memory bandwidth by
    /// `law.data` (workload-scaling mode; see `GpuSpec::scaled`).
    pub fn scaled(mut self, law: ScaleLaw) -> Self {
        self.clock_ghz /= law.compute;
        self.mem_bandwidth /= law.data;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_time_scales_with_bytes() {
        let nic = Nic::new(1e9, 0.0);
        assert!((nic.wire_time(1_000_000).as_secs() - 1e-3).abs() < 1e-12);
    }

    #[test]
    fn send_engine_serializes() {
        let mut nic = Nic::qdr_infiniband();
        let a = nic.reserve_send(SimTime::ZERO, 32 << 20);
        let b = nic.reserve_send(SimTime::ZERO, 32 << 20);
        assert_eq!(b.start, a.end);
        assert_eq!(nic.reserve_send(SimTime::ZERO, 1).start, b.end);
    }

    #[test]
    fn send_and_recv_are_full_duplex() {
        let mut nic = Nic::qdr_infiniband();
        let s = nic.reserve_send(SimTime::ZERO, 32 << 20);
        let r = nic.reserve_recv(SimTime::ZERO, 32 << 20);
        assert_eq!(s.start, SimTime::ZERO);
        assert_eq!(r.start, SimTime::ZERO);
        assert_eq!(nic.reserve_send(SimTime::ZERO, 1).start, s.end);
        nic.reset();
        assert_eq!(nic.reserve_recv(SimTime::ZERO, 1).start, SimTime::ZERO);
    }

    #[test]
    fn opteron_peak_ops() {
        let c = CpuSpec::dual_opteron_2216();
        assert!((c.peak_ops() - 4.0 * 2.4e9 * 2.0).abs() < 1.0);
    }
}
