//! A whole simulated GPU cluster: devices wired to shared PCI-e links and
//! an interconnect fabric.
//!
//! This is the object the GPMR engine runs against. It owns one [`Gpu`]
//! per rank, with the paper's S1070 link sharing (two GPUs per host PCI-e
//! link) and one NIC per node.

use crate::fabric::Fabric;
use crate::topology::Topology;
use gpmr_sim_gpu::{FaultPlan, Gpu, GpuSpec, PcieLink, ScaleLaw, SharedLink};
use gpmr_telemetry::Telemetry;

/// A simulated cluster of GPUs.
pub struct Cluster {
    topology: Topology,
    gpus: Vec<Gpu>,
    fabric: Fabric,
}

impl Cluster {
    /// Build the paper's cluster shape for `gpu_count` GPUs of type `spec`.
    pub fn accelerator(gpu_count: u32, spec: GpuSpec) -> Self {
        Self::new(Topology::accelerator(gpu_count), spec)
    }

    /// Build a cluster with an explicit topology and full-scale hardware.
    pub fn new(topology: Topology, spec: GpuSpec) -> Self {
        // The spec stays as given: scaling it, even by 1, would lift a
        // small device's capacity to the 1 MiB floor.
        Self::build(topology, spec, ScaleLaw::uniform(1.0))
    }

    /// Build the paper's cluster shape with every hardware throughput
    /// scaled down by `scale` ([`ScaleLaw::uniform`]).
    pub fn accelerator_scaled(gpu_count: u32, spec: GpuSpec, scale: f64) -> Self {
        let law = ScaleLaw::uniform(scale);
        Self::scaled(Topology::accelerator(gpu_count), spec, law)
    }

    /// Build with the GPUs, PCI-e links, NICs and hosts all scaled down by
    /// `law` (workload-scaling mode: run workloads shrunk by `law` and
    /// obtain full-scale simulated times; see [`GpuSpec::scaled`]).
    pub fn scaled(topology: Topology, spec: GpuSpec, law: ScaleLaw) -> Self {
        Self::build(topology, spec.scaled(law), law)
    }

    fn build(topology: Topology, spec: GpuSpec, law: ScaleLaw) -> Self {
        // One shared PCI-e link per (node, link-slot) pair.
        let mut links: Vec<Vec<SharedLink>> = (0..topology.nodes)
            .map(|_| {
                (0..topology.pcie_links_per_node)
                    .map(|_| SharedLink::new(PcieLink::gen1_x16().scaled(law)))
                    .collect()
            })
            .collect();
        let gpus = topology
            .ranks()
            .map(|rank| {
                let node = topology.node_of(rank) as usize;
                let link = topology.pcie_link_of(rank) as usize;
                Gpu::with_link(spec.clone(), links[node][link].clone())
            })
            .collect();
        // `links` handles stay alive inside the GPUs.
        links.clear();
        Cluster {
            topology,
            gpus,
            fabric: Fabric::scaled(topology, law),
        }
    }

    /// Install (or clear) a fault plan for jobs run on this cluster. The
    /// fabric keeps it (transfer faults) and the engine reads it from
    /// there (GPU kills, rank stalls).
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fabric.set_fault_plan(plan);
    }

    /// The active fault plan, if any: the fabric's.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fabric.fault_plan()
    }

    /// Number of ranks (GPUs).
    pub fn size(&self) -> u32 {
        self.topology.total_gpus
    }

    /// Borrow the GPU for `rank`.
    pub fn gpu(&mut self, rank: u32) -> &mut Gpu {
        &mut self.gpus[rank as usize]
    }

    /// Borrow the fabric.
    pub fn fabric(&mut self) -> &mut Fabric {
        &mut self.fabric
    }

    /// Attach `tel` to every device and the fabric. Track layout: GPU rank
    /// `r` draws on track `r` ("rank {r}"), and node `n`'s NIC draws on
    /// track `ranks + n` ("node {n} NIC"). Attaching a disabled handle
    /// detaches everything.
    pub fn attach_telemetry(&mut self, tel: &Telemetry) {
        let ranks = self.size();
        for r in 0..ranks {
            tel.set_track_name(r, &format!("rank {r}"));
            self.gpus[r as usize].attach_telemetry(tel, r);
        }
        for n in 0..self.topology.nodes {
            tel.set_track_name(ranks + n, &format!("node {n} NIC"));
        }
        self.fabric.attach_telemetry(tel, ranks);
    }

    /// Reset every timeline in the cluster (between jobs).
    pub fn reset_clocks(&mut self) {
        for g in &mut self.gpus {
            g.reset_clock();
        }
        self.fabric.reset();
    }

    /// Publish every device's memory high-water mark to its telemetry
    /// gauge (see [`Gpu::flush_telemetry`]). Called by the engine at job
    /// teardown; a no-op for uninstrumented clusters.
    pub fn flush_telemetry(&self) {
        for g in &self.gpus {
            g.flush_telemetry();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpmr_sim_gpu::SimTime;

    #[test]
    fn cluster_builds_all_ranks() {
        let mut c = Cluster::accelerator(8, GpuSpec::gt200());
        assert_eq!(c.size(), 8);
        assert_eq!(c.topology.nodes, 2);
        assert_eq!(c.gpu(7).spec.sm_count, 30);
    }

    #[test]
    fn accelerator_gpus_have_dedicated_links() {
        let mut c = Cluster::accelerator(4, GpuSpec::gt200());
        let r0 = c.gpu(0).h2d(SimTime::ZERO, 64 << 20);
        let r1 = c.gpu(1).h2d(SimTime::ZERO, 64 << 20);
        assert_eq!(r0.start, SimTime::ZERO);
        assert_eq!(r1.start, SimTime::ZERO);
    }

    #[test]
    fn paired_gpus_share_a_pcie_link_in_ablation_topology() {
        // The physical S1070 wiring: two GPUs per host link.
        let mut c = Cluster::new(Topology::new(1, 4, 2), GpuSpec::gt200());
        let r0 = c.gpu(0).h2d(SimTime::ZERO, 64 << 20);
        let r1 = c.gpu(1).h2d(SimTime::ZERO, 64 << 20);
        assert_eq!(r1.start, r0.end);
        // Rank 2 is on link 1: starts immediately.
        let r2 = c.gpu(2).h2d(SimTime::ZERO, 64 << 20);
        assert_eq!(r2.start, SimTime::ZERO);
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = Cluster::accelerator(4, GpuSpec::gt200());
        c.gpu(0).h2d(SimTime::ZERO, 1 << 20);
        c.fabric().send(0, 4 - 1, SimTime::ZERO, 1 << 20);
        c.reset_clocks();
        assert_eq!(c.gpu(0).compute_free_at(), SimTime::ZERO);
    }

    #[test]
    fn attach_telemetry_names_rank_and_nic_tracks() {
        let tel = Telemetry::enabled();
        let mut c = Cluster::accelerator(8, GpuSpec::gt200());
        c.attach_telemetry(&tel);
        c.gpu(2).h2d(SimTime::ZERO, 1 << 10);
        c.fabric().send(0, 4, SimTime::ZERO, 1 << 10);
        let snap = tel.snapshot();
        assert_eq!(snap.tracks[&0], "rank 0");
        assert_eq!(snap.tracks[&7], "rank 7");
        assert_eq!(snap.tracks[&8], "node 0 NIC");
        assert_eq!(snap.tracks[&9], "node 1 NIC");
        assert_eq!(snap.metrics.counter("gpu.rank2.h2d_bytes"), 1 << 10);
        assert_eq!(snap.metrics.counter("fabric.sends"), 1);
        assert_eq!(snap.spans_of("NetSend").count(), 1);
    }
}
