//! Cluster shape: nodes, GPUs per node, and PCI-e link sharing.
//!
//! The paper's testbed is the NCSA *Accelerator* cluster: 32 nodes, each
//! with an NVIDIA Tesla S1070 (4 GPUs) attached over generation-1 PCI-e,
//! QDR InfiniBand between nodes, experiments on up to 64 GPUs. One MPI
//! process drives each GPU; process *ranks* are numbered GPU-major within
//! nodes (`rank = node * gpus_per_node + local`). On an S1070, pairs of
//! GPUs share one host PCI-e connection — the topology records that too.

/// Shape of a GPU cluster.
///
/// ```
/// use gpmr_sim_net::Topology;
///
/// // A 10-GPU run on the paper's 4-GPUs-per-node cluster.
/// let t = Topology::accelerator(10);
/// assert_eq!(t.nodes, 3);
/// assert_eq!(t.node_of(9), 2);
/// assert!(t.same_node(4, 7));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Topology {
    /// Number of nodes used.
    pub nodes: u32,
    /// GPUs per fully-populated node.
    pub gpus_per_node: u32,
    /// GPUs actually used (ranks); the last node may be partially used.
    pub total_gpus: u32,
    /// Host PCI-e links per node; GPUs on a node share them round-robin in
    /// pairs (S1070: 4 GPUs over 2 links).
    pub pcie_links_per_node: u32,
}

impl Topology {
    /// The paper's cluster shape for a run using `gpus` GPUs: nodes of 4
    /// GPUs, filled greedily (so 6 GPUs = one full node plus a half-used
    /// one — the imbalance the paper blames for the LR efficiency dip).
    ///
    /// Calibration note: each GPU gets its own host PCI-e link. The
    /// physical S1070 pairs two GPUs per host connection, but strict
    /// pairing caps every PCI-e-streaming workload at 50 % single-node
    /// efficiency, contradicting the paper's measured 4-GPU results; the
    /// effective per-GPU bandwidth of the testbed is better modelled by
    /// dedicated links. Use [`Topology::new`] with 2 links for the
    /// link-sharing ablation.
    pub fn accelerator(gpus: u32) -> Self {
        let gpus = gpus.max(1);
        Topology {
            nodes: gpus.div_ceil(4),
            gpus_per_node: 4,
            total_gpus: gpus,
            pcie_links_per_node: 4,
        }
    }

    /// A custom shape.
    pub fn new(nodes: u32, gpus_per_node: u32, pcie_links_per_node: u32) -> Self {
        Topology {
            nodes: nodes.max(1),
            gpus_per_node: gpus_per_node.max(1),
            total_gpus: nodes.max(1) * gpus_per_node.max(1),
            pcie_links_per_node: pcie_links_per_node.max(1),
        }
    }

    /// The node hosting `rank`.
    pub fn node_of(&self, rank: u32) -> u32 {
        rank / self.gpus_per_node
    }

    /// The GPU slot of `rank` within its node.
    pub fn local_of(&self, rank: u32) -> u32 {
        rank % self.gpus_per_node
    }

    /// The host PCI-e link index (within the node) used by `rank`.
    pub fn pcie_link_of(&self, rank: u32) -> u32 {
        let per_link = self.gpus_per_node.div_ceil(self.pcie_links_per_node);
        self.local_of(rank) / per_link.max(1)
    }

    /// True if two ranks live on the same node (messages between them skip
    /// the network).
    pub fn same_node(&self, a: u32, b: u32) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// Iterate over all ranks.
    pub fn ranks(&self) -> impl Iterator<Item = u32> {
        0..self.total_gpus
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accelerator_fills_nodes_greedily() {
        let t = Topology::accelerator(64);
        assert_eq!(t.nodes, 16);
        assert_eq!(t.total_gpus, 64);

        let t = Topology::accelerator(6);
        assert_eq!(t.nodes, 2);
        assert_eq!(t.node_of(5), 1);
        assert_eq!(t.local_of(5), 1);
    }

    #[test]
    fn accelerator_gives_each_gpu_its_own_link() {
        let t = Topology::accelerator(8);
        assert_eq!(t.pcie_link_of(0), 0);
        assert_eq!(t.pcie_link_of(1), 1);
        assert_eq!(t.pcie_link_of(3), 3);
        assert_eq!(t.pcie_link_of(4), 0); // next node
    }

    #[test]
    fn paired_links_for_the_sharing_ablation() {
        // The physical S1070 wiring: 4 GPUs over 2 host links.
        let t = Topology::new(2, 4, 2);
        assert_eq!(t.pcie_link_of(0), 0);
        assert_eq!(t.pcie_link_of(1), 0);
        assert_eq!(t.pcie_link_of(2), 1);
        assert_eq!(t.pcie_link_of(3), 1);
    }

    #[test]
    fn same_node_detection() {
        let t = Topology::accelerator(8);
        assert!(t.same_node(0, 3));
        assert!(!t.same_node(3, 4));
        assert_eq!(t.ranks().count(), 8);
    }

    #[test]
    fn single_gpu_cluster() {
        let t = Topology::accelerator(1);
        assert_eq!(t.nodes, 1);
        assert_eq!(t.total_gpus, 1);
    }
}
