//! Collective communication patterns on top of the point-to-point fabric.
//!
//! GPMR itself only needs point-to-point Bin sends, but jobs composed
//! *around* GPMR do: iterative K-Means broadcasts updated centers to every
//! rank each iteration. [`broadcast`] times that pattern faithfully (a
//! binomial tree) without carrying payloads — callers pair it with their
//! own data movement.

use crate::fabric::Fabric;
use gpmr_sim_gpu::SimTime;

/// Binomial-tree broadcast of `bytes` from `root` to every rank, starting
/// no earlier than `at`. Returns the instant each rank has the data
/// (indexed by rank; the root's entry is `at`).
///
/// ```
/// use gpmr_sim_net::{broadcast, Fabric, Topology};
/// use gpmr_sim_gpu::{ScaleLaw, SimTime};
///
/// let mut fabric = Fabric::scaled(Topology::accelerator(8), ScaleLaw::uniform(1.0));
/// let ready = broadcast(&mut fabric, 0, SimTime::ZERO, 1 << 20);
/// assert_eq!(ready[0], SimTime::ZERO);
/// assert!(ready[7] > SimTime::ZERO);
/// ```
pub fn broadcast(fabric: &mut Fabric, root: u32, at: SimTime, bytes: u64) -> Vec<SimTime> {
    let ranks = fabric.topology().total_gpus;
    let mut ready: Vec<Option<SimTime>> = vec![None; ranks as usize];
    ready[root as usize] = Some(at);
    // Binomial tree on the rank index rotated so `root` is virtual rank 0.
    let rel = |r: u32| (r + ranks - root) % ranks;
    let unrel = |v: u32| (v + root) % ranks;
    let mut step = 1u32;
    while step < ranks {
        for v in 0..step.min(ranks) {
            let dst_v = v + step;
            if dst_v >= ranks {
                continue;
            }
            let src = unrel(v);
            let dst = unrel(dst_v);
            let src_ready = ready[src as usize].expect("source ready by construction");
            let arrival = fabric.send(src, dst, src_ready, bytes);
            ready[dst as usize] = Some(arrival);
        }
        step *= 2;
    }
    let _ = rel; // rel documents the virtual numbering
    ready
        .into_iter()
        .map(|t| t.expect("all ranks reached"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;
    use gpmr_sim_gpu::ScaleLaw;

    fn fabric(gpus: u32) -> Fabric {
        Fabric::scaled(Topology::accelerator(gpus), ScaleLaw::uniform(1.0))
    }

    #[test]
    fn broadcast_reaches_every_rank() {
        let mut f = fabric(16);
        let ready = broadcast(&mut f, 0, SimTime::ZERO, 1 << 20);
        assert_eq!(ready.len(), 16);
        assert_eq!(ready[0], SimTime::ZERO);
        for (r, t) in ready.iter().enumerate().skip(1) {
            assert!(t.as_secs() > 0.0, "rank {r} never received");
        }
    }

    #[test]
    fn tree_broadcast_beats_naive_fan_out() {
        // Tree: O(log n) serialized sends from the root. Naive: root sends
        // n-1 times back-to-back.
        let bytes = 8 << 20;
        let mut f1 = fabric(16);
        let tree_done = broadcast(&mut f1, 0, SimTime::ZERO, bytes)
            .into_iter()
            .fold(SimTime::ZERO, SimTime::max);
        let mut f2 = fabric(16);
        let mut naive_done = SimTime::ZERO;
        for dst in 1..16 {
            naive_done = naive_done.max(f2.send(0, dst, SimTime::ZERO, bytes));
        }
        assert!(
            tree_done < naive_done,
            "tree {tree_done} should beat naive {naive_done}"
        );
    }

    #[test]
    fn broadcast_from_nonzero_root() {
        let mut f = fabric(8);
        let ready = broadcast(&mut f, 5, SimTime::from_secs(1.0), 1024);
        assert_eq!(ready[5], SimTime::from_secs(1.0));
        assert!(ready.iter().all(|t| t.as_secs() >= 1.0));
    }

    #[test]
    fn broadcast_single_rank_is_immediate() {
        let mut f = fabric(1);
        let ready = broadcast(&mut f, 0, SimTime::ZERO, 1 << 30);
        assert_eq!(ready, vec![SimTime::ZERO]);
    }

    /// Pairwise exchange: in round `r`, rank `i` sends `bytes` to rank
    /// `(i + r) % ranks`, every send requested at zero. Returns, per rank,
    /// the instant it has received from everyone.
    fn all_to_all(f: &mut Fabric, bytes: u64) -> Vec<SimTime> {
        let ranks = f.topology().total_gpus;
        let mut done = vec![SimTime::ZERO; ranks as usize];
        for round in 1..ranks {
            for src in 0..ranks {
                let dst = (src + round) % ranks;
                let arrival = f.send(src, dst, SimTime::ZERO, bytes);
                done[dst as usize] = done[dst as usize].max(arrival);
            }
        }
        done
    }

    #[test]
    fn all_to_all_completes_everywhere() {
        let mut f = fabric(8);
        let done = all_to_all(&mut f, 1 << 20);
        assert_eq!(done.len(), 8);
        assert!(done.iter().all(|t| t.as_secs() > 0.0));
        // The exchange crossed nodes: a cross-node send queued behind it
        // lands later than the same send on an idle fabric.
        let queued = f.send(0, 4, SimTime::ZERO, 1 << 20);
        let idle = fabric(8).send(0, 4, SimTime::ZERO, 1 << 20);
        assert!(queued > idle, "queued {queued} idle {idle}");
    }

    #[test]
    fn all_to_all_scales_with_message_size() {
        let small = all_to_all(&mut fabric(8), 1 << 16)
            .into_iter()
            .fold(SimTime::ZERO, SimTime::max);
        let large = all_to_all(&mut fabric(8), 1 << 24)
            .into_iter()
            .fold(SimTime::ZERO, SimTime::max);
        assert!(large.as_secs() > small.as_secs() * 10.0);
    }
}
