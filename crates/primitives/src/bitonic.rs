//! Comparator-network (bitonic) sort.
//!
//! GPMR falls back to a custom comparator sort when keys are not
//! integer-based (paper §4.2: "when possible we used radix sort from
//! CUDPP, and when not, we implemented our own"). The Mars baseline also
//! uses bitonic sort — one of its structural handicaps, since bitonic is
//! O(n log² n) in compare-exchanges while radix is O(n) per digit.
//!
//! The produced ordering is exact (host merge sort, stable); the *cost*
//! charged to the device is that of the padded bitonic network.

use std::cmp::Ordering;

use gpmr_sim_gpu::{Gpu, KernelCost, SimGpuResult, SimTime};

/// Sort key-value pairs by key with `cmp`, charging the cost of a bitonic
/// network over the pairs run on the device. Stable. Returns the sorted
/// keys and values and the completion time.
pub fn bitonic_sort_pairs_by<K, V, F>(
    gpu: &mut Gpu,
    at: SimTime,
    keys: &[K],
    vals: &[V],
    cmp: F,
) -> SimGpuResult<(Vec<K>, Vec<V>, SimTime)>
where
    K: Copy + Send + Sync + 'static,
    V: Copy + Send + Sync + 'static,
    F: Fn(&K, &K) -> Ordering,
{
    assert_eq!(keys.len(), vals.len());
    if keys.len() <= 1 {
        return Ok((keys.to_vec(), vals.to_vec(), at));
    }
    let n_pow2 = keys.len().next_power_of_two() as u64;
    let stages = n_pow2.trailing_zeros() as u64;
    // A bitonic network performs (n/2) * stages*(stages+1)/2
    // compare-exchange operations, each reading and writing two elements.
    // Bitonic access patterns are stride-regular, so the traffic is
    // charged coalesced — the algorithm's cost is its O(n log^2 n) volume,
    // not scatter.
    let ce = (n_pow2 / 2) * stages * (stages + 1) / 2;
    let elem = std::mem::size_of::<(K, V)>() as u64;
    let cost = KernelCost {
        flops: 3 * ce,
        bytes_coalesced: 4 * ce * elem,
        ..KernelCost::ZERO
    };
    // One kernel per stage-step in reality; fold the launch overheads in.
    let launches = stages * (stages + 1) / 2;
    let mut padded_cost = cost;
    padded_cost.flops += launches; // negligible, keeps cost non-trivial
    let res = gpu.charge_compute(at, &padded_cost, 1.0);

    let mut pairs: Vec<(K, V)> = keys.iter().copied().zip(vals.iter().copied()).collect();
    pairs.sort_by(|a, b| cmp(&a.0, &b.0));
    let (ks, vs) = pairs.into_iter().unzip();
    Ok((ks, vs, res.end))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radix::sort_pairs;
    use gpmr_sim_gpu::GpuSpec;

    fn gpu() -> Gpu {
        Gpu::new(GpuSpec::gt200())
    }

    #[test]
    fn sorts_correctly() {
        let mut g = gpu();
        let data: Vec<u32> = (0..10_000u32).map(|i| i.wrapping_mul(2654435761)).collect();
        let (sorted, _, end) =
            bitonic_sort_pairs_by(&mut g, SimTime::ZERO, &data, &data, |a, b| a.cmp(b)).unwrap();
        let mut expect = data.clone();
        expect.sort_unstable();
        assert_eq!(sorted, expect);
        assert!(end > SimTime::ZERO);
    }

    #[test]
    fn bitonic_costs_more_than_radix_at_scale() {
        let data: Vec<u32> = (0..200_000u32).map(|i| i.wrapping_mul(40503)).collect();
        let mut g1 = gpu();
        let (_, _, t_bitonic) =
            bitonic_sort_pairs_by(&mut g1, SimTime::ZERO, &data, &data, |a, b| a.cmp(b)).unwrap();
        let mut g2 = gpu();
        let (_, _, t_radix) = sort_pairs(&mut g2, SimTime::ZERO, &data, &data).unwrap();
        assert!(
            t_bitonic.as_secs() > t_radix.as_secs(),
            "bitonic {t_bitonic} should exceed radix {t_radix}"
        );
    }

    #[test]
    fn pairs_stay_attached() {
        let mut g = gpu();
        let keys = vec![5u32, 1, 9, 1, 3];
        let vals = vec![50u32, 10, 90, 11, 30];
        let (sk, sv, _) =
            bitonic_sort_pairs_by(&mut g, SimTime::ZERO, &keys, &vals, |a, b| a.cmp(b)).unwrap();
        assert_eq!(sk, vec![1, 1, 3, 5, 9]);
        assert_eq!(sv, vec![10, 11, 30, 50, 90]); // stable
    }

    #[test]
    fn trivial_inputs_are_free() {
        let mut g = gpu();
        let (out, _, t) =
            bitonic_sort_pairs_by::<u32, u32, _>(&mut g, SimTime::ZERO, &[], &[], |a, b| a.cmp(b))
                .unwrap();
        assert!(out.is_empty());
        assert_eq!(t, SimTime::ZERO);
        let (one, _, t) =
            bitonic_sort_pairs_by(&mut g, SimTime::ZERO, &[3u8], &[()], |a, b| a.cmp(b)).unwrap();
        assert_eq!(one, vec![3]);
        assert_eq!(t, SimTime::ZERO);
    }
}
