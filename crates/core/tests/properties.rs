//! Property-based tests for the GPMR core: chunking, routing, and
//! pipeline-equivalence invariants on arbitrary inputs.

use std::collections::BTreeMap;

use gpmr_core::helpers::{combine_pairs, split_buckets};
use gpmr_core::{Chunk, KvSet, SliceChunk, WorkQueues};
use gpmr_sim_gpu::{Gpu, GpuSpec, SimTime};
use proptest::prelude::*;

/// CPU-reference grouping: the sum of each key's values, in key order.
fn reference_combine(pairs: &[(u32, u64)]) -> Vec<(u32, u64)> {
    let mut sums = BTreeMap::new();
    for &(k, v) in pairs {
        *sums.entry(k).or_insert(0) += v;
    }
    sums.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn chunk_split_covers_input(
        items in prop::collection::vec(any::<u16>(), 0..3000),
        chunk_items in 1usize..500,
    ) {
        let chunks = SliceChunk::split(&items, chunk_items);
        let total: usize = chunks.iter().map(|c| c.item_count()).sum();
        prop_assert_eq!(total, items.len());
        let mut rebuilt = Vec::new();
        for c in &chunks {
            prop_assert_eq!(c.global_offset as usize, rebuilt.len());
            rebuilt.extend_from_slice(&c.items);
        }
        prop_assert_eq!(rebuilt, items);
    }

    #[test]
    fn split_buckets_is_a_partition(
        pairs in prop::collection::vec((any::<u32>(), any::<u32>()), 0..2000),
        ranks in 1u32..32,
    ) {
        let set: KvSet<u32, u32> = pairs.iter().copied().collect();
        let buckets = split_buckets(set, ranks, |k| k % ranks);
        prop_assert_eq!(buckets.len(), ranks as usize);
        let total: usize = buckets.iter().map(KvSet::len).sum();
        prop_assert_eq!(total, pairs.len());
        for (r, b) in buckets.iter().enumerate() {
            prop_assert!(b.keys.iter().all(|k| k % ranks == r as u32));
        }
        // Every pair survives routing (multiset equality via sorting).
        let mut flat: Vec<(u32, u32)> = buckets
            .iter()
            .flat_map(|b| b.iter().map(|(k, v)| (*k, *v)))
            .collect();
        let mut orig = pairs.clone();
        flat.sort_unstable();
        orig.sort_unstable();
        prop_assert_eq!(flat, orig);
    }

    #[test]
    fn combine_pairs_matches_reference(
        pairs in prop::collection::vec((0u32..100, 0u64..1000), 0..1500),
    ) {
        let set: KvSet<u32, u64> = pairs.iter().copied().collect();
        let expect = reference_combine(&pairs);
        let mut gpu = Gpu::new(GpuSpec::gt200());
        let (combined, _) = combine_pairs(&mut gpu, SimTime::ZERO, set, |a, b| a + b).unwrap();
        let mut got: Vec<(u32, u64)> = combined.iter().map(|(k, v)| (*k, *v)).collect();
        got.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn work_queues_conserve_chunks(
        n_chunks in 0usize..200,
        ranks in 1u32..16,
        steals in 0usize..50,
    ) {
        let mut q = WorkQueues::distribute((0..n_chunks).collect(), ranks);
        let mut taken = Vec::new();
        // Interleave pops and steals arbitrarily.
        for i in 0..steals {
            let rank = (i as u32) % ranks;
            if let Some(c) = q.pop_local(rank) {
                taken.push(c);
            } else if let Some(victim) = q.steal_victim(rank) {
                taken.push(q.steal_from(victim).unwrap());
            }
        }
        // Drain everything left.
        for r in 0..ranks {
            while let Some(c) = q.pop_local(r) {
                taken.push(c);
            }
        }
        taken.sort_unstable();
        prop_assert_eq!(taken, (0..n_chunks).collect::<Vec<_>>());
    }
}

// Range-partitioner properties: splitter shape, routing totality, and
// the balanced-partition load guarantee (including under Zipf skew).
mod range_partitioning {
    use gpmr_core::derive_splitters;
    use proptest::prelude::*;

    /// The band `PartitionMode::Range` routes key radix `k` to: the count
    /// of splitters at or below it (the engine's routing rule).
    fn band(splitters: &[u64], k: u64) -> u32 {
        splitters.partition_point(|&s| s <= k) as u32
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Splitters are strictly ascending, within budget, and route
        /// every possible key (sampled or not) to a real reducer.
        #[test]
        fn splitters_monotone_and_routing_total(
            samples in prop::collection::vec(any::<u64>(), 0..3000),
            reducers in 1u32..32,
            probes in prop::collection::vec(any::<u64>(), 0..200),
        ) {
            let splitters = derive_splitters(&samples, reducers);
            prop_assert!(splitters.len() < reducers.max(1) as usize);
            prop_assert!(splitters.windows(2).all(|w| w[0] < w[1]));
            for k in samples.iter().chain(probes.iter()) {
                prop_assert!(band(&splitters, *k) < reducers.max(1));
            }
            // Routing is monotone in the key: bands partition the key
            // space into ascending contiguous ranges.
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            let bands: Vec<u32> = sorted
                .iter()
                .map(|k| band(&splitters, *k))
                .collect();
            prop_assert!(bands.windows(2).all(|w| w[0] <= w[1]));
        }

        /// The balanced-partition guarantee: no band carries more than
        /// a fair share plus one unsplittable run of sample mass.
        #[test]
        fn band_load_bounded_by_fair_share_plus_heaviest_key(
            samples in prop::collection::vec(0u64..500, 1..4000),
            reducers in 2u32..16,
        ) {
            let splitters = derive_splitters(&samples, reducers);
            let mut loads = vec![0usize; reducers as usize];
            let mut runs = std::collections::HashMap::new();
            for &k in &samples {
                loads[band(&splitters, k) as usize] += 1;
                *runs.entry(k).or_insert(0usize) += 1;
            }
            let max_run = runs.values().copied().max().unwrap_or(0);
            let fair = samples.len().div_ceil(reducers as usize);
            let bound = fair + max_run;
            for (b, &load) in loads.iter().enumerate() {
                prop_assert!(
                    load <= bound,
                    "band {b} carries {load} > fair {fair} + heaviest run {max_run}"
                );
            }
        }

        /// The acceptance-criteria regime: Zipf-distributed key mass over
        /// a permuted key space, 8 reducers — the sampled range partition
        /// keeps max/mean reducer load at or under 1.5.
        #[test]
        fn zipf_skew_ratio_bounded(
            s in 0.8f64..1.05,
            space in 512usize..2048,
            perm_seed in any::<u32>(),
        ) {
            const REDUCERS: u32 = 8;
            const TOTAL: usize = 20_000;
            // Zipf(s) mass over `space` ranks, each rank mapped to a
            // pseudo-random distinct key (multiplicative bijection on
            // u32), so heavy keys land anywhere in the key space.
            let h: f64 = (1..=space).map(|k| 1.0 / (k as f64).powf(s)).sum();
            let mut samples = Vec::with_capacity(TOTAL);
            for rank in 0..space {
                let p = 1.0 / ((rank + 1) as f64).powf(s) / h;
                let count = (p * TOTAL as f64).round() as usize;
                let key = (rank as u32)
                    .wrapping_mul(2_654_435_761)
                    .wrapping_add(perm_seed);
                samples.extend(std::iter::repeat_n(u64::from(key), count));
            }
            let splitters = derive_splitters(&samples, REDUCERS);
            let mut loads = vec![0u64; REDUCERS as usize];
            for &k in &samples {
                loads[band(&splitters, k) as usize] += 1;
            }
            let max = *loads.iter().max().unwrap() as f64;
            let mean = samples.len() as f64 / f64::from(REDUCERS);
            prop_assert!(
                max / mean <= 1.5,
                "zipf(s={s:.3}, space={space}) ratio {:.3} (loads {loads:?})",
                max / mean
            );
        }
    }
}
