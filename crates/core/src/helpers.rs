//! Engine-internal GPU helpers shared by pipeline stages.

use std::collections::HashMap;
use std::ops::Range;

use gpmr_primitives::{extract_segments, sort_pairs, RadixKey};
use gpmr_sim_gpu::{Gpu, KernelCost, LaunchConfig, SimGpuResult, SimTime};

use crate::types::{Key, KvSet, Value};

/// Charge the Partition kernel: read every pair, compute its bucket, and
/// write it into the per-reducer contiguous layout (one scan-and-scatter
/// pass; writes are mostly coalesced after the scan).
pub fn charge_partition<K: Key, V: Value>(gpu: &mut Gpu, at: SimTime, pairs: usize) -> SimTime {
    if pairs == 0 {
        return at;
    }
    let pair_bytes = (std::mem::size_of::<K>() + std::mem::size_of::<V>()) as u64;
    let cost = KernelCost {
        flops: 3 * pairs as u64,
        bytes_coalesced: 2 * pairs as u64 * pair_bytes,
        ..KernelCost::ZERO
    };
    gpu.charge_compute(at, &cost, 1.0).end
}

/// Split pairs into per-destination buckets with `route`. Buckets for
/// every rank are returned (possibly empty), in rank order.
pub fn split_buckets<K: Key + RadixKey, V: Value>(
    pairs: KvSet<K, V>,
    ranks: u32,
    route: impl Fn(&K) -> u32,
) -> Vec<KvSet<K, V>> {
    split_buckets_bounded(pairs, ranks, route)
        .into_iter()
        .map(|(bucket, _)| bucket)
        .collect()
}

/// [`split_buckets`], additionally returning each bucket's maximum key
/// radix (0 for an empty bucket). The partition pass reads every key to
/// route it, so the bound is free — receivers use it to size their radix
/// sorts without paying a max-radix reduction.
pub fn split_buckets_bounded<K: Key + RadixKey, V: Value>(
    pairs: KvSet<K, V>,
    ranks: u32,
    route: impl Fn(&K) -> u32,
) -> Vec<(KvSet<K, V>, u64)> {
    let mut buckets: Vec<KvSet<K, V>> = (0..ranks).map(|_| KvSet::new()).collect();
    let routed = route_into(&pairs, route, &mut buckets, &mut RouteScratch::default());
    buckets
        .into_iter()
        .zip(routed)
        .map(|(bucket, (_, bound))| (bucket, bound))
        .collect()
}

/// The per-pair destinations of one [`route_into`] call, kept by the
/// caller so the next call reuses the buffer. Destinations are stored as
/// narrow as the sink count allows.
#[derive(Default)]
pub(crate) struct RouteScratch {
    narrow: Vec<u8>,
    wide: Vec<u32>,
}

/// The routing kernel: append every pair to the tail of sink
/// `route(key)` (clamped to the last sink), keeping the pairs' order
/// inside each sink. Returns, per sink, the index range the call appended
/// and the largest key radix in it (0 for an empty range).
pub(crate) fn route_into<K: Key + RadixKey, V: Value>(
    pairs: &KvSet<K, V>,
    route: impl Fn(&K) -> u32,
    sinks: &mut [KvSet<K, V>],
    scratch: &mut RouteScratch,
) -> Vec<(Range<usize>, u64)> {
    if sinks.len() <= usize::from(u8::MAX) + 1 {
        // Every clamped destination is below 256, so the cast is exact.
        scatter(pairs, route, sinks, &mut scratch.narrow, |d| d as u8)
    } else {
        scatter(pairs, route, sinks, &mut scratch.wide, |d| d)
    }
}

fn scatter<K: Key + RadixKey, V: Value, D: Copy + Into<u32>>(
    pairs: &KvSet<K, V>,
    route: impl Fn(&K) -> u32,
    sinks: &mut [KvSet<K, V>],
    dests: &mut Vec<D>,
    narrow: impl Fn(u32) -> D,
) -> Vec<(Range<usize>, u64)> {
    // Counting pre-pass: route every key once to size each sink's tail
    // exactly, so the fill loop never reallocates.
    let last = sinks.len() as u32 - 1;
    let mut counts = vec![0usize; sinks.len()];
    let mut bounds = vec![0u64; sinks.len()];
    dests.clear();
    dests.reserve(pairs.len());
    for k in &pairs.keys {
        let dest = route(k).min(last);
        counts[dest as usize] += 1;
        bounds[dest as usize] = bounds[dest as usize].max(k.radix());
        dests.push(narrow(dest));
    }
    let routed = sinks
        .iter_mut()
        .zip(counts)
        .zip(bounds)
        .map(|((sink, count), bound)| {
            sink.reserve(count);
            (sink.len()..sink.len() + count, bound)
        })
        .collect();
    for ((k, v), &dest) in pairs.iter().zip(dests.iter()) {
        sinks[dest.into() as usize].push(*k, *v);
    }
    routed
}

/// The generic Combine: group like-keyed pairs and fold each group with
/// `op`, on the GPU (sort + segment + segmented fold — the storage
/// strategy the paper describes for streaming CPU-stored pairs back down
/// to the device).
pub fn combine_pairs<K, V, F>(
    gpu: &mut Gpu,
    at: SimTime,
    pairs: KvSet<K, V>,
    op: F,
) -> SimGpuResult<(KvSet<K, V>, SimTime)>
where
    K: Key + RadixKey,
    V: Value,
    F: Fn(V, V) -> V + Sync,
{
    if pairs.is_empty() {
        return Ok((pairs, at));
    }
    let (skeys, svals, t1) = sort_pairs(gpu, at, &pairs.keys, &pairs.vals)?;
    let (segs, t2) = extract_segments(gpu, t1, &skeys)?;

    // Segmented fold: one thread per segment (paper SIO-style reducer).
    let cfg = LaunchConfig::for_items(segs.len(), 1024, 256);
    let (folded, res) = gpu.launch(t2, &cfg, |ctx| {
        let range = ctx.item_range(segs.len());
        let mut out: KvSet<K, V> = KvSet::with_capacity(range.len());
        for s in range {
            let vr = segs.range(s);
            ctx.charge_read_uncoalesced::<V>(vr.len());
            ctx.charge_flops(vr.len() as u64);
            let mut acc = svals[vr.start];
            for &v in &svals[vr.start + 1..vr.end] {
                acc = op(acc, v);
            }
            out.push(segs.keys[s], acc);
        }
        ctx.charge_write::<K>(out.len());
        ctx.charge_write::<V>(out.len());
        out
    })?;

    let mut out = KvSet::with_capacity(segs.len());
    for part in folded.outputs {
        out.append(part);
    }
    Ok((out, res.end))
}

/// CPU-reference grouping for tests: fold like-keyed values with `op`,
/// returning pairs sorted by key radix.
pub fn reference_combine<K, V, F>(pairs: &KvSet<K, V>, op: F) -> Vec<(K, V)>
where
    K: Key + RadixKey,
    V: Value,
    F: Fn(V, V) -> V,
{
    let mut map: HashMap<u64, (K, V)> = HashMap::new();
    for (k, v) in pairs.iter() {
        map.entry(k.radix())
            .and_modify(|e| e.1 = op(e.1, *v))
            .or_insert((*k, *v));
    }
    let mut out: Vec<(K, V)> = map.into_values().collect();
    out.sort_by_key(|(k, _)| k.radix());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpmr_sim_gpu::GpuSpec;

    fn gpu() -> Gpu {
        Gpu::new(GpuSpec::gt200())
    }

    #[test]
    fn partition_charge_advances_time() {
        let mut g = gpu();
        let t = charge_partition::<u32, u32>(&mut g, SimTime::ZERO, 1 << 20);
        assert!(t > SimTime::ZERO);
        assert_eq!(charge_partition::<u32, u32>(&mut g, t, 0), t);
    }

    #[test]
    fn split_buckets_routes_and_preserves_pairs() {
        let pairs: KvSet<u32, u32> = (0..100u32).map(|i| (i, i * 2)).collect();
        let buckets = split_buckets(pairs, 4, |k| k % 4);
        assert_eq!(buckets.len(), 4);
        for (r, b) in buckets.iter().enumerate() {
            assert_eq!(b.len(), 25);
            assert!(b.keys.iter().all(|k| k % 4 == r as u32));
            assert!(b.iter().all(|(k, v)| *v == k * 2));
        }
    }

    #[test]
    fn split_buckets_clamps_bad_routes() {
        let pairs: KvSet<u32, u32> = [(7u32, 1u32)].into_iter().collect();
        let buckets = split_buckets(pairs, 2, |_| 99);
        assert_eq!(buckets[1].len(), 1);
    }

    #[test]
    fn destinations_past_a_byte_are_not_truncated() {
        // Destinations are kept one byte each up to 256 sinks and wider
        // beyond; a truncated 300 would land in bucket 44.
        for ranks in [255u32, 256, 257, 300, 70_000] {
            let pairs: KvSet<u32, u32> = (0..3 * ranks).map(|i| (i, !i)).collect();
            let buckets = split_buckets_bounded(pairs, ranks, |k| k % ranks);
            assert_eq!(buckets.len(), ranks as usize);
            for (r, (b, bound)) in buckets.iter().enumerate() {
                let r = r as u32;
                assert_eq!(b.keys, [r, r + ranks, r + 2 * ranks], "{ranks} ranks");
                assert!(b.iter().all(|(k, v)| *v == !*k));
                assert_eq!(*bound, u64::from(r + 2 * ranks));
            }
        }
    }

    #[test]
    fn route_into_appends_and_reuses_its_scratch() {
        let mut sinks: Vec<KvSet<u32, u32>> = vec![KvSet::new(); 3];
        let mut scratch = RouteScratch::default();
        let first: KvSet<u32, u32> = (0..9u32).map(|i| (i, 10 * i)).collect();
        let second: KvSet<u32, u32> = [(7u32, 1u32), (4, 2)].into_iter().collect();
        let a = route_into(&first, |k| k % 3, &mut sinks, &mut scratch);
        let b = route_into(&second, |k| k % 3, &mut sinks, &mut scratch);
        assert_eq!(a, [(0..3, 6), (0..3, 7), (0..3, 8)]);
        assert_eq!(b, [(3..3, 0), (3..5, 7), (3..3, 0)]);
        assert_eq!(sinks[1].keys, [1, 4, 7, 7, 4]);
        assert_eq!(sinks[1].vals, [10, 40, 70, 1, 2]);
    }

    #[test]
    fn combine_pairs_matches_reference() {
        let mut g = gpu();
        let pairs: KvSet<u32, u64> = (0..10_000u32).map(|i| (i % 37, 1u64)).collect();
        let expect = reference_combine(&pairs, |a, b| a + b);
        let (combined, t) = combine_pairs(&mut g, SimTime::ZERO, pairs, |a, b| a + b).unwrap();
        let mut got: Vec<(u32, u64)> = combined.iter().map(|(k, v)| (*k, *v)).collect();
        got.sort_by_key(|(k, _)| *k);
        assert_eq!(got, expect);
        assert!(t > SimTime::ZERO);
    }

    #[test]
    fn combine_pairs_empty_is_free() {
        let mut g = gpu();
        let (out, t) =
            combine_pairs(&mut g, SimTime::ZERO, KvSet::<u32, u32>::new(), |a, _| a).unwrap();
        assert!(out.is_empty());
        assert_eq!(t, SimTime::ZERO);
    }
}
