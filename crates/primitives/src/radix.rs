//! GPU radix sort, after Satish/Harris/Garland — the CUDPP sort GPMR uses
//! as its default Sorter for integer-based keys.
//!
//! Least-significant-digit counting sort over 11-bit digits, so 32-bit
//! keys take 3 passes instead of 4 — the wide-digit trick from the Xeon
//! Phi MapReduce work. Each pass runs two kernels (per-block digit
//! histograms, then a stable scatter) plus a digit-major scan of the
//! histogram matrix; the final pass instead runs as one fused
//! histogram+scatter kernel that keeps its histogram in shared memory and
//! skips the separate global-memory histogram read and scan launch. The
//! scatter's writes are inherently uncoalesced and are charged as such —
//! this is why Sort is a visible slice of the paper's Figure 2 runtime
//! breakdown.

use std::ops::Range;

use gpmr_sim_gpu::{occupancy, Gpu, KernelCost, LaunchConfig, SimGpuResult, SimTime};

use crate::elem::RadixKey;

/// Items processed per sort block.
pub const SORT_ITEMS_PER_BLOCK: usize = 4096;

/// Bits per simulated counting-sort pass: 32-bit keys take 3 passes
/// instead of 8-bit digits' 4, and the pass's shared-memory histogram is
/// `4 << SORT_DIGIT_BITS` bytes (8 KiB).
const SORT_DIGIT_BITS: u32 = 11;

/// The host buffers a sort works in, kept by the caller so that
/// consecutive sorts (one per reducer rank, say) reuse them instead of
/// mapping and faulting in fresh ones: one packed pair buffer, which the
/// sort ping-pongs with the pairs' own slices, and the digit counters.
pub struct SortScratch<K, V> {
    packed: Vec<(K, V)>,
    hist: Vec<usize>,
    next: Vec<usize>,
}

impl<K, V> Default for SortScratch<K, V> {
    fn default() -> Self {
        SortScratch::with_capacity(0)
    }
}

impl<K, V> SortScratch<K, V> {
    /// A scratch whose packed buffer holds `pairs` pairs, so no sort of
    /// up to that many pairs grows it.
    pub fn with_capacity(pairs: usize) -> Self {
        SortScratch {
            packed: Vec::with_capacity(pairs),
            hist: Vec::new(),
            next: Vec::new(),
        }
    }
}

/// Sort `keys` ascending, carrying `vals` along, auto-detecting the number
/// of significant key bits (one reduction pass, like CUDPP's bit-range
/// optimization). Stable. Returns sorted keys, reordered values, and the
/// completion time.
///
/// ```
/// use gpmr_primitives::sort_pairs;
/// use gpmr_sim_gpu::{Gpu, GpuSpec, SimTime};
///
/// let mut gpu = Gpu::new(GpuSpec::gt200());
/// let keys = vec![9u32, 1, 5, 1];
/// let vals = vec![90u32, 10, 50, 11];
/// let (k, v, t) = sort_pairs(&mut gpu, SimTime::ZERO, &keys, &vals).unwrap();
/// assert_eq!(k, vec![1, 1, 5, 9]);
/// assert_eq!(v, vec![10, 11, 50, 90]); // stable
/// assert!(t > SimTime::ZERO); // the sort cost simulated device time
/// ```
pub fn sort_pairs<K, V>(
    gpu: &mut Gpu,
    at: SimTime,
    keys: &[K],
    vals: &[V],
) -> SimGpuResult<(Vec<K>, Vec<V>, SimTime)>
where
    K: RadixKey,
    V: Copy,
{
    // Charge the max-reduction kernels that bound the number of passes;
    // the host finds the real max in the pass-0 histogram sweep the sort
    // needs anyway — one read of the keys instead of two.
    let t = charge_max_radix(gpu, at, keys)?;
    sort_copy(gpu, t, keys, vals, None)
}

/// Significant bits needed to represent `max_radix` (at least 1).
pub fn bits_for_radix(max_radix: u64) -> u32 {
    if max_radix == 0 {
        1
    } else {
        64 - max_radix.leading_zeros()
    }
}

/// Sort with an explicit significant-bit count (use when the caller knows
/// the key range, e.g. a partitioner that already bounded keys). Skips the
/// max-radix reduction pass that [`sort_pairs`] pays.
pub fn sort_pairs_with_bits<K, V>(
    gpu: &mut Gpu,
    at: SimTime,
    keys: &[K],
    vals: &[V],
    significant_bits: u32,
) -> SimGpuResult<(Vec<K>, Vec<V>, SimTime)>
where
    K: RadixKey,
    V: Copy,
{
    sort_copy(gpu, at, keys, vals, Some(significant_bits))
}

/// The sort of a copy of the input: the two halves below, on one thread.
fn sort_copy<K: RadixKey, V: Copy>(
    gpu: &mut Gpu,
    at: SimTime,
    keys: &[K],
    vals: &[V],
    significant_bits: Option<u32>,
) -> SimGpuResult<(Vec<K>, Vec<V>, SimTime)> {
    assert_eq!(keys.len(), vals.len(), "{LENGTH_MISMATCH}");
    let (mut k, mut v) = (keys.to_vec(), vals.to_vec());
    let mut s = SortScratch::default();
    let bits = sort_within(
        &mut k,
        &mut v,
        std::slice::from_ref(&(0..keys.len())),
        significant_bits,
        &mut s,
    );
    let t = charge_sort::<K, V>(gpu, at, keys.len(), bits)?;
    Ok((k, v, t))
}

const LENGTH_MISMATCH: &str = "keys and values must have equal length";

/// The simulated half of a sort of `n` pairs of `K` and `V` over
/// `significant_bits`: charges exactly the plan's kernels (11-bit passes,
/// the last one fused) on `gpu` from `at`, touching no pair, and returns
/// their completion time. How the host reproduces the output is
/// [`sort_in_place`]'s business: a stable sort has one output, whatever
/// digits the host sweeps with, on whatever thread.
pub fn charge_sort<K: RadixKey, V>(
    gpu: &mut Gpu,
    at: SimTime,
    n: usize,
    significant_bits: u32,
) -> SimGpuResult<SimTime> {
    if n <= 1 {
        return Ok(at);
    }
    let digits = 1usize << SORT_DIGIT_BITS;
    let pair_bytes = std::mem::size_of::<K>() + std::mem::size_of::<V>();
    let launch_cfg = LaunchConfig::for_items(n, SORT_ITEMS_PER_BLOCK, 256)
        .with_shared_bytes((digits * 4) as u32);
    let blocks = n.div_ceil(SORT_ITEMS_PER_BLOCK);
    let sim_passes = significant_bits.clamp(1, K::BITS).div_ceil(SORT_DIGIT_BITS);
    let mut t = at;
    for pass in 0..sim_passes {
        t = if pass + 1 == sim_passes {
            // The last pass runs as one fused histogram+scatter kernel: its
            // histogram lives in shared memory, so the pass reads the pairs
            // from global memory once and skips the standalone scan launch.
            let cost = KernelCost {
                flops: 5 * n as u64 + (digits * blocks) as u64,
                bytes_coalesced: (n * pair_bytes) as u64,
                bytes_uncoalesced: (n * pair_bytes) as u64,
                ..KernelCost::ZERO
            };
            let occ = occupancy(&gpu.spec, &launch_cfg).fraction;
            gpu.charge_compute(t, &cost, occ).end
        } else {
            let (_, r1) = gpu.launch(t, &launch_cfg, |ctx| {
                let range = ctx.item_range(n);
                ctx.charge_read::<K>(range.len());
                ctx.charge_read::<V>(range.len());
                ctx.charge_flops(3 * range.len() as u64);
            })?;
            let scan_cost = KernelCost {
                flops: (digits * blocks) as u64,
                bytes_coalesced: (2 * digits * blocks * 4) as u64,
                ..KernelCost::ZERO
            };
            let r2 = gpu.charge_compute(r1.end, &scan_cost, 1.0);
            let scatter_cost = KernelCost {
                flops: 2 * n as u64,
                bytes_coalesced: (n * pair_bytes) as u64,
                bytes_uncoalesced: (n * pair_bytes) as u64,
                ..KernelCost::ZERO
            };
            gpu.charge_compute(r2.end, &scatter_cost, 1.0).end
        };
    }
    Ok(t)
}

/// The host half of a sort: takes no device and charges nothing (pair it
/// with [`charge_sort`]). `keys`/`vals` is an arena that `ranges` tile —
/// every pair lies in exactly one range — and the sort leaves in it,
/// stably sorted by key, the concatenation of the ranges in list order
/// (so the order of the ranges, not of the arena, breaks ties). Pass 0
/// reads the ranges where they lie into the scratch's packed buffer, the
/// passes then alternate between that buffer and the arena, and an odd
/// pass count ends with one copy back: no second arena exists.
///
/// ```
/// use gpmr_primitives::{sort_in_place, SortScratch};
///
/// let (mut keys, mut vals) = (vec![7u32, 3, 9, 3], vec![0u8, 1, 2, 3]);
/// // The second piece of the arena arrived first.
/// sort_in_place(&mut keys, &mut vals, &[2..4, 0..2], 4, &mut SortScratch::default());
/// assert_eq!(keys, [3, 3, 7, 9]);
/// assert_eq!(vals, [3, 1, 0, 2]);
/// ```
pub fn sort_in_place<K: RadixKey, V: Copy>(
    keys: &mut [K],
    vals: &mut [V],
    ranges: &[Range<usize>],
    significant_bits: u32,
    scratch: &mut SortScratch<K, V>,
) {
    sort_within(keys, vals, ranges, Some(significant_bits), scratch);
}

/// [`sort_in_place`], finding the significant bits in the pass-0
/// histogram sweep when `significant_bits` is `None`. Returns the bits it
/// sorted on.
fn sort_within<K: RadixKey, V: Copy>(
    keys: &mut [K],
    vals: &mut [V],
    ranges: &[Range<usize>],
    significant_bits: Option<u32>,
    s: &mut SortScratch<K, V>,
) -> u32 {
    assert_eq!(keys.len(), vals.len(), "{LENGTH_MISMATCH}");
    let n = keys.len();
    let tiled: usize = ranges.iter().map(|r| r.len()).sum();
    assert_eq!(tiled, n, "the ranges must tile the arena");
    if n <= 1 {
        return significant_bits.unwrap_or(1);
    }
    // Digit counts of pass 0, and the largest radix, in one sequential
    // sweep of the arena: a histogram does not care about order.
    let hbits = host_sweep_bits(n);
    let mask = (1u64 << hbits) - 1;
    let SortScratch { packed, hist, next } = s;
    hist.clear();
    hist.resize(1 << hbits, 0);
    let mut max = 0u64;
    for k in keys.iter() {
        let r = k.radix();
        max = max.max(r);
        hist[(r & mask) as usize] += 1;
    }
    let bits = significant_bits.unwrap_or_else(|| bits_for_radix(max));
    let hpasses = bits.clamp(1, K::BITS).div_ceil(hbits);

    for pass in 0..hpasses {
        let shift = pass * hbits;
        // Exclusive scan turns the counts into running placement cursors
        // in place.
        let mut running = 0usize;
        for c in hist.iter_mut() {
            running += std::mem::replace(c, running);
        }
        let last = pass + 1 == hpasses;
        if !last {
            next.clear();
            next.resize(1 << hbits, 0);
        }
        let counts = (!last).then_some(&mut next[..]);
        if pass == 0 {
            let src = ranges.iter().flat_map(|r| {
                let (k, v) = (&keys[r.clone()], &vals[r.clone()]);
                k.iter().copied().zip(v.iter().copied())
            });
            scatter_packed(src, n, packed, hist, counts, shift, hbits);
        } else if pass % 2 == 1 {
            let src = packed.iter().copied();
            scatter_split(src, keys, vals, hist, counts, shift, hbits);
        } else {
            let src = keys.iter().copied().zip(vals.iter().copied());
            scatter_packed(src, n, packed, hist, counts, shift, hbits);
        }
        if !last {
            std::mem::swap(hist, next);
        }
    }
    // An odd pass count left the sorted pairs in the packed buffer.
    if hpasses % 2 == 1 {
        for ((k, v), &(pk, pv)) in keys.iter_mut().zip(vals.iter_mut()).zip(packed.iter()) {
            (*k, *v) = (pk, pv);
        }
    }
    bits
}

/// Stable scatter of `src` (`n` pairs) into the packed `dst` by the digit
/// at `shift`, counting the next digit of every pair into `next` on the
/// way unless this is the last pass. `cursors` must be the exclusive scan
/// of exactly `src`'s counts of that digit, so that each slot in `0..n` is
/// written exactly once — into spare capacity, with no zero/fill pass over
/// memory the scatter is about to overwrite anyway.
fn scatter_packed<K: RadixKey, V: Copy>(
    src: impl Iterator<Item = (K, V)>,
    n: usize,
    dst: &mut Vec<(K, V)>,
    cursors: &mut [usize],
    mut next: Option<&mut [usize]>,
    shift: u32,
    hbits: u32,
) {
    let mask = (1u64 << hbits) - 1;
    dst.clear();
    dst.reserve(n);
    let out = &mut dst.spare_capacity_mut()[..n];
    let mut written = 0usize;
    src.for_each(|(k, v)| {
        let pos = &mut cursors[((k.radix() >> shift) & mask) as usize];
        out[*pos].write((k, v));
        *pos += 1;
        if let Some(next) = next.as_deref_mut() {
            next[((k.radix() >> (shift + hbits)) & mask) as usize] += 1;
        }
        written += 1;
    });
    assert_eq!(written, n, "scatter source shorter than its digit counts");
    // SAFETY: `n` pairs were written, each at its digit's cursor inside
    // `out[..n]` (an out-of-range cursor panics on the index). Cursors
    // scanned from `src`'s own counts never meet, so the `n` writes hit
    // `n` distinct slots: all of `dst[..n]` is initialized. `(K, V)` is
    // `Copy`.
    unsafe { dst.set_len(n) };
}

/// [`scatter_packed`] into the split arena slices, which have exactly
/// `src`'s length.
fn scatter_split<K: RadixKey, V: Copy>(
    src: impl Iterator<Item = (K, V)>,
    keys: &mut [K],
    vals: &mut [V],
    cursors: &mut [usize],
    mut next: Option<&mut [usize]>,
    shift: u32,
    hbits: u32,
) {
    let mask = (1u64 << hbits) - 1;
    src.for_each(|(k, v)| {
        let pos = &mut cursors[((k.radix() >> shift) & mask) as usize];
        keys[*pos] = k;
        vals[*pos] = v;
        *pos += 1;
        if let Some(next) = next.as_deref_mut() {
            next[((k.radix() >> (shift + hbits)) & mask) as usize] += 1;
        }
    });
}

/// Digit width of the host sweeps. Wide 16-bit digits halve the
/// sweep count for 32-bit keys once the input is big enough to amortize
/// the 64K-entry counter tables; small inputs sweep the plan's width.
/// Purely a host-execution choice: the simulated kernels always charge
/// the plan, and the stable sort output is unique, so results are
/// bit-identical regardless of digit width.
fn host_sweep_bits(n: usize) -> u32 {
    if n >= (1 << 16) {
        16
    } else {
        SORT_DIGIT_BITS
    }
}

/// Charge the dedicated max-reduction kernel pair (read every key once
/// and fold per block, then fold the per-block partials) without doing the
/// host-side reduction — the sort folds the real max into the pass-0
/// histogram sweep it needs anyway.
fn charge_max_radix<K: RadixKey>(gpu: &mut Gpu, at: SimTime, keys: &[K]) -> SimGpuResult<SimTime> {
    if keys.is_empty() {
        return Ok(at);
    }
    let cfg = LaunchConfig::for_items(keys.len(), SORT_ITEMS_PER_BLOCK, 256);
    let (partials, r1) = gpu.launch(at, &cfg, |ctx| {
        let range = ctx.item_range(keys.len());
        ctx.charge_read::<K>(range.len());
        ctx.charge_flops(range.len() as u64);
    })?;
    let final_cost = KernelCost {
        flops: partials.outputs.len() as u64,
        bytes_coalesced: (partials.outputs.len() * 8) as u64,
        ..KernelCost::ZERO
    };
    Ok(gpu.charge_compute(r1.end, &final_cost, 1.0).end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpmr_sim_gpu::GpuSpec;
    use gpmr_telemetry::{Counter, Telemetry};

    fn gpu() -> Gpu {
        Gpu::new(GpuSpec::gt200())
    }

    /// A device with an enabled registry attached, and its kernel count.
    fn counted_gpu() -> (Gpu, Counter) {
        let tel = Telemetry::enabled();
        let mut g = gpu();
        g.attach_telemetry(&tel, 0);
        (g, tel.counter("gpu.rank0.kernels"))
    }

    /// Sort keys alone: [`sort_pairs`] carrying zero-sized values.
    fn sort_only<K: RadixKey>(g: &mut Gpu, keys: &[K]) -> (Vec<K>, SimTime) {
        let (k, _, t) = sort_pairs(g, SimTime::ZERO, keys, &vec![(); keys.len()]).unwrap();
        (k, t)
    }

    fn pseudo_random(n: usize, seed: u64) -> Vec<u32> {
        let mut x = seed.max(1);
        (0..n)
            .map(|_| {
                // xorshift64
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 16) as u32
            })
            .collect()
    }

    #[test]
    fn sorts_random_u32_keys() {
        let mut g = gpu();
        let keys = pseudo_random(50_000, 42);
        let (sorted, end) = sort_only(&mut g, &keys);
        let mut expect = keys.clone();
        expect.sort_unstable();
        assert_eq!(sorted, expect);
        assert!(end > SimTime::ZERO);
    }

    #[test]
    fn pairs_travel_with_their_keys() {
        let mut g = gpu();
        let keys = pseudo_random(10_000, 7);
        let vals: Vec<u32> = keys.iter().map(|&k| k.wrapping_mul(3)).collect();
        let (sk, sv, _) = sort_pairs(&mut g, SimTime::ZERO, &keys, &vals).unwrap();
        for (k, v) in sk.iter().zip(&sv) {
            assert_eq!(*v, k.wrapping_mul(3));
        }
    }

    #[test]
    fn sort_is_stable() {
        let mut g = gpu();
        // Many duplicate keys; values record original position.
        let keys: Vec<u32> = (0..20_000u32).map(|i| i % 16).collect();
        let vals: Vec<u32> = (0..20_000).collect();
        let (sk, sv, _) = sort_pairs(&mut g, SimTime::ZERO, &keys, &vals).unwrap();
        for w in sk.windows(2).zip(sv.windows(2)) {
            let (kw, vw) = w;
            if kw[0] == kw[1] {
                assert!(vw[0] < vw[1], "stability violated");
            }
        }
    }

    #[test]
    fn narrow_keys_use_fewer_passes() {
        let (mut g, kernels) = counted_gpu();
        let keys: Vec<u32> = (0..30_000u32).map(|i| (i * 37) % 200).collect();
        let k1 = kernels.get();
        let (sorted, _) = sort_only(&mut g, &keys);
        let launches_narrow = kernels.get() - k1;
        let mut expect = keys.clone();
        expect.sort_unstable();
        assert_eq!(sorted, expect);

        // Full-width keys need three 11-bit passes; 8-bit keys only one.
        let wide = pseudo_random(30_000, 3);
        let k2 = kernels.get();
        sort_only(&mut g, &wide);
        let launches_wide = kernels.get() - k2;
        assert!(launches_wide > launches_narrow);
    }

    #[test]
    fn the_plan_is_11_bit_passes_with_a_fused_final() {
        // Each unfused pass is a histogram launch, a scan and a scatter;
        // the last pass is one fused kernel. 32-bit keys: 3 passes.
        let keys = pseudo_random(5000, 17);
        let vals: Vec<u32> = (0..keys.len() as u32).collect();
        for bits in 1..=32u32 {
            let (mut g, kernels) = counted_gpu();
            sort_pairs_with_bits(&mut g, SimTime::ZERO, &keys, &vals, bits).unwrap();
            let passes = u64::from(bits.div_ceil(11));
            assert_eq!(kernels.get(), 3 * (passes - 1) + 1, "{bits} bits");
        }
    }

    #[test]
    fn explicit_bits_variant_sorts() {
        let mut g = gpu();
        let keys: Vec<u64> = (0..5000u64).rev().collect();
        let vals: Vec<u8> = (0..5000).map(|i| (i % 256) as u8).collect();
        let (sk, sv, _) = sort_pairs_with_bits(&mut g, SimTime::ZERO, &keys, &vals, 13).unwrap();
        assert_eq!(sk[0], 0);
        assert_eq!(sk[4999], 4999);
        assert_eq!(sv[0], (4999 % 256) as u8);
    }

    #[test]
    fn signed_keys_sort_correctly() {
        let mut g = gpu();
        let keys: Vec<i32> = vec![5, -3, 0, -100, 88, -1, i32::MIN, i32::MAX];
        let (sorted, _) = sort_only(&mut g, &keys);
        let mut expect = keys.clone();
        expect.sort_unstable();
        assert_eq!(sorted, expect);
    }

    #[test]
    fn trivial_inputs() {
        let mut g = gpu();
        let (empty, t) = sort_only::<u32>(&mut g, &[]);
        assert!(empty.is_empty());
        assert_eq!(t, SimTime::ZERO);
        let (one, _) = sort_only(&mut g, &[9u32]);
        assert_eq!(one, vec![9]);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_lengths_panic() {
        let mut g = gpu();
        let _ = sort_pairs_with_bits(&mut g, SimTime::ZERO, &[1u32, 2], &[1u32], 8);
    }
}
