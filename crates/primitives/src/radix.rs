//! GPU radix sort, after Satish/Harris/Garland — the CUDPP sort GPMR uses
//! as its default Sorter for integer-based keys.
//!
//! Least-significant-digit counting sort over configurable-width digits
//! (default 11 bits, so 32-bit keys take 3 passes instead of 4 — the
//! wide-digit trick from the Xeon Phi MapReduce work). Each pass runs two
//! kernels (per-block digit histograms, then a stable scatter) plus a
//! digit-major scan of the histogram matrix; the final pass can instead
//! run as one fused histogram+scatter kernel that keeps its histogram in
//! shared memory and skips the separate global-memory histogram read and
//! scan launch. The scatter's writes are inherently uncoalesced and are
//! charged as such — this is why Sort is a visible slice of the paper's
//! Figure 2 runtime breakdown.

use gpmr_sim_gpu::{occupancy, Gpu, KernelCost, LaunchConfig, SimGpuResult, SimTime};

use crate::elem::RadixKey;

/// Items processed per sort block.
pub const SORT_ITEMS_PER_BLOCK: usize = 4096;

/// Sort tuning knobs (digit width and final-pass fusion). The defaults are
/// the fast path; [`SortConfig::reference()`] is the classic 8-bit
/// two-kernel CUDPP layout kept as the bit-identical baseline for tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SortConfig {
    /// Bits per counting-sort pass. Wider digits mean fewer passes but a
    /// bigger shared-memory histogram (`4 << digit_bits` bytes, which must
    /// fit in the device's per-SM shared memory). Clamped to 1..=12.
    pub digit_bits: u32,
    /// Run the last pass as a single fused histogram+scatter kernel: the
    /// histogram lives in shared memory, so the pass reads the pairs from
    /// global memory once and skips the standalone scan launch.
    pub fuse_final: bool,
}

impl Default for SortConfig {
    fn default() -> Self {
        SortConfig {
            digit_bits: 11,
            fuse_final: true,
        }
    }
}

impl SortConfig {
    /// The pre-optimization CUDPP layout: 8-bit digits, no fusion. Every
    /// other configuration must produce bit-identical output to this one.
    pub fn reference() -> Self {
        SortConfig {
            digit_bits: 8,
            fuse_final: false,
        }
    }

    /// Clamp the digit width to what the histogram's shared-memory
    /// footprint allows.
    pub fn normalized(mut self) -> Self {
        self.digit_bits = self.digit_bits.clamp(1, 12);
        self
    }

    fn digits(&self) -> usize {
        1usize << self.digit_bits
    }
}

/// One contiguous run of a sort's input: parallel key and value slices.
/// A sort over several parts sorts their concatenation, in list order.
pub type SortPart<'a, K, V> = (&'a [K], &'a [V]);

/// The buffers a sort works in, kept by the caller so that consecutive
/// sorts (one per reducer rank, say) reuse them instead of mapping and
/// faulting in fresh ones: the sorted output, the packed ping-pong pair
/// buffers and the digit counters.
pub struct SortScratch<K, V> {
    /// Sorted keys of the most recent sort.
    pub keys: Vec<K>,
    /// The values carried along; `vals[i]` belongs to `keys[i]`.
    pub vals: Vec<V>,
    a: Vec<(K, V)>,
    b: Vec<(K, V)>,
    hist: Vec<usize>,
    next: Vec<usize>,
}

impl<K, V> Default for SortScratch<K, V> {
    fn default() -> Self {
        SortScratch {
            keys: Vec::new(),
            vals: Vec::new(),
            a: Vec::new(),
            b: Vec::new(),
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
    V: Copy + Send + Sync + 'static,
{
    // Charge the max-reduction kernels that bound the number of passes;
    // the host finds the real max in the pass-0 histogram sweep the sort
    // needs anyway — one read of the keys instead of two.
    let t = charge_max_radix(gpu, at, keys)?;
    let mut s = SortScratch::default();
    let t = sort_parts(
        gpu,
        t,
        &[(keys, vals)],
        None,
        &SortConfig::default(),
        &mut s,
    )?;
    Ok((s.keys, s.vals, t))
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
    V: Copy + Send + Sync + 'static,
{
    sort_pairs_with_bits_config(
        gpu,
        at,
        keys,
        vals,
        significant_bits,
        &SortConfig::default(),
    )
}

/// [`sort_pairs_with_bits`] with explicit [`SortConfig`] tuning.
pub fn sort_pairs_with_bits_config<K, V>(
    gpu: &mut Gpu,
    at: SimTime,
    keys: &[K],
    vals: &[V],
    significant_bits: u32,
    cfg: &SortConfig,
) -> SimGpuResult<(Vec<K>, Vec<V>, SimTime)>
where
    K: RadixKey,
    V: Copy + Send + Sync + 'static,
{
    let mut s = SortScratch::default();
    let t = sort_parts(
        gpu,
        at,
        &[(keys, vals)],
        Some(significant_bits),
        cfg,
        &mut s,
    )?;
    Ok((s.keys, s.vals, t))
}

/// [`sort_pairs_with_bits`] over an input that lies in several pieces:
/// sorts the concatenation of `parts` (in list order, so the sort is
/// stable across parts too) without the caller having to build it, into
/// `scratch.keys` / `scratch.vals`. Returns the completion time. The
/// simulated kernels, and so the time, are those of the one-piece sort.
pub fn sort_parts_with_bits<K, V>(
    gpu: &mut Gpu,
    at: SimTime,
    parts: &[SortPart<'_, K, V>],
    significant_bits: u32,
    scratch: &mut SortScratch<K, V>,
) -> SimGpuResult<SimTime>
where
    K: RadixKey,
    V: Copy + Send + Sync + 'static,
{
    sort_parts(
        gpu,
        at,
        parts,
        Some(significant_bits),
        &SortConfig::default(),
        scratch,
    )
}

const LENGTH_MISMATCH: &str = "keys and values must have equal length";

/// Every pair of `parts`, in order.
fn pairs_of<'a, K: Copy, V: Copy>(
    parts: &'a [SortPart<'a, K, V>],
) -> impl Iterator<Item = (K, V)> + 'a {
    parts
        .iter()
        .flat_map(|&(k, v)| k.iter().copied().zip(v.iter().copied()))
}

/// The sort behind every entry point above. `significant_bits` of `None`
/// means as many as the largest key needs.
fn sort_parts<K, V>(
    gpu: &mut Gpu,
    at: SimTime,
    parts: &[SortPart<'_, K, V>],
    significant_bits: Option<u32>,
    cfg: &SortConfig,
    s: &mut SortScratch<K, V>,
) -> SimGpuResult<SimTime>
where
    K: RadixKey,
    V: Copy + Send + Sync + 'static,
{
    for (k, v) in parts {
        assert_eq!(k.len(), v.len(), "{LENGTH_MISMATCH}");
    }
    let n: usize = parts.iter().map(|(k, _)| k.len()).sum();
    if n <= 1 {
        s.keys.clear();
        s.vals.clear();
        for (k, v) in pairs_of(parts) {
            s.keys.push(k);
            s.vals.push(v);
        }
        return Ok(at);
    }
    let cfg = cfg.normalized();

    let max = pass0_histogram(parts, host_digit_bits(n, &cfg), &mut s.hist);
    let bits = significant_bits.unwrap_or_else(|| bits_for_radix(max));
    serial_sort(gpu, at, parts, n, bits, &cfg, s)
}

/// Digit counts of the host's pass 0 (shift 0, `hbits` wide) into
/// `hist`, and the largest key radix seen in the same sweep.
fn pass0_histogram<K: RadixKey, V>(
    parts: &[SortPart<'_, K, V>],
    hbits: u32,
    hist: &mut Vec<usize>,
) -> u64 {
    let mask = (1u64 << hbits) - 1;
    hist.clear();
    hist.resize(1 << hbits, 0);
    let mut max = 0u64;
    for (keys, _) in parts {
        for k in *keys {
            let r = k.radix();
            max = max.max(r);
            hist[(r & mask) as usize] += 1;
        }
    }
    max
}

/// Stable scatter of `src` (`n` pairs) into the packed `dst` by the digit
/// at `shift`, counting the next digit of every pair on the way. `cursors`
/// must be the exclusive scan of exactly `src`'s counts of that digit, so
/// that each slot in `0..n` is written exactly once — into spare capacity,
/// with no zero/fill pass over memory the scatter is about to overwrite
/// anyway.
fn scatter_packed<K: RadixKey, V: Copy>(
    src: impl Iterator<Item = (K, V)>,
    n: usize,
    dst: &mut Vec<(K, V)>,
    cursors: &mut [usize],
    next: &mut [usize],
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
        next[((k.radix() >> (shift + hbits)) & mask) as usize] += 1;
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

/// [`scatter_packed`] for the last pass: straight into the split output
/// vectors, so no unzip pass remains.
fn scatter_split<K: RadixKey, V: Copy>(
    src: impl Iterator<Item = (K, V)>,
    n: usize,
    keys: &mut Vec<K>,
    vals: &mut Vec<V>,
    cursors: &mut [usize],
    shift: u32,
    hbits: u32,
) {
    let mask = (1u64 << hbits) - 1;
    keys.clear();
    keys.reserve(n);
    vals.clear();
    vals.reserve(n);
    let ok = &mut keys.spare_capacity_mut()[..n];
    let ov = &mut vals.spare_capacity_mut()[..n];
    let mut written = 0usize;
    src.for_each(|(k, v)| {
        let pos = &mut cursors[((k.radix() >> shift) & mask) as usize];
        ok[*pos].write(k);
        ov[*pos].write(v);
        *pos += 1;
        written += 1;
    });
    assert_eq!(written, n, "scatter source shorter than its digit counts");
    // SAFETY: as in `scatter_packed` — `n` writes at `n` distinct
    // positions inside `[..n]` of both buffers. `K` and `V` are `Copy`.
    unsafe {
        keys.set_len(n);
        vals.set_len(n);
    }
}

/// The whole sort: one histogram read of the input up front (`s.hist`, see
/// [`pass0_histogram`] — by the caller, which folds the max reduction into
/// the same sweep), then one combined scatter-plus-next-histogram sweep
/// per digit — the next pass's counts fall out of the keys the scatter is
/// already touching, and the final pass scatters straight into the split
/// output vectors, so no standalone histogram or unzip passes remain. Pass
/// 0 reads the `parts` where they lie. The simulated kernels charged are
/// those of the configured [`SortConfig`] plan whatever digits the host
/// sweeps with; the stable output is unique.
fn serial_sort<K, V>(
    gpu: &mut Gpu,
    at: SimTime,
    parts: &[SortPart<'_, K, V>],
    n: usize,
    bits: u32,
    cfg: &SortConfig,
    s: &mut SortScratch<K, V>,
) -> SimGpuResult<SimTime>
where
    K: RadixKey,
    V: Copy + Send + Sync + 'static,
{
    let digits = cfg.digits();
    let pair_bytes = std::mem::size_of::<K>() + std::mem::size_of::<V>();
    let launch_cfg = LaunchConfig::for_items(n, SORT_ITEMS_PER_BLOCK, 256)
        .with_shared_bytes((digits * 4) as u32);
    let blocks = n.div_ceil(SORT_ITEMS_PER_BLOCK);

    // Simulated kernels: exactly the configured plan (`cfg.digit_bits`-wide
    // passes, optionally a fused final), with charge-only launch closures
    // — how the host reproduces the output is its own business (below).
    let sim_passes = bits.clamp(1, K::BITS).div_ceil(cfg.digit_bits);
    let mut t = at;
    for pass in 0..sim_passes {
        let fused = cfg.fuse_final && pass + 1 == sim_passes;
        t = if fused {
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

    // Host sweeps, possibly on wider digits than the simulated kernels
    // (see [`host_digit_bits`]) — fewer sweeps over the data, same unique
    // stable output.
    let hbits = host_digit_bits(n, cfg);
    let hpasses = bits.clamp(1, K::BITS).div_ceil(hbits);
    let SortScratch {
        keys,
        vals,
        a,
        b,
        hist,
        next,
        ..
    } = s;
    debug_assert_eq!(hist.len(), 1usize << hbits);
    let (mut src, mut dst) = (a, b);
    for pass in 0..hpasses {
        let shift = pass * hbits;
        // Exclusive scan turns the counts into running placement cursors
        // in place.
        let mut running = 0usize;
        for c in hist.iter_mut() {
            running += std::mem::replace(c, running);
        }
        if pass + 1 == hpasses {
            if pass == 0 {
                scatter_split(pairs_of(parts), n, keys, vals, hist, shift, hbits);
            } else {
                scatter_split(src.iter().copied(), n, keys, vals, hist, shift, hbits);
            }
            break;
        }
        next.clear();
        next.resize(1 << hbits, 0);
        if pass == 0 {
            scatter_packed(pairs_of(parts), n, src, hist, next, shift, hbits);
        } else {
            scatter_packed(src.iter().copied(), n, dst, hist, next, shift, hbits);
            std::mem::swap(&mut src, &mut dst);
        }
        std::mem::swap(hist, next);
    }
    Ok(t)
}

/// Digit width of the host sweeps. Wide 16-bit digits halve the
/// sweep count for 32-bit keys once the input is big enough to amortize
/// the 64K-entry counter tables; small inputs keep the configured width.
/// Purely a host-execution choice: the simulated kernels always charge
/// the configured [`SortConfig`] plan, and the stable sort output is
/// unique, so results are bit-identical regardless of digit width.
fn host_digit_bits(n: usize, cfg: &SortConfig) -> u32 {
    if n >= (1 << 16) {
        16
    } else {
        cfg.digit_bits
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
    fn wide_digits_cut_pass_count_and_time() {
        // 32-bit keys: 8-bit digits need 4 passes, 11-bit digits 3, and
        // the fused final pass removes two launches more. Fewer, cheaper
        // passes must show up as less simulated time.
        let keys = pseudo_random(60_000, 17);
        let vals: Vec<u32> = (0..keys.len() as u32).collect();
        let mut runs = Vec::new();
        for cfg in [SortConfig::reference(), SortConfig::default()] {
            let (mut g, kernels) = counted_gpu();
            let (sk, sv, t) =
                sort_pairs_with_bits_config(&mut g, SimTime::ZERO, &keys, &vals, 32, &cfg).unwrap();
            runs.push((sk, sv, t, kernels.get()));
        }
        let (ref_k, ref_v, ref_t, ref_kernels) = runs.remove(0);
        let (wide_k, wide_v, wide_t, wide_kernels) = runs.remove(0);
        assert_eq!(ref_k, wide_k, "output must not depend on digit width");
        assert_eq!(ref_v, wide_v, "value order must not depend on digit width");
        assert!(
            wide_kernels < ref_kernels,
            "{wide_kernels} vs {ref_kernels}"
        );
        assert!(
            wide_t < ref_t,
            "wide-digit fused sort ({wide_t}) should beat 8-bit ({ref_t})"
        );
    }

    #[test]
    fn fused_final_pass_saves_launches() {
        let keys = pseudo_random(40_000, 23);
        let vals: Vec<u32> = (0..keys.len() as u32).collect();
        let cfg_plain = SortConfig {
            fuse_final: false,
            ..SortConfig::default()
        };
        let (mut g1, kernels1) = counted_gpu();
        let (k1, _, t1) =
            sort_pairs_with_bits_config(&mut g1, SimTime::ZERO, &keys, &vals, 32, &cfg_plain)
                .unwrap();
        let (mut g2, kernels2) = counted_gpu();
        let (k2, _, t2) = sort_pairs_with_bits_config(
            &mut g2,
            SimTime::ZERO,
            &keys,
            &vals,
            32,
            &SortConfig::default(),
        )
        .unwrap();
        assert_eq!(k1, k2);
        assert!(kernels2.get() < kernels1.get());
        assert!(t2 < t1, "fused ({t2}) should beat unfused ({t1})");
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
    fn normalized_clamps_digit_width() {
        let clamped = SortConfig {
            digit_bits: 40,
            fuse_final: true,
        }
        .normalized();
        assert_eq!(clamped.digit_bits, 12);
        let floor = SortConfig {
            digit_bits: 0,
            fuse_final: false,
        }
        .normalized();
        assert_eq!(floor.digit_bits, 1);
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
