//! Segment extraction from sorted key sequences.
//!
//! After GPMR's Sort stage, duplicate keys are discarded: "because of the
//! sort, each key's value is stored contiguously, hence we only need the
//! number of values and the index of the first value to describe each
//! sequence" (paper §4.2). [`extract_segments`] produces exactly that
//! description via a boundary-marking kernel plus a compaction.

use gpmr_sim_gpu::{Gpu, KernelCost, LaunchConfig, SimGpuResult, SimTime};

/// Items processed per boundary-marking block.
pub const SEGMENT_ITEMS_PER_BLOCK: usize = 4096;

/// The unique keys of a sorted sequence and where each key's values live.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Segments<K> {
    /// Unique keys, ascending.
    pub keys: Vec<K>,
    /// `offsets.len() == keys.len() + 1`; key `i`'s values occupy
    /// `offsets[i]..offsets[i + 1]` in the sorted value array.
    pub offsets: Vec<usize>,
}

/// No segments and no buffers yet — what [`extract_segments_into`] fills.
impl<K> Default for Segments<K> {
    fn default() -> Self {
        Segments {
            keys: Vec::new(),
            offsets: Vec::new(),
        }
    }
}

impl<K> Segments<K> {
    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True if there are no keys.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The value range of segment `i`.
    pub fn range(&self, i: usize) -> std::ops::Range<usize> {
        self.offsets[i]..self.offsets[i + 1]
    }

    /// Number of values in segment `i`.
    pub fn count(&self, i: usize) -> usize {
        self.offsets[i + 1] - self.offsets[i]
    }

    /// Iterate `(key, value_range)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&K, std::ops::Range<usize>)> {
        self.keys
            .iter()
            .enumerate()
            .map(|(i, k)| (k, self.range(i)))
    }
}

/// Extract unique keys and value segments from `sorted_keys` (which must
/// be sorted; equal keys adjacent). Returns the segments and completion
/// time.
///
/// ```
/// use gpmr_primitives::extract_segments;
/// use gpmr_sim_gpu::{Gpu, GpuSpec, SimTime};
///
/// let mut gpu = Gpu::new(GpuSpec::gt200());
/// let (segs, _) =
///     extract_segments(&mut gpu, SimTime::ZERO, &[2u32, 2, 7, 7, 7]).unwrap();
/// assert_eq!(segs.keys, vec![2, 7]);
/// assert_eq!(segs.range(1), 2..5); // key 7's values
/// ```
pub fn extract_segments<K>(
    gpu: &mut Gpu,
    at: SimTime,
    sorted_keys: &[K],
) -> SimGpuResult<(Segments<K>, SimTime)>
where
    K: Copy + PartialEq + Send + Sync + 'static,
{
    let mut segs = Segments::default();
    let end = extract_segments_into(gpu, at, sorted_keys, &mut segs)?;
    Ok((segs, end))
}

/// [`extract_segments`] into a caller-kept `segs`, whose buffers are
/// overwritten and reused. Returns the completion time.
pub fn extract_segments_into<K>(
    gpu: &mut Gpu,
    at: SimTime,
    sorted_keys: &[K],
    segs: &mut Segments<K>,
) -> SimGpuResult<SimTime>
where
    K: Copy + PartialEq + Send + Sync + 'static,
{
    let Segments { keys, offsets } = segs;
    keys.clear();
    offsets.clear();
    if sorted_keys.is_empty() {
        offsets.push(0);
        return Ok(at);
    }
    let n = sorted_keys.len();
    let cfg = LaunchConfig::for_items(n, SEGMENT_ITEMS_PER_BLOCK, 256);

    // Kernel: mark segment starts (k[i] != k[i-1]); each block emits the
    // boundary indices in its range. The launch only charges the blocks'
    // cost, which does not depend on the data; the host finds the
    // boundaries itself below, in two sweeps over one output instead of a
    // `Vec` per block.
    let (_, r1) = gpu.launch(at, &cfg, |ctx| {
        let range = ctx.item_range(n);
        // Reads its range plus one predecessor element.
        ctx.charge_read::<K>(range.len() + 1);
        ctx.charge_flops(range.len() as u64);
    })?;

    // Compact boundary indices (scan + scatter, small).
    let unique = 1 + sorted_keys.windows(2).filter(|w| w[0] != w[1]).count();
    let compact_cost = KernelCost {
        flops: cfg.grid_blocks as u64 + unique as u64,
        bytes_coalesced: (unique * std::mem::size_of::<usize>() * 2) as u64,
        ..KernelCost::ZERO
    };
    let r2 = gpu.charge_compute(r1.end, &compact_cost, 1.0);

    // Branch-free fill: every element is written at the cursor and only a
    // segment start advances it, so a non-start is overwritten by its
    // successor. Sparse keys make "is this a start" a coin flip a branch
    // predictor loses. The cursor can reach `unique` (after the last
    // start), hence one slack slot, which for `offsets` is the end mark.
    keys.resize(unique + 1, sorted_keys[0]);
    offsets.resize(unique + 1, 0);
    let mut cur = 1usize;
    for i in 1..n {
        keys[cur] = sorted_keys[i];
        offsets[cur] = i;
        cur += usize::from(sorted_keys[i] != sorted_keys[i - 1]);
    }
    debug_assert_eq!(cur, unique);
    keys.truncate(unique);
    offsets[unique] = n;
    Ok(r2.end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpmr_sim_gpu::GpuSpec;

    fn gpu() -> Gpu {
        Gpu::new(GpuSpec::gt200())
    }

    #[test]
    fn segments_of_runs() {
        let mut g = gpu();
        let keys = [1u32, 1, 1, 4, 4, 9, 9, 9, 9, 12];
        let (segs, end) = extract_segments(&mut g, SimTime::ZERO, &keys).unwrap();
        assert_eq!(segs.keys, vec![1, 4, 9, 12]);
        assert_eq!(segs.offsets, vec![0, 3, 5, 9, 10]);
        assert_eq!(segs.count(2), 4);
        assert_eq!(segs.range(1), 3..5);
        assert!(end > SimTime::ZERO);
    }

    #[test]
    fn all_unique_keys() {
        let mut g = gpu();
        let keys: Vec<u32> = (0..10_000).collect();
        let (segs, _) = extract_segments(&mut g, SimTime::ZERO, &keys).unwrap();
        assert_eq!(segs.len(), 10_000);
        assert!(segs.iter().all(|(_, r)| r.len() == 1));
    }

    #[test]
    fn single_giant_run() {
        let mut g = gpu();
        let keys = vec![7u64; 50_000];
        let (segs, _) = extract_segments(&mut g, SimTime::ZERO, &keys).unwrap();
        assert_eq!(segs.keys, vec![7]);
        assert_eq!(segs.offsets, vec![0, 50_000]);
    }

    #[test]
    fn empty_input() {
        let mut g = gpu();
        let (segs, end) = extract_segments::<u32>(&mut g, SimTime::ZERO, &[]).unwrap();
        assert!(segs.is_empty());
        assert_eq!(segs.offsets, vec![0]);
        assert_eq!(end, SimTime::ZERO);
    }

    #[test]
    fn boundaries_across_block_edges() {
        let mut g = gpu();
        // Runs exactly the size of a block partition stress the i-1 read.
        let mut keys = Vec::new();
        for run in 0..10u32 {
            keys.extend(std::iter::repeat_n(run, SEGMENT_ITEMS_PER_BLOCK));
        }
        let (segs, _) = extract_segments(&mut g, SimTime::ZERO, &keys).unwrap();
        assert_eq!(segs.len(), 10);
        for i in 0..10 {
            assert_eq!(segs.count(i), SEGMENT_ITEMS_PER_BLOCK);
        }
    }
}
