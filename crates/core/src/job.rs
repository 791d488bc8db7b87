//! The GPMR job interface: what an application implements.
//!
//! Every part of the MapReduce pipeline is programmable (paper §4): the
//! required pieces are a [`GpmrJob::map`] kernel and (unless sort/reduce
//! are bypassed) a [`GpmrJob::reduce`] kernel; everything else has a
//! sensible default — round-robin partitioning for integer keys, the CUDPP
//! radix Sorter, a sort-based Combine — and is switched on or off through
//! the job's [`PipelineConfig`].
//!
//! The Map stage's optional substages follow the paper exactly:
//!
//! * **Partial Reduction** ([`MapMode::PartialReduce`]) — combine
//!   like-keyed, GPU-resident pairs after every map kernel, before the
//!   PCI-e download;
//! * **Accumulation** ([`MapMode::Accumulate`]) — keep one resident
//!   key-value set on the GPU and fold every chunk's output into it;
//!   mutually exclusive with Partial Reduction, and it defers all binning
//!   until the whole Map stage finishes;
//! * **Combine** ([`PipelineConfig::combine`]) — store all emitted pairs
//!   in CPU memory until every map completes, then combine each unique key
//!   once (streamed back through the GPU) before partitioning. Unlike
//!   Hadoop's combiner this is global, not per-map-instance.

use gpmr_primitives::{RadixKey, Segments};
use gpmr_sim_gpu::{Gpu, SimGpuResult, SimTime};

use crate::chunk::Chunk;
use crate::journal::Fnv64;
use crate::pod::Pod;
use crate::types::{Key, KvSet, Value};

/// Return type of the pair-producing job kernels: the emitted pairs plus
/// the simulated time at which they are ready.
pub type KernelOutput<K, V> = SimGpuResult<(KvSet<K, V>, SimTime)>;

/// Which Map-stage reduction substage a job uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MapMode {
    /// Map kernels emit pairs; pairs are downloaded and binned per chunk.
    Plain,
    /// Like `Plain`, but [`GpmrJob::partial_reduce`] runs on the
    /// GPU-resident pairs after each map kernel to shrink the download.
    PartialReduce,
    /// [`GpmrJob::accumulate_init`] seeds a resident key-value set and
    /// [`GpmrJob::map_accumulate`] folds each chunk into it; one download
    /// and one binning pass at the end of the Map stage.
    Accumulate,
}

/// How emitted pairs are routed to reducer ranks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PartitionMode {
    /// No partitioner: every pair goes to rank 0 (paper: "best for jobs
    /// with small intermediate data").
    None,
    /// The default round-robin partitioner for integer-based keys
    /// (`key mod ranks`).
    RoundRobin,
    /// Route through the job's [`GpmrJob::partition`] override.
    Custom,
    /// Skew-aware range partitioning over sampled splitters: key radix
    /// `k` routes to `splitters.partition_point(|s| s <= k)` — the count
    /// of splitters at or below `k` — so `splitters` (sorted ascending,
    /// at most `ranks - 1` entries) cuts the key space into contiguous
    /// ranges of roughly equal *observed* mass. Derive the splitters with
    /// [`derive_splitters`] from a sampling pass; this is the
    /// Afrati/Ullman-style answer to power-law keys serializing on one
    /// reducer under round-robin.
    Range {
        /// Ascending radix boundaries; range `i` is keys in
        /// `(splitters[i-1], splitters[i]]`-style cuts (`<=` goes right).
        splitters: Vec<u64>,
    },
}

impl PartitionMode {
    /// Stable small integer identifying the variant, for
    /// [`PipelineConfig::fingerprint`] (splitter *contents* are hashed
    /// separately).
    fn discriminant(&self) -> u64 {
        match self {
            PartitionMode::None => 0,
            PartitionMode::RoundRobin => 1,
            PartitionMode::Custom => 2,
            PartitionMode::Range { .. } => 3,
        }
    }

    /// Route a key radix under this mode's host-side rules. `Custom`
    /// cannot be resolved here (it needs the job); callers handle it
    /// before falling through. Returns `None` for `Custom`.
    pub fn route_radix(&self, radix: u64, ranks: u32) -> Option<u32> {
        match self {
            PartitionMode::None => Some(0),
            PartitionMode::RoundRobin => Some((radix % u64::from(ranks.max(1))) as u32),
            PartitionMode::Custom => None,
            PartitionMode::Range { splitters } => {
                Some(splitters.partition_point(|&s| s <= radix) as u32)
            }
        }
    }
}

/// Derive range splitters from a sample of key radixes, minimizing the
/// heaviest band. The sample is collapsed to a run-length histogram of
/// distinct keys; a binary search then finds the smallest per-band load
/// `L` for which first-fit packing of the runs needs at most `reducers`
/// contiguous bands (the classic parametric solution to contiguous
/// makespan partitioning — naive quantile cuts hand a heavy key's band
/// its neighbours too, inflating the maximum). The emitted packing is
/// optimal for the sample: no contiguous-range cut has a smaller max
/// band. The result has at most `reducers - 1` ascending entries,
/// suitable for [`PartitionMode::Range`]. Fewer entries (one key
/// dominating the sample) simply leaves trailing reducers idle — under
/// extreme skew no key-granularity cut can do better.
pub fn derive_splitters(samples: &[u64], reducers: u32) -> Vec<u64> {
    let reducers = reducers.max(1) as usize;
    if samples.is_empty() || reducers == 1 {
        return Vec::new();
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let mut runs: Vec<(u64, usize)> = Vec::new();
    for &k in &sorted {
        match runs.last_mut() {
            Some((key, c)) if *key == k => *c += 1,
            _ => runs.push((k, 1)),
        }
    }
    // First-fit band count at a given load limit. A single run larger
    // than the limit is unsplittable and occupies one band by itself.
    let bands_needed = |limit: usize| -> usize {
        let mut bands = 1usize;
        let mut band = 0usize;
        for &(_, c) in &runs {
            if band > 0 && band + c > limit {
                bands += 1;
                band = 0;
            }
            band += c;
        }
        bands
    };
    // The limit can't beat the heaviest single run or the mean.
    let max_run = runs.iter().map(|&(_, c)| c).max().unwrap_or(1);
    let mut lo = max_run.max(sorted.len().div_ceil(reducers));
    let mut hi = sorted.len();
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if bands_needed(mid) <= reducers {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let limit = lo;
    let mut splitters = Vec::with_capacity(reducers - 1);
    let mut band = 0usize;
    for &(key, c) in &runs {
        if band > 0 && band + c > limit && splitters.len() < reducers - 1 {
            splitters.push(key);
            band = 0;
        }
        band += c;
    }
    splitters
}

/// Which Sorter the Sort stage uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SortMode {
    /// The default CUDPP-style radix sort (integer-based keys).
    Radix,
    /// The comparator-network fallback for keys without a useful radix.
    Bitonic,
}

/// Per-job pipeline shape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Map-stage reduction substage.
    pub map_mode: MapMode,
    /// Run the global Combine substage (requires [`GpmrJob::combine_op`]).
    pub combine: bool,
    /// Pair routing.
    pub partition: PartitionMode,
    /// Sorter choice.
    pub sort: SortMode,
    /// Whether Sort and Reduce run at all. Matrix Multiplication bypasses
    /// both (paper §5.3.1): the binned map output *is* the job output.
    pub sort_and_reduce: bool,
}

impl Default for PipelineConfig {
    /// The common case: plain mapping, no combine, round-robin
    /// partitioning, radix sort, full sort+reduce.
    fn default() -> Self {
        PipelineConfig {
            map_mode: MapMode::Plain,
            combine: false,
            partition: PartitionMode::RoundRobin,
            sort: SortMode::Radix,
            sort_and_reduce: true,
        }
    }
}

impl PipelineConfig {
    /// Builder: set the partitioning mode.
    pub fn with_partition(mut self, partition: PartitionMode) -> Self {
        self.partition = partition;
        self
    }

    /// Fold every field into the journal's job fingerprint: a run resumed
    /// under a different pipeline shape must diverge on record 0.
    pub(crate) fn fingerprint(&self, fp: &mut Fnv64) {
        fp.write_u64(self.map_mode as u64);
        fp.write_u64(u64::from(self.combine));
        fp.write_u64(self.partition.discriminant());
        if let PartitionMode::Range { splitters } = &self.partition {
            fp.write_u64(splitters.len() as u64);
            for &s in splitters {
                fp.write_u64(s);
            }
        }
        fp.write_u64(self.sort as u64);
        fp.write_u64(u64::from(self.sort_and_reduce));
    }

    /// Validate substage compatibility (the paper: Accumulation eliminates
    /// Partial Reduce and Combine; Combine excludes Partial Reduce).
    pub fn validate(&self) -> Result<(), String> {
        if self.map_mode == MapMode::Accumulate && self.combine {
            return Err("Accumulation eliminates the Combine substage".into());
        }
        if self.map_mode == MapMode::PartialReduce && self.combine {
            return Err("Partial Reduction and Combine are mutually exclusive".into());
        }
        Ok(())
    }
}

/// The consecutive-blocks partitioner the paper contrasts with
/// round-robin (§4.1: "even when keys are integer values, there is no
/// best-performance distribution for all MapReduce jobs (e.g. round-robin
/// vs. consecutive blocks)"): the key space `[0, max_radix]` is divided
/// into `ranks` contiguous ranges. Keys above `max_radix` land on the
/// last rank. Use from a [`GpmrJob::partition`] override with
/// [`PartitionMode::Custom`].
/// ```
/// use gpmr_core::block_partition;
///
/// // Keys 0..=99 over 4 ranks: contiguous quarters.
/// assert_eq!(block_partition(0, 99, 4), 0);
/// assert_eq!(block_partition(30, 99, 4), 1);
/// assert_eq!(block_partition(99, 99, 4), 3);
/// ```
pub fn block_partition(radix: u64, max_radix: u64, ranks: u32) -> u32 {
    let ranks = u64::from(ranks.max(1));
    if max_radix == 0 {
        return 0;
    }
    let width = (max_radix / ranks + 1).max(1);
    ((radix / width).min(ranks - 1)) as u32
}

/// A complete GPMR application.
///
/// Implementations provide GPU kernels (via the simulated device) for the
/// stages their [`PipelineConfig`] enables. Kernels receive an
/// earliest-start instant and return their completion instant so the
/// engine can overlap them with transfers and communication.
pub trait GpmrJob: Send + Sync {
    /// The input chunk type.
    type Chunk: Chunk;
    /// Key type; integer-based (radix-sortable) as the paper's fast path
    /// requires for the default Sorter and Partitioner, and byte-encodable
    /// ([`Pod`]) so any run can be journaled: commits are content-hashed.
    type Key: Key + RadixKey + Pod;
    /// Value type; [`Pod`] for the same reason as the key.
    type Value: Value + Pod;

    /// This job's pipeline shape.
    fn pipeline(&self) -> PipelineConfig {
        PipelineConfig::default()
    }

    /// The Map kernel: process one resident chunk, emit key-value pairs.
    /// Used in [`MapMode::Plain`] and [`MapMode::PartialReduce`].
    fn map(
        &self,
        gpu: &mut Gpu,
        at: SimTime,
        chunk: &Self::Chunk,
    ) -> KernelOutput<Self::Key, Self::Value>;

    /// Partial Reduction: shrink the GPU-resident pair set emitted by one
    /// map before it is downloaded. Default: identity (no shrink).
    fn partial_reduce(
        &self,
        _gpu: &mut Gpu,
        at: SimTime,
        pairs: KvSet<Self::Key, Self::Value>,
    ) -> KernelOutput<Self::Key, Self::Value> {
        Ok((pairs, at))
    }

    /// Accumulation: produce the initial resident key-value set (the
    /// paper's WO emits every dictionary key with value 0 here).
    /// Required for [`MapMode::Accumulate`].
    fn accumulate_init(
        &self,
        _gpu: &mut Gpu,
        _at: SimTime,
    ) -> KernelOutput<Self::Key, Self::Value> {
        unimplemented!("job uses MapMode::Accumulate but does not implement accumulate_init")
    }

    /// Accumulation: map one chunk, folding its output into the resident
    /// set. Required for [`MapMode::Accumulate`].
    ///
    /// Blocks must not touch `state`: the launch closure is `Fn + Sync`,
    /// because a kernel's blocks are independent of one another.
    /// A block charges its atomics (or its pool flush) to its `BlockCtx`
    /// and *returns* its updates; the kernel applies the returned updates
    /// to `state` after the launch, in block order. What a block returns
    /// is the job's choice — WO returns the flat list of word ids it saw,
    /// each worth `+1` (integer adds reorder freely, so nothing is
    /// combined per block); KMC returns a dense per-block pool of `f64`
    /// sums, because float adds are not associative and summing the pools
    /// in block order fixes the result.
    fn map_accumulate(
        &self,
        _gpu: &mut Gpu,
        _at: SimTime,
        _chunk: &Self::Chunk,
        _state: &mut KvSet<Self::Key, Self::Value>,
    ) -> SimGpuResult<SimTime> {
        unimplemented!("job uses MapMode::Accumulate but does not implement map_accumulate")
    }

    /// Associative, commutative value combiner used by the Combine
    /// substage. Required when `pipeline().combine` is set.
    fn combine_op(&self, _a: Self::Value, _b: Self::Value) -> Self::Value {
        unimplemented!("job enables Combine but does not implement combine_op")
    }

    /// Partitioner for [`PartitionMode::Custom`]: destination rank for
    /// `key`. The provided default is the round-robin rule.
    fn partition(&self, key: &Self::Key, ranks: u32) -> u32 {
        (key.radix() % u64::from(ranks.max(1))) as u32
    }

    /// The Reduce kernel: process sorted, deduplicated key segments.
    /// `segs.keys[i]`'s values are `vals[segs.range(i)]`. Emits the final
    /// pairs for this reduce chunk.
    fn reduce(
        &self,
        _gpu: &mut Gpu,
        at: SimTime,
        _segs: &Segments<Self::Key>,
        _vals: &[Self::Value],
    ) -> KernelOutput<Self::Key, Self::Value> {
        // Jobs that bypass sort+reduce never reach here.
        Ok((KvSet::new(), at))
    }

    /// The paper's reduce-chunking callback (§4.3): how many value *sets*
    /// (key segments) the engine should copy to the GPU for the next
    /// reduce kernel. Default: all remaining.
    fn reduce_sets_per_chunk(&self, remaining: usize) -> usize {
        remaining
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_pipeline_is_plain_round_robin_radix() {
        let p = PipelineConfig::default();
        assert_eq!(p.map_mode, MapMode::Plain);
        assert!(!p.combine);
        assert_eq!(p.partition, PartitionMode::RoundRobin);
        assert_eq!(p.sort, SortMode::Radix);
        assert!(p.sort_and_reduce);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn the_partition_builder_keeps_every_other_field() {
        let partial = PipelineConfig {
            map_mode: MapMode::PartialReduce,
            sort: SortMode::Bitonic,
            sort_and_reduce: false,
            ..PipelineConfig::default()
        };
        let p = partial.with_partition(PartitionMode::None);
        assert_eq!(p.map_mode, MapMode::PartialReduce);
        assert_eq!(p.partition, PartitionMode::None);
        assert_eq!(p.sort, SortMode::Bitonic);
        assert!(!p.sort_and_reduce);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn accumulate_plus_combine_is_invalid() {
        let p = PipelineConfig {
            map_mode: MapMode::Accumulate,
            combine: true,
            ..PipelineConfig::default()
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn partial_reduce_plus_combine_is_invalid() {
        let p = PipelineConfig {
            map_mode: MapMode::PartialReduce,
            combine: true,
            ..PipelineConfig::default()
        };
        assert!(p.validate().is_err());
    }

    struct RoundRobinProbe;
    impl GpmrJob for RoundRobinProbe {
        type Chunk = crate::chunk::SliceChunk<u32>;
        type Key = u32;
        type Value = u32;
        fn map(
            &self,
            _gpu: &mut Gpu,
            at: SimTime,
            _chunk: &Self::Chunk,
        ) -> SimGpuResult<(KvSet<u32, u32>, SimTime)> {
            Ok((KvSet::new(), at))
        }
    }

    #[test]
    fn block_partition_is_contiguous_and_ordered() {
        // Keys 0..100 over 4 ranks: contiguous quarters.
        let dest: Vec<u32> = (0..=100u64).map(|k| block_partition(k, 100, 4)).collect();
        // Monotone non-decreasing and hits every rank.
        assert!(dest.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(dest[0], 0);
        assert_eq!(dest[100], 3);
        for r in 0..4 {
            assert!(dest.contains(&r));
        }
        // Out-of-range keys clamp to the last rank.
        assert_eq!(block_partition(1_000_000, 100, 4), 3);
        // Degenerate cases.
        assert_eq!(block_partition(5, 0, 4), 0);
        assert_eq!(block_partition(5, 100, 1), 0);
        assert_eq!(block_partition(5, 100, 0), 0);
    }

    #[test]
    fn block_partition_balances_uniform_keys() {
        let mut counts = [0u32; 8];
        for k in 0..8000u64 {
            counts[block_partition(k, 7999, 8) as usize] += 1;
        }
        for &c in &counts {
            assert!((900..=1100).contains(&c), "imbalanced: {counts:?}");
        }
    }

    #[test]
    fn default_partition_is_key_mod_ranks() {
        let j = RoundRobinProbe;
        assert_eq!(j.partition(&10, 4), 2);
        assert_eq!(j.partition(&10, 1), 0);
        // ranks=0 is clamped rather than dividing by zero
        assert_eq!(j.partition(&10, 0), 0);
    }

    #[test]
    fn derive_splitters_cuts_uniform_samples_evenly() {
        let samples: Vec<u64> = (0..1000).collect();
        let splitters = derive_splitters(&samples, 4);
        assert_eq!(splitters.len(), 3);
        assert!(splitters.windows(2).all(|w| w[0] < w[1]));
        // Each quarter of the sample mass lands in its own range.
        let mode = PartitionMode::Range { splitters };
        let mut counts = [0u32; 4];
        for k in 0..1000u64 {
            counts[mode.route_radix(k, 4).unwrap() as usize] += 1;
        }
        for &c in &counts {
            assert!((200..=300).contains(&c), "imbalanced: {counts:?}");
        }
    }

    #[test]
    fn derive_splitters_isolates_heavy_duplicates() {
        // 90% of the sample is one key: the greedy walk must give it a
        // band of its own ([7, 8)) rather than lumping neighbours in.
        let mut samples = vec![7u64; 900];
        samples.extend(0..100u64);
        let splitters = derive_splitters(&samples, 8);
        assert!(splitters.len() <= 7);
        assert!(splitters.windows(2).all(|w| w[0] < w[1]));
        let mode = PartitionMode::Range {
            splitters: splitters.clone(),
        };
        let heavy = mode.route_radix(7, 8).unwrap();
        for k in (0..100u64).filter(|&k| k != 7) {
            assert_ne!(
                mode.route_radix(k, 8).unwrap(),
                heavy,
                "key {k} shares a band with the heavy key ({splitters:?})"
            );
        }
    }

    #[test]
    fn derive_splitters_degenerate_inputs() {
        assert!(derive_splitters(&[], 4).is_empty());
        assert!(derive_splitters(&[1, 2, 3], 1).is_empty());
        assert!(derive_splitters(&[1, 2, 3], 0).is_empty());
    }

    #[test]
    fn range_mode_routes_by_partition_point() {
        let mode = PartitionMode::Range {
            splitters: vec![10, 20],
        };
        assert_eq!(mode.route_radix(0, 3), Some(0));
        assert_eq!(mode.route_radix(10, 3), Some(1)); // <= goes right
        assert_eq!(mode.route_radix(15, 3), Some(1));
        assert_eq!(mode.route_radix(20, 3), Some(2));
        assert_eq!(mode.route_radix(u64::MAX, 3), Some(2));
        assert_eq!(mode.discriminant(), 3);
        assert_eq!(PartitionMode::Custom.route_radix(5, 3), None);
    }
}
