//! Sparse Integer Occurrence (SIO): count occurrences of each integer in
//! a randomly-distributed sequence (paper §5.3.2).
//!
//! The stress benchmark for "many key-value pairs": every input element
//! emits a pair, nothing compacts the intermediate data (the paper found
//! Partial Reduction and Accumulation yield no speedup on sparse keys and
//! Combine causes slowdown), so the PCI-e bus, the network, and the Sort
//! stage all carry the full data volume. The mapper reads *two* integers
//! per thread for efficient memory access; the best reducer is one key
//! per thread with a serial value sum (block-per-key performed worse on
//! sparse data — most keys have fewer than five values).
//!
//! Those two kernels, [`count_map`] and [`sum_reduce`], are generic over
//! the key type: the job service's batched pass runs them on slot-tagged
//! `u64` keys rather than keeping a copy of its own.

use gpmr_core::{GpmrJob, Key, KvSet, PipelineConfig, SliceChunk};
use gpmr_primitives::Segments;
use gpmr_sim_gpu::{Gpu, LaunchConfig, SimGpuResult, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Map-stage configuration for SIO ablations. The paper's final choice is
/// [`SioMode::Plain`]: "we forego Partial Reduction and Accumulation as
/// they yield no speedup with our intermediate data, and we skip Combine
/// as it causes slowdown". The other modes exist to measure exactly that.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SioMode {
    /// The paper's configuration: ship every emitted pair.
    #[default]
    Plain,
    /// GPU-side Partial Reduction after each map (sort + segmented fold of
    /// an almost-unique key set: pure overhead on sparse keys).
    PartialReduce,
    /// CPU-stored global Combine before partitioning (defers all binning
    /// until maps finish: slowdown).
    Combine,
}

/// The SIO job. Pipeline: plain map, round-robin partition, radix sort,
/// thread-per-key reduce.
#[derive(Clone, Debug, Default)]
pub struct SioJob {
    mode: SioMode,
    block_keyspace: Option<u64>,
    splitters: Option<Vec<u64>>,
    reduce_sets: Option<usize>,
    bitonic_sort: bool,
}

impl SioJob {
    /// The ablation constructor; `SioJob::default()` is the paper's
    /// configuration.
    pub fn with_mode(mode: SioMode) -> Self {
        SioJob {
            mode,
            ..SioJob::default()
        }
    }

    /// Use the comparator-network (bitonic) Sorter instead of the default
    /// radix sort — the fallback GPMR uses for non-integer keys, measured
    /// by the sorter ablation.
    pub fn with_bitonic_sort(mut self) -> Self {
        self.bitonic_sort = true;
        self
    }

    /// Use the consecutive-blocks partitioner over a known key space
    /// `[0, max_key]` instead of round-robin (the paper's §4.1
    /// alternative; the distribution ablation compares the two).
    pub fn with_block_partition(mut self, max_key: u64) -> Self {
        self.block_keyspace = Some(max_key);
        self
    }

    /// Cap the number of value sets per reduce kernel (the paper's §4.3
    /// reduce-chunking callback; GPMR keeps issuing it until the last
    /// sequence is processed). Default: all remaining sets in one kernel.
    ///
    /// ```
    /// use gpmr_apps::sio::{generate_integers, sio_chunks, SioJob};
    /// use gpmr_core::run_job;
    /// use gpmr_sim_net::Cluster;
    /// let chunks = sio_chunks(&generate_integers(20_000, 3), 16 << 10);
    /// let one = |job: &SioJob| {
    ///     let mut cluster = Cluster::accelerator(2, gpmr_sim_gpu::GpuSpec::gt200());
    ///     run_job(&mut cluster, job, chunks.clone()).unwrap().merged_output()
    /// };
    /// assert_eq!(one(&SioJob::default()), one(&SioJob::default().with_reduce_chunk(100)));
    /// ```
    pub fn with_reduce_chunk(mut self, sets: usize) -> Self {
        self.reduce_sets = Some(sets.max(1));
        self
    }

    /// Partition by key range using sampled `splitters` (ascending;
    /// reducer `r` owns keys in `[splitters[r-1], splitters[r])`) instead
    /// of round-robin. This is the skew-aware shuffle: under a Zipf key
    /// distribution round-robin lets hot keys collide on `k % R`, while
    /// sampled splitters equalize pair *mass* per reducer. Derive the
    /// splitters with [`gpmr_core::derive_splitters`] from a key sample.
    pub fn with_range_partition(mut self, splitters: Vec<u64>) -> Self {
        self.splitters = Some(splitters);
        self
    }
}

/// Items handled per map block (each thread reads two integers, 256
/// threads per block, 8 rounds).
const ITEMS_PER_MAP_BLOCK: usize = 4096;

impl GpmrJob for SioJob {
    type Chunk = SliceChunk<u32>;
    type Key = u32;
    type Value = u32;

    fn pipeline(&self) -> PipelineConfig {
        let mut cfg = match self.mode {
            SioMode::Plain => PipelineConfig::default(),
            SioMode::PartialReduce => PipelineConfig {
                map_mode: gpmr_core::MapMode::PartialReduce,
                ..PipelineConfig::default()
            },
            SioMode::Combine => PipelineConfig {
                combine: true,
                ..PipelineConfig::default()
            },
        };
        if self.block_keyspace.is_some() {
            cfg.partition = gpmr_core::PartitionMode::Custom;
        }
        if let Some(splitters) = &self.splitters {
            cfg.partition = gpmr_core::PartitionMode::Range {
                splitters: splitters.clone(),
            };
        }
        if self.bitonic_sort {
            cfg.sort = gpmr_core::SortMode::Bitonic;
        }
        cfg
    }

    fn partition(&self, key: &u32, ranks: u32) -> u32 {
        match self.block_keyspace {
            Some(max) => gpmr_core::block_partition(u64::from(*key), max, ranks),
            None => key % ranks.max(1),
        }
    }

    fn partial_reduce(
        &self,
        gpu: &mut Gpu,
        at: SimTime,
        pairs: KvSet<u32, u32>,
    ) -> gpmr_sim_gpu::SimGpuResult<(KvSet<u32, u32>, SimTime)> {
        gpmr_core::helpers::combine_pairs(gpu, at, pairs, |a, b| a + b)
    }

    fn combine_op(&self, a: u32, b: u32) -> u32 {
        a + b
    }

    fn map(
        &self,
        gpu: &mut Gpu,
        at: SimTime,
        chunk: &Self::Chunk,
    ) -> SimGpuResult<(KvSet<u32, u32>, SimTime)> {
        count_map(gpu, at, chunk.items.clone())
    }

    fn reduce_sets_per_chunk(&self, remaining: usize) -> usize {
        match self.reduce_sets {
            Some(cap) => cap.min(remaining),
            None => remaining,
        }
    }

    fn reduce(
        &self,
        gpu: &mut Gpu,
        at: SimTime,
        segs: &Segments<u32>,
        vals: &[u32],
    ) -> SimGpuResult<(KvSet<u32, u32>, SimTime)> {
        sum_reduce(gpu, at, segs, vals)
    }
}

/// SIO's map kernel: emit `(key, 1)` for every input integer, in input
/// order. Two integers per thread: one fully-coalesced read of the range
/// and one coalesced write of each emitted pair, `size_of::<K>()` plus 4
/// bytes wide. `keys` are the chunk's integers, already carrying whatever
/// tag the caller routes by (the job service's batched pass widens them
/// to `u64`), so the read stays one `u32` per item. The launch charges
/// each block's cost; the pairs are written once, into one set.
pub fn count_map<K: Key>(
    gpu: &mut Gpu,
    at: SimTime,
    keys: Vec<K>,
) -> SimGpuResult<(KvSet<K, u32>, SimTime)> {
    let n = keys.len();
    let cfg = LaunchConfig::for_items(n, ITEMS_PER_MAP_BLOCK, 256);
    let (_, res) = gpu.launch(at, &cfg, |ctx| {
        let range = ctx.item_range(n);
        ctx.charge_read::<u32>(range.len());
        ctx.charge_write::<K>(range.len());
        ctx.charge_write::<u32>(range.len());
        ctx.charge_flops(range.len() as u64);
    })?;
    Ok((KvSet::from_parts(keys, vec![1; n]), res.end))
}

/// SIO's reduce kernel: one key per thread, each thread serially summing
/// its values (uncoalesced reads — the paper's final, fastest variant).
/// A block's cost follows from how many values its keys own; the sums
/// are written once, into one set.
pub fn sum_reduce<K: Key>(
    gpu: &mut Gpu,
    at: SimTime,
    segs: &Segments<K>,
    vals: &[u32],
) -> SimGpuResult<(KvSet<K, u32>, SimTime)> {
    if segs.is_empty() {
        return Ok((KvSet::new(), at));
    }
    let cfg = LaunchConfig::for_items(segs.len(), 2048, 256);
    let (_, res) = gpu.launch(at, &cfg, |ctx| {
        let range = ctx.item_range(segs.len());
        let values = segs.offsets[range.end] - segs.offsets[range.start];
        ctx.charge_read_uncoalesced::<u32>(values);
        ctx.charge_flops(values as u64);
        ctx.charge_write::<K>(range.len());
        ctx.charge_write::<u32>(range.len());
    })?;
    let sums = segs
        .offsets
        .windows(2)
        .map(|w| vals[w[0]..w[1]].iter().sum())
        .collect();
    Ok((KvSet::from_parts(segs.keys.clone(), sums), res.end))
}

/// Generate `n` random integers over a sparse key space of `n` distinct
/// possible keys (most keys occur a handful of times, as in the paper).
pub fn generate_integers(n: usize, seed: u64) -> Vec<u32> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x53494f);
    let space = key_space(n);
    (0..n).map(|_| rng.gen_range(0..space)).collect()
}

/// The keys [`generate_integers`] draws from, `0..key_space(n)`: `n`, at
/// least 16, and saturating at `u32::MAX` rather than wrapping at 2³².
fn key_space(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX).max(16)
}

/// Split input into chunks of `chunk_bytes` bytes each.
pub fn sio_chunks(data: &[u32], chunk_bytes: usize) -> Vec<SliceChunk<u32>> {
    SliceChunk::split(data, (chunk_bytes / 4).max(1))
}

/// Generate `n` Zipf(`s`)-distributed integers over `[0, space)`: rank-1
/// is the hottest key, rank-`space` the coldest — the skewed workload the
/// range partitioner exists for. Inverse-CDF sampling against the exact
/// (finite) harmonic normalizer, deterministic in `seed`.
pub fn generate_zipf_integers(n: usize, space: u32, s: f64, seed: u64) -> Vec<u32> {
    let space = space.max(2);
    // CDF over ranks 1..=space: cdf[k] = H_{k,s} / H_{space,s}.
    let mut cdf = Vec::with_capacity(space as usize);
    let mut acc = 0.0f64;
    for k in 1..=space {
        acc += 1.0 / f64::from(k).powf(s);
        cdf.push(acc);
    }
    let total = acc;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5a49_5046);
    (0..n)
        .map(|_| {
            let u = rng.gen_range(0.0..total);
            // First rank whose cumulative mass covers u; the rank (minus
            // one) is the emitted key, so key 0 is the hottest.
            cdf.partition_point(|&c| c < u) as u32
        })
        .collect()
}

/// Sequential reference: occurrence counts per integer, as `(key, count)`
/// pairs in ascending key order, each key once. One counting sweep with
/// no hashing and nothing from the engine: a dense table of `max + 1`
/// counts when the largest key is below twice the input length (every
/// [`generate_integers`] input of 16 keys or more), otherwise a sorted
/// copy counted run by run.
pub fn cpu_reference(data: &[u32]) -> Vec<(u32, u32)> {
    let Some(&max) = data.iter().max() else {
        return Vec::new();
    };
    if (max as usize) < 2 * data.len() {
        let mut table = vec![0u32; max as usize + 1];
        for &x in data {
            table[x as usize] += 1;
        }
        (0..=max).zip(table).filter(|&(_, c)| c > 0).collect()
    } else {
        let mut sorted = data.to_vec();
        sorted.sort_unstable();
        sorted
            .chunk_by(|a, b| a == b)
            .map(|run| (run[0], run.len() as u32))
            .collect()
    }
}

/// The `(key, count)` pairs of a job's output in ascending key order, as
/// [`cpu_reference`] gives them; a key reduced twice appears twice.
pub fn counts_from_output(output: &KvSet<u32, u32>) -> Vec<(u32, u32)> {
    let mut counts: Vec<(u32, u32)> = output.iter().map(|(k, v)| (*k, *v)).collect();
    counts.sort_unstable();
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpmr_core::run_job;
    use gpmr_sim_gpu::GpuSpec;
    use gpmr_sim_net::Cluster;
    use std::collections::HashMap;

    #[test]
    fn sio_matches_reference_on_one_gpu() {
        let data = generate_integers(20_000, 1);
        let mut cluster = Cluster::accelerator(1, GpuSpec::gt200());
        let result = run_job(
            &mut cluster,
            &SioJob::default(),
            sio_chunks(&data, 16 * 1024),
        )
        .unwrap();
        assert_eq!(
            counts_from_output(&result.merged_output()),
            cpu_reference(&data)
        );
    }

    #[test]
    fn sio_matches_reference_on_eight_gpus() {
        let data = generate_integers(50_000, 2);
        let mut cluster = Cluster::accelerator(8, GpuSpec::gt200());
        let result = run_job(
            &mut cluster,
            &SioJob::default(),
            sio_chunks(&data, 8 * 1024),
        )
        .unwrap();
        assert_eq!(
            counts_from_output(&result.merged_output()),
            cpu_reference(&data)
        );
        // Round-robin partitioning: every rank holds only keys ≡ rank (mod 8).
        for (r, out) in result.outputs.iter().enumerate() {
            assert!(out.keys.iter().all(|k| k % 8 == r as u32));
        }
    }

    #[test]
    fn sio_total_count_equals_input_len() {
        let data = generate_integers(30_000, 3);
        let mut cluster = Cluster::accelerator(4, GpuSpec::gt200());
        let result = run_job(
            &mut cluster,
            &SioJob::default(),
            sio_chunks(&data, 16 * 1024),
        )
        .unwrap();
        let total: u64 = result
            .merged_output()
            .vals
            .iter()
            .map(|&v| u64::from(v))
            .sum();
        assert_eq!(total, 30_000);
        assert_eq!(result.timings.pairs_emitted, 30_000);
    }

    #[test]
    fn ablation_modes_produce_identical_counts() {
        let data = generate_integers(30_000, 9);
        let expect = cpu_reference(&data);
        for mode in [SioMode::Plain, SioMode::PartialReduce, SioMode::Combine] {
            let mut cluster = Cluster::accelerator(4, GpuSpec::gt200());
            let job = SioJob::with_mode(mode);
            let result = run_job(&mut cluster, &job, sio_chunks(&data, 16 * 1024)).unwrap();
            assert_eq!(counts_from_output(&result.merged_output()), expect);
        }
    }

    #[test]
    fn partial_reduce_shrinks_the_shuffle_on_dense_keys() {
        // Dense keys (many duplicates per chunk) let partial reduction
        // compact pairs before the shuffle.
        let data: Vec<u32> = (0..40_000u32).map(|i| i % 64).collect();
        let mut c1 = Cluster::accelerator(2, GpuSpec::gt200());
        let plain = run_job(&mut c1, &SioJob::default(), sio_chunks(&data, 32 * 1024)).unwrap();
        let mut c2 = Cluster::accelerator(2, GpuSpec::gt200());
        let pr = run_job(
            &mut c2,
            &SioJob::with_mode(SioMode::PartialReduce),
            sio_chunks(&data, 32 * 1024),
        )
        .unwrap();
        assert!(pr.timings.pairs_shuffled < plain.timings.pairs_shuffled / 10);
        assert_eq!(
            counts_from_output(&pr.merged_output()),
            cpu_reference(&data)
        );
    }

    #[test]
    fn bitonic_sorter_is_correct_but_slower() {
        let data = generate_integers(60_000, 13);
        let expect = cpu_reference(&data);
        let mut c1 = Cluster::accelerator(2, GpuSpec::gt200());
        let radix = run_job(&mut c1, &SioJob::default(), sio_chunks(&data, 32 * 1024)).unwrap();
        let mut c2 = Cluster::accelerator(2, GpuSpec::gt200());
        let bitonic = run_job(
            &mut c2,
            &SioJob::default().with_bitonic_sort(),
            sio_chunks(&data, 32 * 1024),
        )
        .unwrap();
        assert_eq!(counts_from_output(&radix.merged_output()), expect);
        assert_eq!(counts_from_output(&bitonic.merged_output()), expect);
        assert!(
            bitonic.total_time().as_secs() > radix.total_time().as_secs(),
            "bitonic {} should be slower than radix {}",
            bitonic.total_time(),
            radix.total_time()
        );
    }

    /// The reference before it counted in one sweep, kept verbatim.
    fn hash_map_reference(data: &[u32]) -> HashMap<u32, u32> {
        let mut counts = HashMap::new();
        for &x in data {
            *counts.entry(x).or_insert(0) += 1;
        }
        counts
    }

    /// The reference's pairs in ascending key order.
    fn sorted_reference(data: &[u32]) -> Vec<(u32, u32)> {
        let mut counts: Vec<(u32, u32)> = cpu_reference(data).into_iter().collect();
        counts.sort_unstable();
        counts
    }

    /// FNV-1a of the keys' then the counts' little-endian encoding: the
    /// pair hash of the build that recorded these digests.
    fn reference_digest(data: &[u32]) -> u64 {
        let (keys, counts): (Vec<u32>, Vec<u32>) = sorted_reference(data).into_iter().unzip();
        let bytes: Vec<u8> = keys
            .iter()
            .chain(&counts)
            .flat_map(|x| x.to_le_bytes())
            .collect();
        gpmr_core::journal::fnv1a(&bytes)
    }

    #[test]
    fn reference_digests_are_the_recorded_ones() {
        let uniform = generate_integers(1_000_000, 1);
        assert_eq!(reference_digest(&uniform), 0x4f738bad3bf8f505);
        let zipf = generate_zipf_integers(200_000, 1 << 20, 1.1, 3);
        assert_eq!(reference_digest(&zipf), 0x74b120ac8c6bc6dd);
    }

    #[test]
    fn reference_equals_the_hash_map_definition() {
        let sparse = generate_zipf_integers(20_000, 1 << 20, 1.1, 4);
        let max = sparse.iter().copied().max().unwrap_or(0);
        assert!(
            max as usize >= 2 * sparse.len(),
            "the sparse Zipf input has max {max}"
        );
        let cases = [
            ("empty", vec![]),
            ("one key", vec![7]),
            ("all keys equal", vec![3; 1_000]),
            ("0 and u32::MAX", vec![u32::MAX, 0, u32::MAX]),
            ("uniform, 16", generate_integers(16, 1)),
            ("uniform, 20 000", generate_integers(20_000, 2)),
            ("uniform, 1 M", generate_integers(1_000_000, 3)),
            ("Zipf, space above n", sparse),
            (
                "Zipf, space below n",
                generate_zipf_integers(50_000, 1_000, 1.1, 5),
            ),
        ];
        for (what, data) in cases {
            let got = cpu_reference(&data);
            assert!(
                got.windows(2).all(|w| w[0].0 < w[1].0),
                "{what}: keys ascend"
            );
            let total: usize = got.iter().map(|&(_, c)| c as usize).sum();
            assert_eq!(total, data.len(), "{what}");
            let mut want: Vec<(u32, u32)> = hash_map_reference(&data).into_iter().collect();
            want.sort_unstable();
            assert_eq!(got, want, "{what}");
        }
    }

    #[test]
    fn key_space_saturates_at_u32_max() {
        assert_eq!(key_space(0), 16);
        assert_eq!(key_space(20_000), 20_000);
        for n in [(1usize << 32) - 1, 1 << 32, (1 << 32) + 1] {
            assert_eq!(key_space(n), u32::MAX, "n = {n}");
        }
    }

    #[test]
    fn generator_is_deterministic_and_sparse() {
        let a = generate_integers(10_000, 7);
        assert_eq!(a, generate_integers(10_000, 7));
        let distinct: std::collections::HashSet<_> = a.iter().collect();
        // Sparse: many distinct keys relative to input size.
        assert!(distinct.len() > 5_000);
    }
}
