//! Word Occurrence (WO): count occurrences of each dictionary word in a
//! text corpus (paper §5.3.3).
//!
//! The paper's GPU adaptations, all reproduced here:
//!
//! * **No string keys** — a minimal perfect hash assigns each dictionary
//!   word a dense 4-byte id; the map kernel emits `(hash(w), 1)`.
//! * **Accumulation** — an initial emission seeds all dictionary keys with
//!   value 0; map kernels then increment GPU-resident counters with
//!   fire-and-forget atomics, almost completely removing communication.
//! * **Partitioner crossover** — below a GPU-count threshold all pairs go
//!   to a single reducer (one kernel handles 43 k keys easily); past the
//!   threshold that reducer becomes the bottleneck and the default
//!   round-robin partitioner is enabled.
//! * **Warp-per-key reduce** — each warp sums one key's values with
//!   coalesced reads then a warp-wide reduction (the paper saw an order of
//!   magnitude improvement over thread-per-key here).

use std::sync::Arc;

use gpmr_core::{GpmrJob, KvSet, MapMode, PartitionMode, PipelineConfig, SliceChunk};
use gpmr_primitives::Segments;
use gpmr_sim_gpu::{Gpu, LaunchConfig, SimGpuResult, SimTime};

use crate::mph::is_separator;
use crate::text::{words_of, Dictionary};

/// GPU count past which WO switches from the single-reducer configuration
/// to round-robin partitioning (the paper's crossover).
pub const DEFAULT_PARTITION_CROSSOVER: u32 = 8;

/// The WO job.
#[derive(Clone)]
pub struct WoJob {
    dict: Arc<Dictionary>,
    gpus: u32,
    crossover: u32,
    accumulate: bool,
    partition_override: Option<PartitionMode>,
}

impl WoJob {
    /// Build the job for a run on `gpus` GPUs with the default crossover.
    pub fn new(dict: Arc<Dictionary>, gpus: u32) -> Self {
        WoJob {
            dict,
            gpus,
            crossover: DEFAULT_PARTITION_CROSSOVER,
            accumulate: true,
            partition_override: None,
        }
    }

    /// Override the partitioner crossover threshold (for the ablation
    /// bench that sweeps it).
    pub fn with_crossover(mut self, crossover: u32) -> Self {
        self.crossover = crossover;
        self
    }

    /// Disable Accumulation (ablation): every word emission ships through
    /// the full shuffle, giving WO "similar characteristics to SIO" — the
    /// paper saw dramatically worse performance before adding
    /// Accumulation.
    pub fn with_accumulation(mut self, accumulate: bool) -> Self {
        self.accumulate = accumulate;
        self
    }

    /// Force a specific partition mode instead of the crossover rule —
    /// how the skew bench pins round-robin vs sampled range splitters on
    /// the same Zipf corpus. Derive splitters from
    /// [`sample_word_keys`] + [`gpmr_core::derive_splitters`].
    pub fn with_partition(mut self, mode: PartitionMode) -> Self {
        self.partition_override = Some(mode);
        self
    }

    /// The dictionary in use.
    pub fn dictionary(&self) -> &Dictionary {
        &self.dict
    }

    /// The dictionary ids of the words starting within `range` of `text`,
    /// in text order: what one map block hands back. Words *starting* in
    /// the range belong to it; the last one may run past the range end.
    fn block_word_ids(&self, text: &[u8], range: std::ops::Range<usize>) -> Vec<u32> {
        // A word start needs a separator (or the text start) before it, so
        // starts lie at least two bytes apart.
        let mut ids = Vec::with_capacity(range.len() / 2 + 1);
        let mut i = range.start;
        // Step over the tail of a word that started in an earlier block.
        if i > 0 && !is_separator(text[i - 1]) {
            while i < range.end && !is_separator(text[i]) {
                i += 1;
            }
        }
        while i < range.end {
            if is_separator(text[i]) {
                i += 1;
                continue;
            }
            let (id, end) = self.dict.mph.index_at(text, i);
            ids.push(id);
            i = end;
        }
        ids
    }
}

/// Text bytes handled per map block (each thread scans one line; a block
/// covers a few kilobytes of lines).
const BYTES_PER_MAP_BLOCK: usize = 16 * 1024;

impl GpmrJob for WoJob {
    type Chunk = SliceChunk<u8>;
    type Key = u32;
    type Value = u32;

    fn pipeline(&self) -> PipelineConfig {
        PipelineConfig {
            map_mode: if self.accumulate {
                MapMode::Accumulate
            } else {
                MapMode::Plain
            },
            combine: false,
            partition: match &self.partition_override {
                Some(mode) => mode.clone(),
                None if self.gpus > self.crossover => PartitionMode::RoundRobin,
                None => PartitionMode::None,
            },
            ..PipelineConfig::default()
        }
    }

    fn map(
        &self,
        gpu: &mut Gpu,
        at: SimTime,
        chunk: &Self::Chunk,
    ) -> SimGpuResult<(KvSet<u32, u32>, SimTime)> {
        // Plain (non-accumulating) WO, used by the ablation bench: emit
        // one pair per word and ship them all.
        let text = &chunk.items;
        let n = text.len();
        let cfg = LaunchConfig::for_items(n, BYTES_PER_MAP_BLOCK, 256);
        let (locals, res) = gpu.launch(at, &cfg, |ctx| {
            let range = ctx.item_range(n);
            ctx.charge_read::<u8>(range.len());
            ctx.charge_flops(range.len() as u64);
            let ids = self.block_word_ids(text, range);
            ctx.charge_write::<u32>(2 * ids.len());
            ids
        })?;
        let keys = locals.outputs.concat();
        let ones = vec![1; keys.len()];
        Ok((KvSet::from_parts(keys, ones), res.end))
    }

    fn accumulate_init(
        &self,
        gpu: &mut Gpu,
        at: SimTime,
    ) -> SimGpuResult<(KvSet<u32, u32>, SimTime)> {
        let n = self.dict.len();
        // Initial map: emit every dictionary key with value 0.
        let cfg = LaunchConfig::for_items(n.max(1), 2048, 256);
        let (_, res) = gpu.launch(at, &cfg, |ctx| {
            let range = ctx.item_range(n);
            ctx.charge_write::<u32>(2 * range.len());
        })?;
        let state: KvSet<u32, u32> = (0..n as u32).map(|k| (k, 0)).collect();
        Ok((state, res.end))
    }

    fn map_accumulate(
        &self,
        gpu: &mut Gpu,
        at: SimTime,
        chunk: &Self::Chunk,
        state: &mut KvSet<u32, u32>,
    ) -> SimGpuResult<SimTime> {
        let text = &chunk.items;
        let n = text.len();
        let cfg = LaunchConfig::for_items(n, BYTES_PER_MAP_BLOCK, 256);
        let (locals, res) = gpu.launch(at, &cfg, |ctx| {
            let range = ctx.item_range(n);
            ctx.charge_read::<u8>(range.len());
            // Hashing is ~1 op per byte; one fire-and-forget atomic per
            // word into the resident emit space.
            ctx.charge_flops(range.len() as u64);
            let ids = self.block_word_ids(text, range);
            ctx.charge_atomics(ids.len() as u64);
            ids
        })?;
        // The atomics themselves: blocks cannot touch `state`, so each
        // hands back its word ids and they land here in one sweep. `+1` on
        // `u32` reorders freely, so block order does not matter.
        for id in locals.outputs.iter().flatten() {
            state.vals[*id as usize] += 1;
        }
        Ok(res.end)
    }

    fn reduce(
        &self,
        gpu: &mut Gpu,
        at: SimTime,
        segs: &Segments<u32>,
        vals: &[u32],
    ) -> SimGpuResult<(KvSet<u32, u32>, SimTime)> {
        if segs.is_empty() {
            return Ok((KvSet::new(), at));
        }
        // One key per *warp*: lanes read the key's values coalesced, then a
        // warp-wide reduction finishes the sum. A block hands back its
        // warps' sums by value (it may own fewer keys than it has warps),
        // so all blocks' sums are one allocation.
        const WARPS_PER_BLOCK: usize = 8;
        let cfg = LaunchConfig::for_items(segs.len(), WARPS_PER_BLOCK, 256);
        let (launch, res) = gpu.launch(at, &cfg, |ctx| {
            let range = ctx.item_range(segs.len());
            ctx.charge_write::<u32>(2 * range.len());
            let mut block = [0u32; WARPS_PER_BLOCK];
            for (sum, s) in block.iter_mut().zip(range.clone()) {
                *sum = ctx.warp_sum_u32(&vals[segs.range(s)]) as u32;
            }
            (range.len(), block)
        })?;
        let mut sums = Vec::with_capacity(segs.len());
        for (keys, block) in &launch.outputs {
            sums.extend_from_slice(&block[..*keys]);
        }
        Ok((KvSet::from_parts(segs.keys.clone(), sums), res.end))
    }
}

/// Sequential reference: counts per minimal-perfect-hash index.
pub fn cpu_reference(dict: &Dictionary, text: &[u8]) -> Vec<u32> {
    let mut counts = vec![0u32; dict.len()];
    for w in words_of(text) {
        counts[dict.mph.index(w) as usize] += 1;
    }
    counts
}

/// Host-side sampling pass for the skew-aware shuffle: the minimal
/// perfect hash key of every `stride`-th word of `text`. Feed the result
/// to [`gpmr_core::derive_splitters`] and pin the splitters with
/// [`WoJob::with_partition`].
pub fn sample_word_keys(dict: &Dictionary, text: &[u8], stride: usize) -> Vec<u64> {
    words_of(text)
        .step_by(stride.max(1))
        .map(|w| u64::from(dict.mph.index(w)))
        .collect()
}

/// Fold a WO job result back into dense per-word counts.
pub fn counts_from_output(dict: &Dictionary, output: &KvSet<u32, u32>) -> Vec<u32> {
    let mut counts = vec![0u32; dict.len()];
    for (k, v) in output.iter() {
        counts[*k as usize] += *v;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::text::{chunk_text, generate_text};
    use gpmr_core::run_job;
    use gpmr_sim_gpu::GpuSpec;
    use gpmr_sim_net::Cluster;

    fn setup(words: usize, bytes: usize, seed: u64) -> (Arc<Dictionary>, Vec<u8>) {
        let dict = Arc::new(Dictionary::generate(words, seed));
        let text = generate_text(&dict, bytes, seed + 1);
        (dict, text)
    }

    #[test]
    fn wo_matches_reference_single_gpu() {
        let (dict, text) = setup(200, 40_000, 11);
        let mut cluster = Cluster::accelerator(1, GpuSpec::gt200());
        let job = WoJob::new(dict.clone(), 1);
        let result = run_job(&mut cluster, &job, chunk_text(&text, 8_000)).unwrap();
        assert_eq!(
            counts_from_output(&dict, &result.merged_output()),
            cpu_reference(&dict, &text)
        );
    }

    #[test]
    fn wo_below_crossover_uses_single_reducer() {
        let (dict, text) = setup(150, 30_000, 12);
        let mut cluster = Cluster::accelerator(4, GpuSpec::gt200());
        let job = WoJob::new(dict.clone(), 4);
        assert_eq!(job.pipeline().partition, PartitionMode::None);
        let result = run_job(&mut cluster, &job, chunk_text(&text, 4_000)).unwrap();
        // All final pairs land on rank 0.
        assert!(result.outputs[1..].iter().all(KvSet::is_empty));
        assert_eq!(
            counts_from_output(&dict, &result.outputs[0]),
            cpu_reference(&dict, &text)
        );
    }

    #[test]
    fn wo_above_crossover_partitions() {
        let (dict, text) = setup(150, 60_000, 13);
        let gpus = 12;
        let mut cluster = Cluster::accelerator(gpus, GpuSpec::gt200());
        let job = WoJob::new(dict.clone(), gpus);
        assert_eq!(job.pipeline().partition, PartitionMode::RoundRobin);
        let result = run_job(&mut cluster, &job, chunk_text(&text, 4_000)).unwrap();
        // Work is spread: multiple ranks produce output.
        let nonempty = result.outputs.iter().filter(|o| !o.is_empty()).count();
        assert!(nonempty > 1);
        assert_eq!(
            counts_from_output(&dict, &result.merged_output()),
            cpu_reference(&dict, &text)
        );
    }

    #[test]
    fn wo_total_words_preserved() {
        let (dict, text) = setup(100, 25_000, 14);
        let whole_words = words_of(&text).count() as u64;
        let mut cluster = Cluster::accelerator(2, GpuSpec::gt200());
        let job = WoJob::new(dict.clone(), 2);
        let result = run_job(&mut cluster, &job, chunk_text(&text, 5_000)).unwrap();
        let total: u64 = result
            .merged_output()
            .vals
            .iter()
            .map(|&v| u64::from(v))
            .sum();
        assert_eq!(total, whole_words);
    }

    #[test]
    fn plain_mode_matches_accumulating_mode() {
        let (dict, text) = setup(120, 30_000, 15);
        let expect = cpu_reference(&dict, &text);

        let mut c1 = Cluster::accelerator(4, GpuSpec::gt200());
        let acc = run_job(
            &mut c1,
            &WoJob::new(dict.clone(), 4),
            chunk_text(&text, 5_000),
        )
        .unwrap();
        let mut c2 = Cluster::accelerator(4, GpuSpec::gt200());
        let plain = run_job(
            &mut c2,
            &WoJob::new(dict.clone(), 4).with_accumulation(false),
            chunk_text(&text, 5_000),
        )
        .unwrap();

        assert_eq!(counts_from_output(&dict, &acc.merged_output()), expect);
        assert_eq!(counts_from_output(&dict, &plain.merged_output()), expect);
        // Accumulation is the paper's headline WO optimization: it ships
        // at most one pair per dictionary word per rank, while plain mode
        // ships one pair per word occurrence.
        assert!(acc.timings.pairs_shuffled < plain.timings.pairs_shuffled);
    }

    #[test]
    fn crossover_override() {
        let dict = Arc::new(Dictionary::generate(10, 1));
        let job = WoJob::new(dict, 4).with_crossover(2);
        assert_eq!(job.pipeline().partition, PartitionMode::RoundRobin);
        assert_eq!(job.dictionary().len(), 10);
    }

    #[test]
    fn range_partition_balances_zipf_corpus() {
        // Plain-mode WO on a Zipf corpus: one pair per word occurrence,
        // so hot words translate directly into reducer load. Round-robin
        // scatters the hot keys wherever `mph(word) % R` lands them;
        // sampled splitters equalize pair mass.
        // s = 1.05 over 5k words keeps the hottest word near 13% of the
        // corpus — heavy enough to unbalance round-robin, but still small
        // enough that key-granularity splitters *can* reach balance. (At
        // s >= 1.2 the hot key alone exceeds the 1/8 fair share and no
        // key-level partitioner can bound the ratio; ssort's test covers
        // that regime.)
        let dict = Arc::new(Dictionary::generate(5_000, 21));
        let text = crate::text::generate_zipf_text(&dict, 200_000, 1.05, 22);
        let expect = cpu_reference(&dict, &text);
        let gpus = 8u32;

        let loads = |outputs: &[KvSet<u32, u32>]| -> Vec<u64> {
            outputs
                .iter()
                .map(|o| o.vals.iter().map(|&v| u64::from(v)).sum())
                .collect()
        };
        let ratio = |loads: &[u64]| -> f64 {
            let max = *loads.iter().max().unwrap() as f64;
            let mean = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
            max / mean
        };

        let mut c1 = Cluster::accelerator(gpus, GpuSpec::gt200());
        let rr = run_job(
            &mut c1,
            &WoJob::new(dict.clone(), gpus)
                .with_accumulation(false)
                .with_partition(PartitionMode::RoundRobin),
            chunk_text(&text, 16_000),
        )
        .unwrap();

        let splitters = gpmr_core::derive_splitters(&sample_word_keys(&dict, &text, 13), gpus);
        let mut c2 = Cluster::accelerator(gpus, GpuSpec::gt200());
        let range = run_job(
            &mut c2,
            &WoJob::new(dict.clone(), gpus)
                .with_accumulation(false)
                .with_partition(PartitionMode::Range { splitters }),
            chunk_text(&text, 16_000),
        )
        .unwrap();

        assert_eq!(counts_from_output(&dict, &rr.merged_output()), expect);
        assert_eq!(counts_from_output(&dict, &range.merged_output()), expect);

        let rr_ratio = ratio(&loads(&rr.outputs));
        let range_ratio = ratio(&loads(&range.outputs));
        assert!(
            range_ratio <= 1.5,
            "range partition must bound skew: {range_ratio:.3} (rr was {rr_ratio:.3})"
        );
        assert!(
            range_ratio < rr_ratio,
            "range ({range_ratio:.3}) should beat round-robin ({rr_ratio:.3})"
        );
    }

    #[test]
    fn block_word_ids_cover_each_word_once() {
        let (dict, mut text) = setup(300, 50_000, 16);
        // No trailing newline: the last word ends where the text does.
        while text.last().is_some_and(|&b| is_separator(b)) {
            text.pop();
        }
        let job = WoJob::new(dict.clone(), 1);
        let expect: Vec<u32> = words_of(&text).map(|w| dict.mph.index(w)).collect();
        // Block sizes that cut words in two, down to one byte per block.
        for block in [1usize, 2, 3, 7, 64, 1000, text.len()] {
            let mut got = Vec::new();
            let mut straddled = false;
            for start in (0..text.len()).step_by(block) {
                let end = (start + block).min(text.len());
                straddled |=
                    end < text.len() && !is_separator(text[end - 1]) && !is_separator(text[end]);
                got.extend(job.block_word_ids(&text, start..end));
            }
            assert_eq!(got, expect, "block size {block}");
            assert!(straddled || block == text.len());
        }
    }

    #[test]
    fn accumulate_state_matches_the_cpu_reference() {
        let dict = Arc::new(Dictionary::generate(400, 17));
        let uniform = generate_text(&dict, 200_000, 18);
        let zipf = crate::text::generate_zipf_text(&dict, 200_000, 1.1, 19);
        for text in [uniform, zipf] {
            let job = WoJob::new(dict.clone(), 1);
            let chunk = SliceChunk::new(0, 0, text.clone());
            let mut gpu = Gpu::new(GpuSpec::gt200());
            let (mut state, t) = job.accumulate_init(&mut gpu, SimTime::ZERO).unwrap();
            job.map_accumulate(&mut gpu, t, &chunk, &mut state).unwrap();
            assert_eq!(state.vals, cpu_reference(&dict, &text));
            assert_eq!(state.keys, (0..400).collect::<Vec<u32>>());
        }
    }
}
