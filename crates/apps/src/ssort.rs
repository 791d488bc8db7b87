//! Distributed sample sort on the round driver.
//!
//! The classic two-round MapReduce sort (Goodrich et al.'s
//! sorting-in-MapReduce construction, and the backbone of TeraSort):
//!
//! * **Round 0 — sample.** Every chunk's mapper emits each `p`-th element
//!   (by global position); [`gpmr_core::PartitionMode::None`] routes all
//!   samples to rank 0, whose reduce collapses them to `(key, count)`.
//!   [`SsortRounds::absorb`] expands the histogram back into a sample
//!   multiset and derives range splitters with
//!   [`gpmr_core::derive_splitters`].
//! * **Round 1 — sort.** The *same* input chunks run again
//!   ([`gpmr_core::rounds::RoundDecision::Again`], device-resident after
//!   a quiet fitting round 0), now shuffled with
//!   [`gpmr_core::PartitionMode::Range`]: reducer `r` receives exactly
//!   the keys in its sampled range, the engine's radix sort orders them,
//!   and reduce emits the rank's sorted `(key, count)` run. Concatenating
//!   the per-rank runs in rank order yields the globally sorted multiset
//!   — no merge step.
//!
//! Sampling is what makes the shuffle skew-aware: under a Zipf key
//! distribution, round-robin (`k % R`) lands the hot keys on whichever
//! ranks their low bits pick, while sampled splitters equalize pair
//! *mass* per reducer (the splitters crowd together where the data
//! crowds).

use gpmr_core::rounds::{RoundJob, RoundStep};
use gpmr_core::{derive_splitters, GpmrJob, KvSet, PartitionMode, PipelineConfig, SliceChunk};
use gpmr_primitives::Segments;
use gpmr_sim_gpu::{Gpu, LaunchConfig, SimGpuResult, SimTime};

/// Items handled per map block (SIO's mapper geometry: 256 threads, two
/// integers per thread, 8 rounds).
const ITEMS_PER_MAP_BLOCK: usize = 4096;

/// Which pass of the sort a [`SsortJob`] runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Emit every `p`-th element, all to rank 0.
    Sample,
    /// Emit everything, range-partitioned by the sampled splitters.
    Sort,
}

/// One pass of the distributed sample sort. Built per round by
/// [`SsortRounds`]; not usually constructed directly.
#[derive(Clone, Debug)]
pub struct SsortJob {
    phase: Phase,
    sample_every: usize,
    splitters: Vec<u64>,
}

impl GpmrJob for SsortJob {
    type Chunk = SliceChunk<u32>;
    type Key = u32;
    type Value = u32;

    fn pipeline(&self) -> PipelineConfig {
        PipelineConfig {
            partition: match self.phase {
                Phase::Sample => PartitionMode::None,
                Phase::Sort => PartitionMode::Range {
                    splitters: self.splitters.clone(),
                },
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
        let n = chunk.items.len();
        let cfg = LaunchConfig::for_items(n, ITEMS_PER_MAP_BLOCK, 256);
        let stride = self.sample_every.max(1);
        let phase = self.phase;
        let offset = chunk.global_offset as usize;
        let (launch, res) = gpu.launch(at, &cfg, |ctx| {
            let range = ctx.item_range(n);
            ctx.charge_read::<u32>(range.len());
            let mut out: KvSet<u32, u32> = KvSet::new();
            match phase {
                Phase::Sample => {
                    // Strided sample by *global* position, so the sample
                    // set is independent of the chunking.
                    for i in range.clone() {
                        if (offset + i).is_multiple_of(stride) {
                            out.push(chunk.items[i], 1);
                        }
                    }
                }
                Phase::Sort => {
                    for &x in &chunk.items[range.clone()] {
                        out.push(x, 1);
                    }
                }
            }
            ctx.charge_write::<u32>(2 * out.len());
            ctx.charge_flops(range.len() as u64);
            out
        })?;
        let mut pairs = KvSet::new();
        for p in launch.outputs {
            pairs.append(p);
        }
        Ok((pairs, res.end))
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
        // One key per thread, serial count sum: the output is the rank's
        // sorted run as (key, multiplicity).
        let cfg = LaunchConfig::for_items(segs.len(), 2048, 256);
        let (launch, res) = gpu.launch(at, &cfg, |ctx| {
            let range = ctx.item_range(segs.len());
            let mut out: KvSet<u32, u32> = KvSet::with_capacity(range.len());
            for s in range {
                let r = segs.range(s);
                ctx.charge_read_uncoalesced::<u32>(r.len());
                ctx.charge_flops(r.len() as u64);
                out.push(segs.keys[s], vals[r].iter().sum::<u32>());
            }
            ctx.charge_write::<u32>(2 * out.len());
            out
        })?;
        let mut out = KvSet::new();
        for p in launch.outputs {
            out.append(p);
        }
        Ok((out, res.end))
    }
}

/// The two-round sample-sort driver.
pub struct SsortRounds {
    ranks: u32,
    sample_every: usize,
    /// Splitters derived from round 0's sample (empty until then).
    pub splitters: Vec<u64>,
}

impl SsortRounds {
    /// Sort across `ranks` reducers, sampling every `sample_every`-th
    /// element in round 0.
    pub fn new(ranks: u32, sample_every: usize) -> Self {
        SsortRounds {
            ranks: ranks.max(1),
            sample_every: sample_every.max(1),
            splitters: Vec::new(),
        }
    }
}

impl RoundJob for SsortRounds {
    type Job = SsortJob;

    fn max_rounds(&self) -> u32 {
        2
    }

    fn job(&self, round: u32) -> SsortJob {
        SsortJob {
            phase: if round == 0 {
                Phase::Sample
            } else {
                Phase::Sort
            },
            sample_every: self.sample_every,
            splitters: self.splitters.clone(),
        }
    }

    fn control_hash(&self) -> u64 {
        let mut h = gpmr_core::journal::Fnv64::new();
        h.write_u64(self.splitters.len() as u64);
        for &s in &self.splitters {
            h.write_u64(s);
        }
        h.finish()
    }

    fn absorb(&mut self, round: u32, outputs: &[KvSet<u32, u32>]) -> RoundStep {
        if round > 0 {
            return RoundStep::done();
        }
        // Expand the sample histogram back to a multiset: duplicate keys
        // must weigh as heavily in the quantiles as they do in the data.
        let mut samples = Vec::new();
        for o in outputs {
            for (k, c) in o.iter() {
                for _ in 0..*c {
                    samples.push(u64::from(*k));
                }
            }
        }
        self.splitters = derive_splitters(&samples, self.ranks);
        // The splitters are the control state every mapper needs next
        // round.
        RoundStep::again((self.splitters.len() as u64) * 8)
    }
}

/// Concatenate per-rank sorted runs in rank order into one `(key, count)`
/// sequence — the globally sorted multiset if the sort worked.
pub fn concatenated_runs(outputs: &[KvSet<u32, u32>]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for o in outputs {
        for (k, c) in o.iter() {
            out.push((*k, *c));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sio::{generate_integers, generate_zipf_integers, sio_chunks};
    use gpmr_core::rounds::run_rounds;
    use gpmr_core::EngineTuning;
    use gpmr_sim_gpu::GpuSpec;
    use gpmr_sim_net::Cluster;
    use gpmr_telemetry::Telemetry;
    use std::collections::HashMap;

    fn run_ssort(data: &[u32], gpus: u32, sample_every: usize) -> Vec<KvSet<u32, u32>> {
        let mut cluster = Cluster::accelerator(gpus, GpuSpec::gt200());
        let mut driver = SsortRounds::new(gpus, sample_every);
        let res = run_rounds(
            &mut cluster,
            &mut driver,
            sio_chunks(data, 1 << 18),
            &EngineTuning::default(),
            &Telemetry::disabled(),
            None,
        )
        .unwrap();
        assert_eq!(res.rounds, 2);
        res.outputs
    }

    fn assert_sorted_and_complete(data: &[u32], outputs: &[KvSet<u32, u32>]) {
        let runs = concatenated_runs(outputs);
        for w in runs.windows(2) {
            assert!(w[0].0 < w[1].0, "global order broken: {:?}", w);
        }
        let mut hist: HashMap<u32, u32> = HashMap::new();
        for &x in data {
            *hist.entry(x).or_default() += 1;
        }
        assert_eq!(runs.len(), hist.len(), "distinct key count");
        for (k, c) in runs {
            assert_eq!(hist.get(&k), Some(&c), "multiplicity of {k}");
        }
    }

    #[test]
    fn sample_sort_produces_globally_sorted_output() {
        let data = generate_integers(120_000, 77);
        let outputs = run_ssort(&data, 4, 97);
        assert_sorted_and_complete(&data, &outputs);
    }

    #[test]
    fn sample_sort_handles_zipf_skew() {
        // s = 1.1 keeps the hottest key under 1/8 of total mass; a single
        // key heavier than a whole reducer share is unsplittable at key
        // granularity and no partitioner could meet the bound.
        let data = generate_zipf_integers(150_000, 1 << 16, 1.1, 5);
        let outputs = run_ssort(&data, 8, 101);
        assert_sorted_and_complete(&data, &outputs);
        // Load balance: pairs received per reducer (sum of counts) must
        // not collapse onto a few ranks despite the hot head of the Zipf.
        let loads: Vec<u64> = outputs
            .iter()
            .map(|o| o.vals.iter().map(|&c| u64::from(c)).sum())
            .collect();
        let max = *loads.iter().max().unwrap() as f64;
        let mean = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
        assert!(
            max / mean <= 1.5,
            "range partition should bound skew: loads {loads:?}"
        );
    }

    #[test]
    fn one_rank_sort_degenerates_gracefully() {
        let data = generate_integers(10_000, 3);
        let outputs = run_ssort(&data, 1, 50);
        assert_sorted_and_complete(&data, &outputs);
    }
}
