//! The app table: the paper's five benchmarks behind one input type and
//! one run function.
//!
//! `gpmr run`, `gpmr analyze`, the perf gate and the paper harness all
//! answer "which benchmark — so which generator, chunker, job and
//! constants?" here: [`AppInput::generate`] draws the data and [`run`]
//! holds the only `match` that picks chunker, job, splitter sampling and
//! engine call. Adding a benchmark is one [`Benchmark`] variant and one
//! arm in each. What differs between callers stays an argument: WO's
//! dictionary and text seed (the CLI and the harness draw them
//! differently), the chunk size (each caller autotunes for its own
//! pipeline depth) and the [`RunOpts`].

use std::sync::Arc;

use gpmr_core::{
    derive_splitters, run_job_with, EngineResult, JobResult, JobTimings, KvSet, PartitionMode,
    RunOpts, SliceChunk, StageTimes, Value,
};
use gpmr_sim_net::Cluster;

use crate::datasets::{second_seed, Benchmark};
use crate::kmc::{self, KmcJob, Point};
use crate::lr::{self, LrJob, Sample};
use crate::mm::{mm_auto_blocks, run_mm, Matrix, MmResult};
use crate::sio::{self, SioJob};
use crate::text::{
    chunk_text, generate_text, generate_zipf_text, Dictionary, PAPER_DICTIONARY_WORDS,
};
use crate::wo::{sample_word_keys, WoJob};

/// K-Means centers of the benchmark runs (the paper keeps the center
/// count small and fixed).
pub const KMC_CENTERS: usize = 32;

/// The line LR's samples scatter around: `(slope, intercept)`.
pub const LR_MODEL: (f32, f32) = (2.0, -1.0);

/// Key space of SIO's Zipf workload.
const ZIPF_KEY_SPACE: u32 = 1 << 16;

/// Every how-many-th input element is sampled for range splitters.
const SPLITTER_STRIDE: usize = 101;

/// Dictionary size under workload scale `scale`: the paper's 43 k words
/// divided by the divisor (scaled-hardware runs must scale *all* data, or
/// the fixed 43 k-key accumulation state would dominate shrunken
/// workloads).
pub fn dictionary_words(scale: u64) -> usize {
    (PAPER_DICTIONARY_WORDS / scale.max(1) as usize).max(64)
}

/// One benchmark's generated input. Built by [`AppInput::generate`] only,
/// so the data always is the named benchmark's.
#[derive(Clone, Debug)]
pub struct AppInput {
    bench: Benchmark,
    /// The size that was asked for: elements, bytes of text for WO, the
    /// matrix order for MM. Chunk sizes are computed from this, not from
    /// the data — WO's generator finishes its last word, so its text runs
    /// a few bytes over.
    size: usize,
    data: AppData,
}

/// The raw data of an [`AppInput`]: what the GPMR job and the Phoenix
/// and Mars baselines of Tables 2–3 all read.
#[derive(Clone, Debug)]
pub enum AppData {
    /// MM: the two factors.
    Mm {
        /// Left factor.
        a: Matrix,
        /// Right factor.
        b: Matrix,
    },
    /// SIO: the integer stream.
    Sio(Vec<u32>),
    /// WO: the corpus and the dictionary its words come from.
    Wo {
        /// Word list and its minimal perfect hash.
        dict: Arc<Dictionary>,
        /// The corpus.
        text: Vec<u8>,
    },
    /// KMC: the points and the centers they are assigned to.
    Kmc {
        /// Initial centers.
        centers: Vec<Point>,
        /// Points to cluster.
        points: Vec<Point>,
    },
    /// LR: the `(x, y)` samples.
    Lr(Vec<Sample>),
}

impl AppInput {
    /// Generate `bench`'s input of `size` from `seed`. `zipf` draws the
    /// keys of the shuffling benchmarks (SIO, WO) from a Zipf
    /// distribution with that exponent instead of uniformly; the others
    /// have no key distribution and ignore it. `wo` supplies WO's
    /// dictionary and the seed of its text and is called for WO only.
    pub fn generate(
        bench: Benchmark,
        size: usize,
        seed: u64,
        zipf: Option<f64>,
        wo: impl FnOnce() -> (Arc<Dictionary>, u64),
    ) -> AppInput {
        let data = match bench {
            Benchmark::Mm => AppData::Mm {
                a: Matrix::random(size, seed),
                b: Matrix::random(size, second_seed(seed)),
            },
            Benchmark::Sio => AppData::Sio(match zipf {
                Some(s) => sio::generate_zipf_integers(size, ZIPF_KEY_SPACE, s, seed),
                None => sio::generate_integers(size, seed),
            }),
            Benchmark::Wo => {
                let (dict, text_seed) = wo();
                let text = match zipf {
                    Some(s) => generate_zipf_text(&dict, size, s, text_seed),
                    None => generate_text(&dict, size, text_seed),
                };
                AppData::Wo { dict, text }
            }
            Benchmark::Kmc => AppData::Kmc {
                centers: kmc::initial_centers(KMC_CENTERS, seed),
                points: kmc::generate_points(size, KMC_CENTERS, second_seed(seed)),
            },
            Benchmark::Lr => AppData::Lr(lr::generate_samples(size, LR_MODEL.0, LR_MODEL.1, seed)),
        };
        AppInput { bench, size, data }
    }

    /// The data itself.
    pub fn data(&self) -> &AppData {
        &self.data
    }

    /// Input payload in bytes, as asked for — what chunk autotuners size
    /// from. Zero for MM, which picks its own tile blocks.
    pub fn bytes(&self) -> u64 {
        (self.size as u64).saturating_mul(self.bench.element_bytes().unwrap_or(0))
    }
}

/// A finished benchmark's output, in the three types the apps produce.
#[derive(Debug)]
pub enum AppOutput {
    /// SIO and WO: occurrence counts by key, ranks concatenated in order.
    Counts(KvSet<u32, u32>),
    /// KMC and LR: `f64` sums by key, ranks concatenated in order.
    Sums(KvSet<u32, f64>),
    /// MM: the product and both phases' timings.
    Mm(MmResult),
}

/// What [`run`] returns.
#[derive(Debug)]
pub struct AppRun {
    /// Makespan, stage breakdown and counters (MM: both phases summed).
    pub timings: JobTimings,
    /// `(splitters, samples)` of a range-partitioned run: how many
    /// splitters were derived from how many sampled keys.
    pub splitters: Option<(usize, usize)>,
    /// The job's output.
    pub output: AppOutput,
}

/// Run `input`'s benchmark on `cluster` in chunks of `chunk_bytes` (MM
/// sizes its tile blocks with [`mm_auto_blocks`] instead) under `opts`.
/// `range_partition` shuffles SIO and WO through splitters sampled from
/// the input instead of round-robin (the other benchmarks have no
/// partitioner to swap).
pub fn run(
    input: &AppInput,
    cluster: &mut Cluster,
    chunk_bytes: usize,
    range_partition: bool,
    opts: RunOpts<'_>,
) -> EngineResult<AppRun> {
    let gpus = cluster.size();
    let items = (chunk_bytes / input.bench.element_bytes().unwrap_or(1) as usize).max(1);
    let mut splitters = None;
    let mut derive = |samples: Vec<u64>| {
        let cuts = derive_splitters(&samples, gpus);
        splitters = Some((cuts.len(), samples.len()));
        cuts
    };
    let (timings, output) = match &input.data {
        AppData::Mm { a, b } => {
            let (rb, cb, kb) = mm_auto_blocks(a.n_tiles(), gpus, cluster.gpu(0).mem.capacity());
            let result = run_mm(cluster, a, b, rb, cb, kb, opts)?;
            (result.timings(), AppOutput::Mm(result))
        }
        AppData::Sio(data) => {
            let mut job = SioJob::default();
            if range_partition {
                let sample = data.iter().step_by(SPLITTER_STRIDE);
                job = job.with_range_partition(derive(sample.map(|&v| u64::from(v)).collect()));
            }
            let chunks = SliceChunk::split(data, items);
            merged(
                run_job_with(cluster, &job, chunks, opts)?,
                AppOutput::Counts,
            )
        }
        AppData::Wo { dict, text } => {
            let mut job = WoJob::new(Arc::clone(dict), gpus);
            if range_partition {
                let splitters = derive(sample_word_keys(dict, text, SPLITTER_STRIDE));
                job = job.with_partition(PartitionMode::Range { splitters });
            }
            let chunks = chunk_text(text, items);
            merged(
                run_job_with(cluster, &job, chunks, opts)?,
                AppOutput::Counts,
            )
        }
        AppData::Kmc { centers, points } => {
            let job = KmcJob::new(centers.clone());
            let chunks = SliceChunk::split(points, items);
            merged(run_job_with(cluster, &job, chunks, opts)?, AppOutput::Sums)
        }
        AppData::Lr(samples) => {
            let chunks = SliceChunk::split(samples, items);
            merged(
                run_job_with(cluster, &LrJob, chunks, opts)?,
                AppOutput::Sums,
            )
        }
    };
    Ok(AppRun {
        timings,
        splitters,
        output,
    })
}

/// Split an engine result into its timings and its merged output.
fn merged<V: Value>(
    result: JobResult<u32, V>,
    wrap: fn(KvSet<u32, V>) -> AppOutput,
) -> (JobTimings, AppOutput) {
    (result.timings.clone(), wrap(result.into_merged_output()))
}

impl MmResult {
    /// Both phases as one [`JobTimings`]: the makespans and every
    /// per-rank stage and counter summed, so MM reads like a one-job
    /// benchmark in breakdowns. Chunk counts are phase 1's (phase 2
    /// regroups the same work by tile).
    pub fn timings(&self) -> JobTimings {
        let (p1, p2) = (&self.phase1, &self.phase2);
        let per_rank = p1
            .per_rank
            .iter()
            .zip(&p2.per_rank)
            .map(|(a, b)| StageTimes {
                map: a.map + b.map,
                bin: a.bin + b.bin,
                sort: a.sort + b.sort,
                reduce: a.reduce + b.reduce,
                scheduler: a.scheduler + b.scheduler,
            })
            .collect();
        JobTimings {
            total: self.total_time,
            per_rank,
            chunks_per_rank: p1.chunks_per_rank.clone(),
            chunks_stolen: p1.chunks_stolen + p2.chunks_stolen,
            pairs_emitted: p1.pairs_emitted + p2.pairs_emitted,
            pairs_shuffled: p1.pairs_shuffled + p2.pairs_shuffled,
            gpus_lost: p1.gpus_lost + p2.gpus_lost,
            gpus_added: p1.gpus_added + p2.gpus_added,
            chunks_requeued: p1.chunks_requeued + p2.chunks_requeued,
            transfer_retries: p1.transfer_retries + p2.transfer_retries,
            stalls_injected: p1.stalls_injected + p2.stalls_injected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wo;
    use gpmr_sim_gpu::GpuSpec;

    fn assert_close(what: &str, got: &[f64], want: &[f64]) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (i, (x, y)) in got.iter().zip(want).enumerate() {
            assert!(
                (x - y).abs() <= 1e-6 * (1.0 + x.abs().max(y.abs())),
                "{what} [{i}]: {x} vs {y}"
            );
        }
    }

    /// The wiring of [`run`]'s `match`: every row of the table, at 1 and
    /// 4 ranks and range-partitioned, against its module's CPU reference.
    #[test]
    fn every_benchmark_matches_its_cpu_reference() {
        for bench in Benchmark::ALL {
            let size = if bench == Benchmark::Mm { 64 } else { 20_000 };
            let input = AppInput::generate(bench, size, 7, None, || {
                (Arc::new(Dictionary::generate(200, 3)), 5)
            });
            assert_eq!(input.bench, bench);
            for (ranks, range_partition) in [(1, false), (4, false), (4, true)] {
                let what = format!("{} on {ranks} rank(s)", bench.name());
                let mut cluster = Cluster::accelerator(ranks, GpuSpec::gt200());
                let run = run(
                    &input,
                    &mut cluster,
                    16 * 1024,
                    range_partition,
                    RunOpts::default(),
                )
                .unwrap_or_else(|e| panic!("{what}: {e}"));
                assert!(run.timings.total.as_secs() > 0.0, "{what}");
                assert_eq!(run.timings.per_rank.len(), ranks as usize, "{what}");
                let shuffles = matches!(bench, Benchmark::Sio | Benchmark::Wo);
                assert_eq!(
                    run.splitters.is_some(),
                    range_partition && shuffles,
                    "{what}"
                );
                match (&input.data, &run.output) {
                    (AppData::Mm { a, b }, AppOutput::Mm(result)) => {
                        let want = a.multiply_reference(b);
                        for (x, y) in result.c.data.iter().zip(&want.data) {
                            assert!((x - y).abs() <= 1e-4 * (1.0 + x.abs().max(y.abs())));
                        }
                        assert_eq!(run.timings.total, result.total_time);
                    }
                    (AppData::Sio(data), AppOutput::Counts(out)) => {
                        let got = sio::counts_from_output(out);
                        assert_eq!(got, sio::cpu_reference(data), "{what}");
                    }
                    (AppData::Wo { dict, text }, AppOutput::Counts(out)) => {
                        let got = wo::counts_from_output(dict, out);
                        assert_eq!(got, wo::cpu_reference(dict, text), "{what}");
                    }
                    (AppData::Kmc { centers, points }, AppOutput::Sums(out)) => {
                        let got = kmc::sums_from_output(centers.len(), out);
                        assert_close(&what, &got, &kmc::cpu_reference(centers, points));
                    }
                    (AppData::Lr(samples), AppOutput::Sums(out)) => {
                        let got = lr::stats_from_output(out);
                        assert_close(&what, &got, &lr::cpu_reference(samples));
                    }
                    (data, output) => panic!("{what}: {output:?} for {data:?}"),
                }
            }
        }
    }

    #[test]
    fn bytes_come_from_the_requested_size() {
        let input = AppInput::generate(Benchmark::Wo, 1_000, 1, None, || {
            (Arc::new(Dictionary::generate(64, 1)), 2)
        });
        assert_eq!(input.bytes(), 1_000);
        let AppData::Wo { text, .. } = &input.data else {
            panic!("WO input holds {:?}", input.data);
        };
        assert!(text.len() >= 1_000);
        let lr = AppInput::generate(Benchmark::Lr, 10, 1, None, || unreachable!());
        assert_eq!(lr.bytes(), 80);
    }

    #[test]
    fn dictionary_shrinks_with_the_scale_down_to_a_floor() {
        assert_eq!(dictionary_words(1), 43_000);
        assert_eq!(dictionary_words(0), 43_000);
        assert_eq!(dictionary_words(64), 671);
        assert_eq!(dictionary_words(u64::MAX), 64);
    }
}
