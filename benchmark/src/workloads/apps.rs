//! The five paper applications as the batch workloads run them: seeded
//! input, a CPU reference computed once in set-up, and a pass that chunks
//! the input, runs the engine and checks the merged output against the
//! reference.

use std::sync::Arc;

use gpmr::apps::kmc::{self, KmcJob, Point};
use gpmr::apps::lr::{self, LrJob, Sample};
use gpmr::apps::mm::{self, Matrix, MmMapJob, MmSumJob, TileData, TILE_ELEMS};
use gpmr::apps::sio::{self, SioJob};
use gpmr::apps::text::{self, Dictionary, PAPER_DICTIONARY_WORDS};
use gpmr::apps::wo::{self, WoJob};
use gpmr::core::journal::hash_pairs;
use gpmr::core::{
    run_job_instrumented, EngineTuning, GpmrJob, JobResult, JobTimings, KvSet, SliceChunk,
};
use gpmr::sim_net::Cluster;
use gpmr::telemetry::Telemetry;

use crate::trace::Tracer;

/// K-Means centers (the repo's harness keeps the count small and fixed).
const KMC_CENTERS: usize = 32;
/// Seed of the shared 43 k-word dictionary: the dictionary is part of the
/// workload definition, the corpus drawn from it is seeded per run.
const DICTIONARY_SEED: u64 = 0xd1c7;
/// Relative tolerance the repo's own KMC and LR tests use.
const SUM_TOLERANCE: f64 = 1e-6;
/// Relative tolerance the repo's own MM tests use.
const MM_TOLERANCE: f32 = 1e-4;

/// Exact engine counts of one or more engine runs, from [`JobTimings`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineCounts {
    pub chunks_dispatched: u64,
    pub chunks_stolen: u64,
    pub chunks_requeued: u64,
    pub pairs_emitted: u64,
    pub pairs_shuffled: u64,
    pub transfer_retries: u64,
}

impl EngineCounts {
    pub fn add_timings(&mut self, t: &JobTimings) {
        self.chunks_dispatched += t.chunks_per_rank.iter().map(|&c| u64::from(c)).sum::<u64>();
        self.chunks_stolen += u64::from(t.chunks_stolen);
        self.chunks_requeued += u64::from(t.chunks_requeued);
        self.pairs_emitted += t.pairs_emitted;
        self.pairs_shuffled += t.pairs_shuffled;
        self.transfer_retries += u64::from(t.transfer_retries);
    }

    pub fn add(&mut self, o: &EngineCounts) {
        self.chunks_dispatched += o.chunks_dispatched;
        self.chunks_stolen += o.chunks_stolen;
        self.chunks_requeued += o.chunks_requeued;
        self.pairs_emitted += o.pairs_emitted;
        self.pairs_shuffled += o.pairs_shuffled;
        self.transfer_retries += o.transfer_retries;
    }
}

/// Outcome of one application run inside a pass.
pub struct AppRun {
    /// Simulated makespan, seconds.
    pub sim_s: f64,
    /// Output equals the CPU reference (digest or tolerance).
    pub ok: bool,
    pub counts: EngineCounts,
}

/// One prepared application: input and reference held, runnable any
/// number of times with identical results.
pub trait App {
    /// Span name around this application's engine call.
    fn engine_span(&self) -> &'static str;
    /// Input items (integers, bytes, points, samples, matrix elements).
    fn input_items(&self) -> u64;
    /// Chunk the input, run the job on `cluster`, verify the output.
    fn run(&self, cluster: &mut Cluster, tel: &Telemetry, tr: &mut Tracer) -> AppRun;
}

/// The repo's depth-aware chunk sizing (`gpmr-bench`'s
/// `chunk_bytes_tuned`): `2 * depth` chunks per rank, clamped to the
/// scaled staging budget.
pub fn chunk_bytes(total_bytes: u64, ranks: u32, scale: u64) -> usize {
    let depth = u64::from(EngineTuning::default().pipeline_depth);
    let per = total_bytes / (2 * depth * u64::from(ranks));
    let min = (64 * 1024 / scale).max(1024);
    let max = ((64 << 20) / (depth * scale)).max(min);
    per.clamp(min, max) as usize
}

/// Chunk, run the engine, verify: the shape every engine app shares.
fn engine_pass<J: GpmrJob>(
    span: &'static str,
    cluster: &mut Cluster,
    job: &J,
    tel: &Telemetry,
    tr: &mut Tracer,
    chunk: impl FnOnce() -> Vec<J::Chunk>,
    verify: impl FnOnce(KvSet<J::Key, J::Value>) -> bool,
) -> AppRun {
    let chunks = tr.span("apps.chunk", |_| chunk());
    let result = tr.span(span, |tr| run_engine(cluster, job, chunks, tel, tr));
    let mut counts = EngineCounts::default();
    counts.add_timings(&result.timings);
    let sim_s = result.timings.total.as_secs();
    let ok = tr.span("apps.verify", |_| verify(result.into_merged_output()));
    AppRun { sim_s, ok, counts }
}

/// The engine call itself. A disabled `tel` makes
/// `run_job_instrumented` the plain `run_job` path.
fn run_engine<J: GpmrJob>(
    cluster: &mut Cluster,
    job: &J,
    chunks: Vec<J::Chunk>,
    tel: &Telemetry,
    tr: &mut Tracer,
) -> JobResult<J::Key, J::Value> {
    tr.span("core.engine.run_job", |_| {
        run_job_instrumented(cluster, job, chunks, &EngineTuning::default(), tel)
    })
    .expect("the workloads are sized so that no engine run fails")
}

fn close(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| (x - y).abs() <= SUM_TOLERANCE * (1.0 + x.abs().max(y.abs())))
}

// --- Sparse Integer Occurrence ---------------------------------------------

pub struct Sio {
    data: Vec<u32>,
    chunk_bytes: usize,
    reference: u64,
}

impl Sio {
    pub fn prepare(n: usize, ranks: u32, chunk_bytes: usize, seed: u64, tr: &mut Tracer) -> Self {
        let data = tr.span("apps.generate", |_| sio::generate_integers(n, seed));
        let reference = tr.span("apps.reference", |_| {
            sio_digest(sio::cpu_reference(&data).into_iter().collect(), ranks)
        });
        Sio {
            chunk_bytes,
            data,
            reference,
        }
    }
}

/// Digest of `(key, count)` pairs in the engine's canonical output order:
/// reducer-major (the default partitioner sends key `k` to reducer
/// `k % ranks`), ascending key inside a reducer.
pub fn sio_digest(mut counts: Vec<(u32, u32)>, ranks: u32) -> u64 {
    counts.sort_unstable_by_key(|&(k, _)| (k % ranks, k));
    let (keys, vals): (Vec<u32>, Vec<u32>) = counts.into_iter().unzip();
    hash_pairs(&keys, &vals)
}

impl App for Sio {
    fn engine_span(&self) -> &'static str {
        "core.engine.run_sio"
    }

    fn input_items(&self) -> u64 {
        self.data.len() as u64
    }

    fn run(&self, cluster: &mut Cluster, tel: &Telemetry, tr: &mut Tracer) -> AppRun {
        engine_pass(
            self.engine_span(),
            cluster,
            &SioJob::default(),
            tel,
            tr,
            || sio::sio_chunks(&self.data, self.chunk_bytes),
            |out| hash_pairs(&out.keys, &out.vals) == self.reference,
        )
    }
}

// --- Word Occurrence ---------------------------------------------------------

pub struct Wo {
    dict: Arc<Dictionary>,
    text: Vec<u8>,
    chunk_bytes: usize,
    ranks: u32,
    reference: u64,
}

impl Wo {
    pub fn prepare(bytes: usize, ranks: u32, scale: u64, seed: u64, tr: &mut Tracer) -> Self {
        let (dict, text) = tr.span("apps.generate", |_| {
            let dict = Arc::new(Dictionary::generate(
                PAPER_DICTIONARY_WORDS,
                DICTIONARY_SEED,
            ));
            let text = text::generate_text(&dict, bytes, seed);
            (dict, text)
        });
        let reference = tr.span("apps.reference", |_| {
            hash_pairs::<u32, u32>(&wo::cpu_reference(&dict, &text), &[])
        });
        Wo {
            chunk_bytes: chunk_bytes(bytes as u64, ranks, scale),
            dict,
            text,
            ranks,
            reference,
        }
    }
}

impl App for Wo {
    fn engine_span(&self) -> &'static str {
        "core.engine.run_wo"
    }

    fn input_items(&self) -> u64 {
        self.text.len() as u64
    }

    fn run(&self, cluster: &mut Cluster, tel: &Telemetry, tr: &mut Tracer) -> AppRun {
        engine_pass(
            self.engine_span(),
            cluster,
            &WoJob::new(self.dict.clone(), self.ranks),
            tel,
            tr,
            || text::chunk_text(&self.text, self.chunk_bytes),
            |out| {
                let counts = wo::counts_from_output(&self.dict, &out);
                hash_pairs::<u32, u32>(&counts, &[]) == self.reference
            },
        )
    }
}

// --- K-Means Clustering --------------------------------------------------------

pub struct Kmc {
    centers: Vec<Point>,
    points: Vec<Point>,
    chunk_items: usize,
    reference: Vec<f64>,
}

impl Kmc {
    pub fn prepare(n: usize, ranks: u32, scale: u64, seed: u64, tr: &mut Tracer) -> Self {
        let (centers, points) = tr.span("apps.generate", |_| {
            (
                kmc::initial_centers(KMC_CENTERS, seed),
                kmc::generate_points(n, KMC_CENTERS, seed + 1),
            )
        });
        let reference = tr.span("apps.reference", |_| kmc::cpu_reference(&centers, &points));
        Kmc {
            chunk_items: (chunk_bytes(16 * n as u64, ranks, scale) / 16).max(1),
            centers,
            points,
            reference,
        }
    }
}

impl App for Kmc {
    fn engine_span(&self) -> &'static str {
        "core.engine.run_kmc"
    }

    fn input_items(&self) -> u64 {
        self.points.len() as u64
    }

    fn run(&self, cluster: &mut Cluster, tel: &Telemetry, tr: &mut Tracer) -> AppRun {
        engine_pass(
            self.engine_span(),
            cluster,
            &KmcJob::new(self.centers.clone()),
            tel,
            tr,
            || SliceChunk::split(&self.points, self.chunk_items),
            |out| close(&kmc::sums_from_output(KMC_CENTERS, &out), &self.reference),
        )
    }
}

// --- Linear Regression -----------------------------------------------------------

pub struct Lr {
    samples: Vec<Sample>,
    chunk_items: usize,
    reference: Vec<f64>,
}

impl Lr {
    pub fn prepare(n: usize, ranks: u32, scale: u64, seed: u64, tr: &mut Tracer) -> Self {
        let samples = tr.span("apps.generate", |_| {
            lr::generate_samples(n, 2.0, -1.0, seed)
        });
        let reference = tr.span("apps.reference", |_| lr::cpu_reference(&samples));
        Lr {
            chunk_items: (chunk_bytes(8 * n as u64, ranks, scale) / 8).max(1),
            samples,
            reference,
        }
    }
}

impl App for Lr {
    fn engine_span(&self) -> &'static str {
        "core.engine.run_lr"
    }

    fn input_items(&self) -> u64 {
        self.samples.len() as u64
    }

    fn run(&self, cluster: &mut Cluster, tel: &Telemetry, tr: &mut Tracer) -> AppRun {
        engine_pass(
            self.engine_span(),
            cluster,
            &LrJob,
            tel,
            tr,
            || SliceChunk::split(&self.samples, self.chunk_items),
            |out| close(&lr::stats_from_output(&out), &self.reference),
        )
    }
}

// --- Matrix Multiplication -------------------------------------------------------

pub struct Mm {
    a: Matrix,
    b: Matrix,
    reference: Matrix,
}

impl Mm {
    pub fn prepare(order: usize, seed: u64, tr: &mut Tracer) -> Self {
        let (a, b) = tr.span("apps.generate", |_| {
            (Matrix::random(order, seed), Matrix::random(order, seed + 1))
        });
        let reference = tr.span("apps.reference", |_| a.multiply_reference(&b));
        Mm { a, b, reference }
    }

    fn verify(&self, c: &Matrix) -> bool {
        c.n == self.reference.n
            && c.data
                .iter()
                .zip(&self.reference.data)
                .all(|(x, y)| (x - y).abs() <= MM_TOLERANCE * (1.0 + x.abs().max(y.abs())))
    }

    /// The two phases of `run_mm_auto` driven from here, so that a traced
    /// pass can hand the engine a telemetry handle (`run_mm_auto` takes
    /// none). Chunking and the between-phase grouping follow `run_mm`.
    fn run_instrumented(
        &self,
        cluster: &mut Cluster,
        tel: &Telemetry,
        tr: &mut Tracer,
    ) -> (JobTimings, JobTimings, Matrix) {
        let nt = self.a.n_tiles() as u32;
        let capacity = cluster.gpu(0).mem.capacity();
        let (rb, cb, kb) = mm::mm_auto_blocks(self.a.n_tiles(), cluster.size(), capacity);
        let chunks = tr.span("apps.chunk", |_| {
            mm::mm_chunks(&self.a, &self.b, rb, cb, kb)
        });
        let phase1 = run_engine(cluster, &MmMapJob::new(nt), chunks, tel, tr);

        let chunks2 = tr.span("apps.chunk", |_| {
            let mut pairs: Vec<(u32, TileData)> = Vec::new();
            for out in &phase1.outputs {
                pairs.extend(out.iter().map(|(k, v)| (*k, *v)));
            }
            pairs.sort_by_key(|(k, _)| *k);
            let pair_bytes = 4 + TILE_ELEMS * 4;
            let max_items = (capacity as usize / 4 / pair_bytes).clamp(16, 2048);
            // Whole key groups per chunk, at most `max_items` otherwise.
            let mut chunks = Vec::new();
            let mut start = 0;
            while start < pairs.len() {
                let mut end = (start + max_items).min(pairs.len());
                while end < pairs.len() && pairs[end].0 == pairs[end - 1].0 {
                    end += 1;
                }
                chunks.push(SliceChunk::new(
                    chunks.len() as u32,
                    start as u64,
                    pairs[start..end].to_vec(),
                ));
                start = end;
            }
            chunks
        });
        let phase2 = run_engine(cluster, &MmSumJob::new(nt), chunks2, tel, tr);

        let mut c = Matrix::zeros(self.a.n);
        for out in &phase2.outputs {
            for (key, tile) in out.iter() {
                let (ti, tj) = mm::tile_coords(*key);
                c.set_tile(ti as usize, tj as usize, tile);
            }
        }
        (phase1.timings, phase2.timings, c)
    }
}

impl App for Mm {
    fn engine_span(&self) -> &'static str {
        "apps.mm.run_mm"
    }

    fn input_items(&self) -> u64 {
        2 * (self.a.n * self.a.n) as u64
    }

    fn run(&self, cluster: &mut Cluster, tel: &Telemetry, tr: &mut Tracer) -> AppRun {
        let (phase1, phase2, c) = tr.span(self.engine_span(), |tr| {
            if tel.is_enabled() {
                return self.run_instrumented(cluster, tel, tr);
            }
            let r = mm::run_mm_auto(cluster, &self.a, &self.b)
                .expect("the workloads are sized so that no engine run fails");
            (r.phase1, r.phase2, r.c)
        });
        let mut counts = EngineCounts::default();
        counts.add_timings(&phase1);
        counts.add_timings(&phase2);
        let ok = tr.span("apps.verify", |_| self.verify(&c));
        AppRun {
            sim_s: (phase1.total + phase2.total).as_secs(),
            ok,
            counts,
        }
    }
}
