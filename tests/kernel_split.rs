//! Split-sized launches. A launch whose blocks hand back data, and whose
//! block 0 charged enough work times its grid, runs its upper half of
//! blocks on one scoped helper thread while the calling thread runs the
//! lower half. None of that may show in a result: these runs pass the
//! gate (each test checks that something ran off its thread), and their
//! outputs, timing bits, journal bytes and recordings must be the ones
//! the engine wrote while every block ran on the calling thread. KMC and
//! LR fold `f64` pools in block order, so they are the runs whose bits a
//! reordering of block outputs would change.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use gpmr::apps::kmc::{generate_points, initial_centers};
use gpmr::apps::lr::generate_samples;
use gpmr::apps::mm::{mm_auto_blocks, mm_chunks, MmMapJob};
use gpmr::apps::text::{chunk_text, generate_text};
use gpmr::core::journal::{fnv1a, hash_pairs, scan_bytes, Journal, JournalRecord};
use gpmr::core::{run_job_with, EngineTuning, JobTimings, RunOpts, SliceChunk};
use gpmr::prelude::*;
use gpmr::sim_gpu::FaultPlan;
use gpmr::telemetry::{export, Telemetry};

/// Allocations made on threads that run no test: the split launches'
/// helpers. Each test marks its own thread first; the harness's main
/// thread, at a test's start or end, can also land one here, so this can
/// miss a run that stopped splitting (`tests/alloc_budget.rs` counts a
/// split WO run's helpers exactly) but never fails one that splits.
static ELSEWHERE: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the threads that run tests.
    static RUNS_TEST: Cell<bool> = const { Cell::new(false) };
}

/// Mark this thread as a test's, whose allocations do not count.
fn test_thread() {
    RUNS_TEST.with(|c| c.set(true));
}

/// The system allocator, counting the calls made off the test threads.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged, so `System`'s guarantees carry over; the counter is
// an atomic and the flag a const-initialized thread-local `Cell` of a
// `Copy` value, neither of which allocates or registers a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if !RUNS_TEST.with(Cell::get) {
            ELSEWHERE.fetch_add(1, Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Unique scratch path per test (tests run concurrently in one binary).
fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gpmr_kernel_split_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}.gpj"))
}

/// What a run leaves: its digests and its journal, for a resume cut.
struct Ran {
    /// `[outputs, timing bits, journal bytes, recording]`, each FNV-1a.
    digests: [u64; 4],
    timings: JobTimings,
    journal: Vec<u8>,
}

/// Run `job` over `chunks` on `gpus` fresh GT200s under `plan`,
/// journaled to `path` (created, or resumed when `resume`) and recorded.
/// Panics unless some allocation happened off the calling thread, which
/// only a split launch's helper makes in these runs.
fn run<J: GpmrJob>(
    gpus: u32,
    plan: Option<FaultPlan>,
    job: &J,
    chunks: Vec<J::Chunk>,
    path: &Path,
    resume: bool,
) -> (Ran, u64) {
    let mut cluster = Cluster::accelerator(gpus, GpuSpec::gt200());
    cluster.set_fault_plan(plan);
    let mut journal = if resume {
        Journal::resume(path, 1).unwrap()
    } else {
        Journal::create(path, 1).unwrap()
    };
    let tel = Telemetry::enabled();
    let opts = RunOpts {
        tuning: EngineTuning::default(),
        tel: tel.clone(),
        journal: Some(&mut journal),
    };
    let before = ELSEWHERE.load(Relaxed);
    let result = run_job_with(&mut cluster, job, chunks, opts).unwrap();
    assert!(
        ELSEWHERE.load(Relaxed) > before,
        "no launch of this run split"
    );
    let replayed = journal.replayed();
    drop(journal);
    let mut out = Vec::new();
    for o in &result.outputs {
        out.extend(hash_pairs(&o.keys, &o.vals).to_le_bytes());
    }
    let journal = std::fs::read(path).unwrap();
    let recording = export::to_jsonl(&tel.snapshot());
    let ran = Ran {
        digests: [
            fnv1a(&out),
            fnv1a(&timing_bits(&result.timings)),
            fnv1a(&journal),
            fnv1a(recording.as_bytes()),
        ],
        timings: result.timings,
        journal,
    };
    (ran, replayed)
}

/// Every field of `t`, as little-endian bits.
fn timing_bits(t: &JobTimings) -> Vec<u8> {
    let mut bits = vec![t.total.as_secs().to_bits()];
    for s in &t.per_rank {
        bits.extend([s.map, s.bin, s.sort, s.reduce, s.scheduler].map(|d| d.as_secs().to_bits()));
    }
    bits.extend(t.chunks_per_rank.iter().map(|&c| u64::from(c)));
    bits.extend([t.pairs_emitted, t.pairs_shuffled]);
    bits.extend(
        [
            t.chunks_stolen,
            t.gpus_lost,
            t.gpus_added,
            t.chunks_requeued,
            t.transfer_retries,
            t.stalls_injected,
        ]
        .map(u64::from),
    );
    bits.iter().flat_map(|b| b.to_le_bytes()).collect()
}

/// A fresh run of `job`, journaled under `name`.
fn fresh<J: GpmrJob>(
    name: &str,
    gpus: u32,
    plan: Option<FaultPlan>,
    job: &J,
    chunks: Vec<J::Chunk>,
) -> Ran {
    run(gpus, plan, job, chunks, &tmp(name), false).0
}

/// 1 MiB chunks: 64 blocks of 16 KiB, over the gate. (256 KiB chunks,
/// 16 blocks, stay under it.)
const WO_CHUNK: usize = 1 << 20;
const WO_TEXT: usize = 8 << 20;
const WO_DICT_WORDS: usize = 4096;

/// Rank 7 of 8 is lost after its one map chunk: its accumulated counts
/// are gone, and the chunk reruns on a survivor.
const WO_KILL_S: f64 = 1.5e-3;
/// Rank 2 of 3 joins early and steals queued chunks.
const WO_ADD_S: f64 = 2e-4;

/// `[outputs, timing bits, journal bytes, recording]` of each run,
/// recorded at aeb3fde, the last commit whose launches ran every block
/// on the calling thread.
#[rustfmt::skip]
const WO_PIN: [u64; 4] = [0x6d23_6cb8_1580_a2d7, 0x5384_f6eb_5f3b_bf18, 0x4221_1d56_9ea2_9ae9, 0xb908_2609_6207_e155];
#[rustfmt::skip]
const WO_KILL_PIN: [u64; 4] = [0x6d23_6cb8_1580_a2d7, 0x1e81_0556_a2f0_2fbd, 0x1d8f_341c_f929_05de, 0x5594_e2c7_8ea1_2023];
#[rustfmt::skip]
const WO_ELASTIC_PIN: [u64; 4] = [0x47f5_497f_f9aa_8d06, 0x3027_c49f_2b1b_d0dc, 0xd500_1e4f_9a62_266d, 0x2274_b3e7_c113_e355];
#[rustfmt::skip]
const KMC_PIN: [u64; 4] = [0xf960_3f4e_60cc_22ac, 0x1973_a0ad_794a_733f, 0x6950_da24_2458_edf3, 0xc1f9_c702_dd93_65a3];
#[rustfmt::skip]
const LR_PIN: [u64; 4] = [0x2ffc_ea45_aa9d_2f03, 0x490d_9e02_103f_6589, 0x2826_7563_009e_8bb6, 0x7c06_6cce_ea71_929c];
#[rustfmt::skip]
const MM_PIN: [u64; 4] = [0x0bcf_3a99_ebc3_f452, 0xf734_af8b_675e_6826, 0x61d1_5053_898d_bf8c, 0x1422_f7f1_d8a6_d058];

#[test]
fn split_sized_wo_runs_match_the_runs_recorded_before_the_split() {
    test_thread();
    let dict = Arc::new(Dictionary::generate(WO_DICT_WORDS, 42));
    let chunks = chunk_text(&generate_text(&dict, WO_TEXT, 43), WO_CHUNK);
    let job = WoJob::new(dict.clone(), 8);
    let path = tmp("wo");
    let (plain, _) = run(8, None, &job, chunks.clone(), &path, false);
    let kill = FaultPlan::new().kill(7, WO_KILL_S);
    let killed = fresh("wo_kill", 8, Some(kill), &job, chunks.clone());
    let t = &killed.timings;
    assert_eq!(t.gpus_lost, 1, "the kill must land");
    assert!(t.chunks_requeued > 0, "the lost rank's map must rerun");
    let add = FaultPlan::new().add(2, WO_ADD_S);
    let small = WoJob::new(dict, 3);
    let elastic = fresh("wo_elastic", 3, Some(add), &small, chunks.clone());
    let t = &elastic.timings;
    assert_eq!(t.gpus_added, 1, "the add must land");
    assert!(t.chunks_stolen > 0, "the new rank must steal");
    let got = [plain.digests, killed.digests, elastic.digests];
    assert_eq!(got, [WO_PIN, WO_KILL_PIN, WO_ELASTIC_PIN], "{got:#x?}");

    // Cut the plain run's journal after its fifth chunk commit: the
    // resumed run replays those maps, runs the rest, and writes the same
    // outputs, timings and journal bytes (its recording holds the
    // replay).
    let (records, offsets) = scan_bytes(&plain.journal);
    let cut = records
        .iter()
        .enumerate()
        .filter(|(_, r)| matches!(r, JournalRecord::ChunkCommit { .. }))
        .nth(4)
        .map(|(i, _)| i + 1)
        .expect("five maps committed");
    std::fs::write(&path, &plain.journal[..offsets[cut] as usize]).unwrap();
    let (resumed, replayed) = run(8, None, &job, chunks, &path, true);
    assert_eq!(replayed, cut as u64);
    assert_eq!(resumed.timings, plain.timings);
    assert_eq!(resumed.journal, plain.journal);
    assert_eq!(resumed.digests[..3], plain.digests[..3]);
}

/// Outputs of `f64` pools: 32 768 points a chunk (8 blocks of 4 096
/// points, each 4 096 x 8 centers x 12 flops), 131 072 samples a chunk
/// (16 blocks of 8 192, 16 units a sample).
#[test]
fn split_sized_kmc_and_lr_runs_fold_their_pools_to_the_same_bits() {
    test_thread();
    let points = generate_points(4 * 32_768, 8, 42);
    let job = KmcJob::new(initial_centers(8, 43));
    let chunks = SliceChunk::split(&points, 32_768);
    let kmc = fresh("kmc", 4, None, &job, chunks);
    let samples = generate_samples(4 * 131_072, 2.0, 1.0, 42);
    let chunks = SliceChunk::split(&samples, 131_072);
    let lr = fresh("lr", 4, None, &LrJob, chunks);
    let got = [kmc.digests, lr.digests];
    assert_eq!(got, [KMC_PIN, LR_PIN], "{got:#x?}");
}

/// 256 tile kernels of one 16 x 16 k-slab a launch.
const MM_ORDER: usize = 256;

#[test]
fn split_sized_mm_tile_kernels_match() {
    test_thread();
    let a = Matrix::random(MM_ORDER, 42);
    let b = Matrix::random(MM_ORDER, 43);
    let capacity = GpuSpec::gt200().mem_capacity;
    let (rb, cb, kb) = mm_auto_blocks(a.n_tiles(), 4, capacity);
    let job = MmMapJob::new(a.n_tiles() as u32);
    let mm = fresh("mm", 4, None, &job, mm_chunks(&a, &b, rb, cb, kb));
    assert_eq!(mm.digests, MM_PIN, "{:#x?}", mm.digests);
}
