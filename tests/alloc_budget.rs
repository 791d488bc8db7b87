//! Allocation budgets of the pair data paths: how many bytes, in how
//! many allocations, a job takes from the allocator between its prepared
//! chunks and the reducers' outputs.
//!
//! SIO is the shuffle's case — nothing compacts its pairs, so every stage
//! carries all of them. Bin writes each pair once into its reducer's
//! inbox, Sort sorts it there through one packed buffer the ranks share,
//! and Map, Segments and Reduce fill one output each; a per-block `Vec` or a copy
//! creeping back into that path shows up here as a multiple of the pair
//! bytes.
//!
//! WO is Accumulation's case — almost nothing is shuffled, and what the
//! map launches allocate is all there is: one flat list of word ids per
//! block, kept from one launch for the next, applied to the resident
//! counters in one sweep. A container per block
//! (a hash map that grows, drains and sorts) shows up as a multiple of
//! the text bytes.
//!
//! The serve path is the fixed cost's case — jobs so small that what the
//! service does *around* each engine pass is most of the work: a WO
//! dictionary per dispatch, a whole-ring copy and re-serialisation per
//! postmortem show up as thousands of allocations per job.
//!
//! MM is the hand-over's case — its two GPMR tasks pass 1 KiB partial
//! tiles from one to the next, and regrouping them by key should cost
//! one copy of each tile plus a handle; a concatenation, a sort of whole
//! tiles or a second copy shows up as a multiple of the tile bytes.
//!
//! The runs are fault-free, and each test counts in a child process of
//! this binary that runs that test alone, so all counts repeat exactly.
//! Counting is process-wide: a job whose reducers are big enough sorts on
//! a helper thread (the engine's sort lane), a launch whose blocks hand
//! back enough work runs its upper half on one (a split launch), and what
//! those threads allocate is the job's too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::process::Command;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

use gpmr::core::rounds::max_resident_chunk_bytes;
use gpmr::prelude::*;
use gpmr_apps::mm::{mm_auto_blocks, mm_chunks, phase2_chunks, MmMapJob};
use gpmr_apps::sio::{generate_integers, sio_chunks};
use gpmr_apps::text::{chunk_text, generate_text, Dictionary};
use gpmr_service::{workload, ObsConfig, ServiceConfig};
use gpmr_telemetry::Telemetry;

/// Whether allocations are being counted, on any thread.
static COUNTING: AtomicBool = AtomicBool::new(false);
/// Bytes and calls counted, on every thread.
static BYTES: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);
/// Bytes and calls counted on threads other than the one counting.
static ELSEWHERE_BYTES: AtomicU64 = AtomicU64::new(0);
static ELSEWHERE_CALLS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the thread that started the count.
    static COUNTER: Cell<bool> = const { Cell::new(false) };
}

/// Wait until the test harness's main thread sleeps. It runs the test on
/// a thread of its own and allocates a channel waiter on its way into the
/// wait for the result (two allocations, 144 bytes), which on a loaded
/// machine can come after the test has started counting; once it sleeps
/// it allocates nothing until the test ends. Linux names its state in
/// `/proc`; elsewhere, or when the test runs on the main thread, there is
/// nothing to wait for. The state is a heuristic: a main thread seen
/// sleeping for another reason before it allocates its waiter lets that
/// race back in, and one stopped under a debugger or tracer (`t`, `T`)
/// never sleeps, so the wait gives up after [`HARNESS_SLEEP_DEADLINE`].
fn harness_asleep() {
    if std::thread::current().name() == Some("main") {
        return;
    }
    let stat = format!("/proc/self/task/{}/stat", std::process::id());
    // The state is the first field after the command name's `)`.
    let state = || -> Option<char> {
        let line = std::fs::read_to_string(&stat).ok()?;
        line.rsplit(')').next()?.trim_start().chars().next()
    };
    let deadline = std::time::Instant::now() + HARNESS_SLEEP_DEADLINE;
    loop {
        let now = state();
        if matches!(now, Some('S') | None) {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "the test harness's main thread did not sleep within {:?} (state {now:?})",
            HARNESS_SLEEP_DEADLINE
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

/// How long [`harness_asleep`] waits for the harness's main thread.
const HARNESS_SLEEP_DEADLINE: std::time::Duration = std::time::Duration::from_secs(5);

/// Set in the environment of the child process a test counts in.
const CHILD: &str = "ALLOC_BUDGET_CHILD";

/// Run test `name` alone, in a child process of this binary that runs
/// only that test (`--exact name --test-threads=1`), so no other test,
/// and no harness work for one, allocates while it counts. In the parent:
/// run the child, pass its output on, fail when it failed, and return
/// `true` (the test is done). In the child: return `false` (count).
fn ran_alone(name: &str) -> bool {
    if std::env::var_os(CHILD).is_some() {
        harness_asleep();
        return false;
    }
    let exe = std::env::current_exe().expect("the test binary's path");
    let out = Command::new(exe)
        .args(["--exact", name, "--test-threads=1", "--nocapture"])
        .env(CHILD, "1")
        .output()
        .expect("start the test binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    assert!(out.status.success(), "{name} failed in its own process");
    assert!(stdout.contains("1 passed"), "{name} did not run alone");
    true
}

/// What a counted stretch allocated: `(bytes, calls)` on every thread,
/// and the part of it off the counting thread.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Counted {
    all: (u64, u64),
    elsewhere: (u64, u64),
}

/// Run `f`, counting what every thread allocates meanwhile.
fn counting<T>(f: impl FnOnce() -> T) -> (T, Counted) {
    for c in [&BYTES, &CALLS, &ELSEWHERE_BYTES, &ELSEWHERE_CALLS] {
        c.store(0, Relaxed);
    }
    COUNTER.with(|c| c.set(true));
    COUNTING.store(true, Relaxed);
    let out = f();
    COUNTING.store(false, Relaxed);
    COUNTER.with(|c| c.set(false));
    let counted = Counted {
        all: (BYTES.load(Relaxed), CALLS.load(Relaxed)),
        elsewhere: (ELSEWHERE_BYTES.load(Relaxed), ELSEWHERE_CALLS.load(Relaxed)),
    };
    (out, counted)
}

/// The system allocator, counting `alloc`, `alloc_zeroed` and `realloc`
/// (at its new size — the convention of the benchmark's traced binary).
struct Counting;

fn count(size: usize) {
    if COUNTING.load(Relaxed) {
        BYTES.fetch_add(size as u64, Relaxed);
        CALLS.fetch_add(1, Relaxed);
        if !COUNTER.with(Cell::get) {
            ELSEWHERE_BYTES.fetch_add(size as u64, Relaxed);
            ELSEWHERE_CALLS.fetch_add(1, Relaxed);
        }
    }
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged, so `System`'s guarantees carry over; the counters are
// atomics and a const-initialized thread-local `Cell` of a `Copy` value,
// none of which allocates or registers a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const KEYS: usize = 1_000_000;
const RANKS: u32 = 8;
const CHUNKS: usize = 48;

/// One engine run over prepared chunks on `ranks` GPUs, and what it
/// allocated.
fn counted_run<J: GpmrJob>(
    ranks: u32,
    job: &J,
    chunks: Vec<J::Chunk>,
) -> (JobResult<J::Key, J::Value>, Counted) {
    let mut cluster = Cluster::accelerator(ranks, GpuSpec::gt200());
    let (result, counted) = counting(|| run_job(&mut cluster, job, chunks));
    (result.unwrap(), counted)
}

fn sio_run_allocations(ranks: u32) -> Counted {
    let data = generate_integers(KEYS, 42);
    let chunks = sio_chunks(&data, 4 * KEYS.div_ceil(CHUNKS));
    let (result, counted) = counted_run(ranks, &SioJob::default(), chunks);
    assert_eq!(result.timings.pairs_shuffled, KEYS as u64);
    counted
}

#[test]
fn sio_shuffle_stays_inside_its_allocation_budget() {
    if ran_alone("sio_shuffle_stays_inside_its_allocation_budget") {
        return;
    }
    let counted = sio_run_allocations(RANKS);
    assert_eq!(
        counted,
        sio_run_allocations(RANKS),
        "a fault-free run allocates the same every time"
    );
    // 125 k pairs a reducer: below the sort lane's gate, so every sort
    // runs inline and no other thread allocates.
    assert_eq!(counted.elsewhere, (0, 0));

    let (bytes, calls) = counted.all;
    let pair_bytes = (KEYS * 8) as u64;
    let ratio = bytes as f64 / pair_bytes as f64;
    println!("{bytes} bytes in {calls} allocations: {ratio:.2} x the pair bytes");
    // Measured: 4.92 x in 501 allocations; 5.55 x while each sort wrote
    // a sorted copy of its inbox beside two ping-pong buffers (533
    // allocations while every sort asked the OS for the core count). With a heap bucket per delivery, a
    // concat per reducer and a `Vec` per kernel block the same run took
    // 14.8 x in 5 447.
    assert!(
        bytes <= 9 * pair_bytes,
        "{bytes} bytes allocated to shuffle {pair_bytes} bytes of pairs ({ratio:.2} x, budget 9 x)"
    );
    assert!(
        calls <= ALLOCATION_CEILING,
        "{calls} allocations, ceiling {ALLOCATION_CEILING}"
    );
}

/// A tenth above the measured 501.
const ALLOCATION_CEILING: u64 = 551;

/// Reducers on the lane-on SIO run: 250 k pairs each, over the 2^17 of
/// the sort lane's gate.
const LANE_RANKS: u32 = 4;

#[test]
fn sio_sort_lane_allocates_one_packed_scratch_per_job() {
    if ran_alone("sio_sort_lane_allocates_one_packed_scratch_per_job") {
        return;
    }
    let counted = sio_run_allocations(LANE_RANKS);
    let (bytes, calls) = counted.all;
    let (lane_bytes, lane_calls) = counted.elsewhere;
    // The biggest inbox: SIO routes key k to rank k % ranks.
    let mut inbox = [0u64; LANE_RANKS as usize];
    for k in generate_integers(KEYS, 42) {
        inbox[(k % LANE_RANKS) as usize] += 1;
    }
    let scratch = 8 * inbox.iter().max().unwrap();
    let pair_bytes = (KEYS * 8) as u64;
    println!(
        "{bytes} bytes in {calls} allocations ({:.2} x the pair bytes); on the lane \
         {lane_bytes} bytes in {lane_calls}, for a {scratch}-byte packed scratch",
        bytes as f64 / pair_bytes as f64
    );
    // The helper sorts the last three inboxes in one packed buffer sized
    // for the biggest, with the two 2^16-entry digit-count tables of
    // 16-bit sweeps: three allocations a job, none a rank. (The calling
    // thread sorts the first inbox with the same three of its own, freed
    // before that rank's segments.) The one-slot channel adds the
    // helper's waiter entry (two allocations, 144 bytes) the first time
    // the helper finds the slot full, which depends on the threads'
    // timing — so the lane's counts, and the job's, are ranges here, not
    // the equalities of one thread.
    let counters = 2 * (8 << 16);
    assert!(
        (3..=5).contains(&lane_calls),
        "{lane_calls} allocations on the lane: one scratch and two count tables a job"
    );
    assert!(
        (scratch + counters..=scratch + counters + 144).contains(&lane_bytes),
        "{lane_bytes} bytes on the lane"
    );
    assert!(
        bytes <= 9 * pair_bytes,
        "{bytes} bytes, budget 9 x {pair_bytes}"
    );
    assert!(
        calls <= LANE_ALLOCATION_CEILING,
        "{calls} allocations, ceiling {LANE_ALLOCATION_CEILING}"
    );
}

/// A tenth above the measured 405 (407 with the two waiter entries), in
/// one job of four ranks.
const LANE_ALLOCATION_CEILING: u64 = 446;

const TEXT_BYTES: usize = 4 << 20;
const DICT_WORDS: usize = 43_000;

/// One WO run over [`TEXT_BYTES`] of text in `chunk_bytes` chunks, what
/// it allocated, and the chunks' lengths.
fn wo_run_allocations(chunk_bytes: usize) -> (Counted, Vec<usize>) {
    let dict = std::sync::Arc::new(Dictionary::generate(DICT_WORDS, 42));
    let text = generate_text(&dict, TEXT_BYTES, 43);
    let chunks = chunk_text(&text, chunk_bytes);
    let lens = chunks.iter().map(|c| c.items.len()).collect();
    let (result, counted) = counted_run(RANKS, &WoJob::new(dict, RANKS), chunks);
    // One pair per dictionary word per rank: Accumulation shipped counts,
    // not occurrences.
    assert_eq!(
        result.timings.pairs_shuffled,
        u64::from(RANKS) * DICT_WORDS as u64
    );
    (counted, lens)
}

/// Blocks `[mid, grid)` of a split launch: the helper's half.
fn upper_half(grid: usize) -> std::ops::Range<usize> {
    grid.div_ceil(2)..grid
}

/// `(bytes, calls)` the helpers of a WO run over chunks of `lens` bytes
/// allocate when every map launch splits. Starting a helper allocates
/// nothing on it, and its blocks fill word-id buffers that the calling
/// thread lends them, so each helper allocates one `Vec` for its half's
/// block outputs and nothing else.
fn wo_helper_allocations(lens: &[usize]) -> (u64, u64) {
    const MAP_BLOCK_BYTES: usize = 16 << 10;
    let blocks: usize = (lens.iter())
        .map(|n| upper_half(n.div_ceil(MAP_BLOCK_BYTES)).len())
        .sum();
    let bytes = blocks * std::mem::size_of::<Vec<u32>>();
    (bytes as u64, lens.len() as u64)
}

#[test]
fn wo_accumulation_stays_inside_its_allocation_budget() {
    if ran_alone("wo_accumulation_stays_inside_its_allocation_budget") {
        return;
    }
    let (counted, _) = wo_run_allocations(TEXT_BYTES / 16);
    assert_eq!(
        counted,
        wo_run_allocations(TEXT_BYTES / 16).0,
        "a fault-free run allocates the same every time"
    );
    // 256 KiB chunks: 16 blocks a map launch, 0.55 M units, below the
    // split gate; the reduce's blocks (424 units each) are too small.
    assert_eq!(
        counted.elsewhere,
        (0, 0),
        "nothing runs off the calling thread"
    );
    let (bytes, calls) = counted.all;
    println!(
        "{bytes} bytes in {calls} allocations: {:.2} x the text bytes",
        bytes as f64 / TEXT_BYTES as f64
    );
    assert!(
        bytes <= WO_BYTES_CEILING,
        "{bytes} bytes, ceiling {WO_BYTES_CEILING}"
    );
    assert!(
        calls <= WO_ALLOCATION_CEILING,
        "{calls} allocations, ceiling {WO_ALLOCATION_CEILING}"
    );
}

/// A tenth above the larger of the two WO runs: 18 482 573 bytes (4.41 x
/// the text) in 377 allocations with 256 KiB chunks, 20 058 541 in 413
/// with 1 MiB chunks, where every map launch lends its blocks the
/// word-id buffers of the last. Freshly allocated buffers per launch took
/// 26 413 457 bytes in 619; with a `HashMap` and a sorted `Vec` per map
/// block and a `KvSet` per reduce block the same run took 34 134 461
/// bytes in 14 128.
const WO_BYTES_CEILING: u64 = 22_065_000;
const WO_ALLOCATION_CEILING: u64 = 455;

#[test]
fn split_wo_maps_allocate_their_upper_halves_on_the_helper() {
    if ran_alone("split_wo_maps_allocate_their_upper_halves_on_the_helper") {
        return;
    }
    let (counted, lens) = wo_run_allocations(1 << 20);
    assert_eq!(
        counted,
        wo_run_allocations(1 << 20).0,
        "a fault-free run allocates the same every time"
    );
    // 1 MiB chunks: 64 blocks a map launch, 2.2 M units, over the split
    // gate. The helpers allocate exactly their halves' outputs.
    assert_eq!(counted.elsewhere, wo_helper_allocations(&lens));
    let (bytes, calls) = counted.all;
    println!(
        "{bytes} bytes in {calls} allocations: {:.2} x the text bytes; on helpers {:?}",
        bytes as f64 / TEXT_BYTES as f64,
        counted.elsewhere
    );
    assert!(
        bytes <= WO_BYTES_CEILING,
        "{bytes} bytes, ceiling {WO_BYTES_CEILING}"
    );
    assert!(
        calls <= WO_ALLOCATION_CEILING,
        "{calls} allocations, ceiling {WO_ALLOCATION_CEILING}"
    );
}

const SERVE_JOBS: usize = 40;

/// Forty tiny jobs from one tenant, one every millisecond, SIO and WO
/// alternating. The WO jobs draw on two dictionaries and carry a
/// deadline they miss mid-flight: a stop and a postmortem each.
fn serve_script() -> String {
    let mut script = String::from("tenant t\n");
    for j in 0..SERVE_JOBS {
        let at = j as f64 * 0.001;
        let kind = if j % 2 == 0 {
            format!("sio n=4000 seed={j} chunk_kb=4")
        } else {
            format!(
                "wo bytes=8192 dict=512 seed={} chunk_kb=4 deadline=0.0012",
                j % 4
            )
        };
        script.push_str(&format!("at {at:.6} submit t {kind}\n"));
    }
    script
}

/// Run the script with the flight recorder holding `flight_capacity`
/// spans (0: off); returns the postmortem count and what the run
/// allocated, parsing included.
fn serve_run_allocations(flight_capacity: usize) -> (u64, (u64, u64)) {
    let script = serve_script();
    let cfg = ServiceConfig {
        obs: ObsConfig {
            flight_capacity,
            ..ObsConfig::default()
        },
        ..ServiceConfig::default()
    };
    let ((svc, _report), counted) = counting(|| {
        workload::run_script(&script, cfg, Telemetry::disabled()).expect("the script parses")
    });
    assert_eq!(counted.elsewhere, (0, 0), "tiny jobs sort inline");
    let counted = counted.all;
    let stats = svc.stats();
    assert_eq!(stats.completed + stats.deadline_missed, SERVE_JOBS as u64);
    (stats.postmortems, counted)
}

#[test]
fn serve_path_stays_inside_its_allocation_budget() {
    if ran_alone("serve_path_stays_inside_its_allocation_budget") {
        return;
    }
    let (none, (_, dark_calls)) = serve_run_allocations(0);
    let (postmortems, (bytes, calls)) = serve_run_allocations(4096);
    assert_eq!(none, 0);
    assert_eq!(
        (postmortems, (bytes, calls)),
        serve_run_allocations(4096),
        "a run allocates the same every time"
    );
    assert_eq!(
        postmortems,
        SERVE_JOBS as u64 / 2,
        "every WO job misses its deadline, every SIO job completes"
    );
    let per_job = dark_calls / SERVE_JOBS as u64;
    let per_recorded_job = (calls - dark_calls) / SERVE_JOBS as u64;
    println!(
        "{calls} allocations ({bytes} bytes), {dark_calls} with the recorder off: \
         {per_job} per job, {per_recorded_job} more per job with the recorder on \
         ({postmortems} postmortems)"
    );
    assert!(
        per_job <= SERVE_JOB_ALLOCATION_CEILING,
        "{per_job} allocations per job, ceiling {SERVE_JOB_ALLOCATION_CEILING}"
    );
    assert!(
        per_recorded_job <= RECORDED_JOB_ALLOCATION_CEILING,
        "{per_recorded_job} recorder allocations per job, \
         ceiling {RECORDED_JOB_ALLOCATION_CEILING}"
    );
}

/// A tenth above the measured 201 allocations per job, and 413 more per
/// job with the recorder on: every solo pass records from dispatch, so
/// any of them can carry its own capture into a postmortem, and each of
/// the 20 dumps adds its own. While the service mirrored each of its
/// spans and samples into a ring of the recorder's own, the recorder
/// cost 499 more per job. When a stop re-ran its pass to record it, the
/// same run took 252 per job and 464 more per postmortem (232 per job);
/// with a dictionary built per WO dispatch and per re-run, and the whole
/// ring copied and serialised again by every dump, 1 251 per job and 921
/// per postmortem.
const SERVE_JOB_ALLOCATION_CEILING: u64 = 221;
const RECORDED_JOB_ALLOCATION_CEILING: u64 = 455;

const MM_ORDER: usize = 256;

/// Phase 1 of an order-256 product on the 8 ranks, then the regrouping
/// of its partial tiles into phase-2 chunks, counted: `(tile bytes,
/// bytes allocated, allocations)`.
fn mm_regroup_allocations() -> (u64, u64, u64) {
    let a = Matrix::random(MM_ORDER, 42);
    let b = Matrix::random(MM_ORDER, 43);
    let mut cluster = Cluster::accelerator(RANKS, GpuSpec::gt200());
    let capacity = cluster.gpu(0).mem.capacity();
    let (rb, cb, kb) = mm_auto_blocks(a.n_tiles(), RANKS, capacity);
    let job = MmMapJob::new(a.n_tiles() as u32);
    let phase1 = run_job(&mut cluster, &job, mm_chunks(&a, &b, rb, cb, kb)).unwrap();

    let (chunks, counted) = counting(|| {
        let bound = max_resident_chunk_bytes(&mut cluster, &Default::default());
        phase2_chunks(&phase1.outputs, capacity, bound)
    });
    let (bytes, calls) = counted.all;
    assert_eq!(
        chunks.iter().map(|c| c.items.len() as u64).sum::<u64>(),
        phase1.timings.pairs_shuffled,
        "every partial tile is handed over"
    );
    (chunks.iter().map(Chunk::size_bytes).sum(), bytes, calls)
}

#[test]
fn mm_regroup_stays_inside_its_allocation_budget() {
    if ran_alone("mm_regroup_stays_inside_its_allocation_budget") {
        return;
    }
    let (tile_bytes, bytes, calls) = mm_regroup_allocations();
    assert_eq!(
        (tile_bytes, bytes, calls),
        mm_regroup_allocations(),
        "the hand-over allocates the same every time"
    );
    let ratio = bytes as f64 / tile_bytes as f64;
    println!("{bytes} bytes in {calls} allocations: {ratio:.2} x the {tile_bytes} tile bytes");
    // Measured: 1.02 x in 5 allocations — the tiles once, 12 bytes of
    // handle per tile and as much again of sort scratch. Concatenating
    // the ranks' pairs, sorting the 1 028-byte elements and copying each
    // chunk out of the sorted run took 3.88 x in 8.
    assert!(
        4 * bytes <= 5 * tile_bytes,
        "{bytes} bytes allocated to hand over {tile_bytes} bytes of tiles ({ratio:.2} x, budget 1.25 x)"
    );
}
