//! Allocation budget of the shuffle: how many bytes, in how many
//! allocations, the engine takes from the allocator to move a job's
//! intermediate pairs from Map to the reducers' outputs.
//!
//! SIO is the case to watch — nothing compacts its pairs, so every stage
//! carries all of them. Bin writes each pair once into its reducer's
//! inbox, Sort reads it from there into buffers the ranks share, and Map,
//! Segments and Reduce fill one output each; a per-block `Vec` or a copy
//! creeping back into that path shows up here as a multiple of the pair
//! bytes. The run is single-threaded and fault-free, so both counts
//! repeat exactly.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gpmr::prelude::*;
use gpmr_apps::sio::{generate_integers, sio_chunks};

thread_local! {
    /// Bytes and calls this thread has asked the allocator for while
    /// counting; `None` when not counting.
    static COUNTED: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
}

/// The system allocator, counting `alloc`, `alloc_zeroed` and `realloc`
/// (at its new size — the convention of the benchmark's traced binary).
struct Counting;

fn count(size: usize) {
    COUNTED.with(|c| {
        if let Some((bytes, calls)) = c.get() {
            c.set(Some((bytes + size as u64, calls + 1)));
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged, so `System`'s guarantees carry over; the counter is
// a const-initialized thread-local `Cell` of a `Copy` value, which
// neither allocates nor registers a destructor.
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

/// `(bytes, calls)` of one engine run over prepared chunks.
fn sio_run_allocations() -> (u64, u64) {
    let data = generate_integers(KEYS, 42);
    let chunks = sio_chunks(&data, 4 * KEYS.div_ceil(CHUNKS));
    let mut cluster = Cluster::accelerator(RANKS, GpuSpec::gt200());
    for r in 0..RANKS {
        cluster.gpu(r).worker_threads = 1;
    }
    COUNTED.with(|c| c.set(Some((0, 0))));
    let result = run_job(&mut cluster, &SioJob::default(), chunks);
    let counted = COUNTED.with(|c| c.take()).expect("counting was on");
    let result = result.unwrap();
    assert_eq!(result.timings.pairs_shuffled, KEYS as u64);
    counted
}

#[test]
fn sio_shuffle_stays_inside_its_allocation_budget() {
    let (bytes, calls) = sio_run_allocations();
    assert_eq!(
        (bytes, calls),
        sio_run_allocations(),
        "a single-threaded, fault-free run allocates the same every time"
    );

    let pair_bytes = (KEYS * 8) as u64;
    let ratio = bytes as f64 / pair_bytes as f64;
    println!("{bytes} bytes in {calls} allocations: {ratio:.2} x the pair bytes");
    // Measured: 5.55 x in 533 allocations. With a heap bucket per
    // delivery, a concat per reducer and a `Vec` per kernel block the same
    // run took 14.8 x in 5 447.
    assert!(
        bytes <= 9 * pair_bytes,
        "{bytes} bytes allocated to shuffle {pair_bytes} bytes of pairs ({ratio:.2} x, budget 9 x)"
    );
    assert!(
        calls <= ALLOCATION_CEILING,
        "{calls} allocations, ceiling {ALLOCATION_CEILING}"
    );
}

/// A tenth above the measured 533.
const ALLOCATION_CEILING: u64 = 586;
