//! Kernel launches and block-granularity execution.
//!
//! Simulated kernels are written at *block* granularity: a kernel is a Rust
//! closure invoked once per block with a [`BlockCtx`], mirroring how
//! GPU-efficient code is actually structured (the paper's benchmarks all
//! use block-wide cooperation — tiles, persistent threads, block
//! reductions). Per-thread SIMD detail is folded into the cost model: the
//! closure does the block's real work on host data and *charges* the
//! memory traffic, arithmetic, and atomics it would have issued.
//!
//! A launch returns its blocks' outputs in block order and their
//! aggregate [`KernelCost`], which the device converts to simulated time
//! on the calling thread. The blocks run there too, except that a launch
//! whose blocks hand back data and charge enough work runs its upper half
//! on one scoped helper thread (`run_blocks`); block outputs and costs
//! cannot tell which thread ran a block.

use crate::cost::KernelCost;
use crate::error::{SimGpuError, SimGpuResult};
use crate::spec::GpuSpec;

/// Grid/block shape and per-block resource declaration for one launch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Number of blocks in the grid.
    pub grid_blocks: u32,
    /// Threads per block.
    pub block_threads: u32,
    /// Shared memory per block, in bytes. Allocations made through
    /// [`BlockCtx::shared_alloc`] must fit in this declaration.
    pub shared_bytes: u32,
    /// Registers per thread (occupancy input). Defaults to 16.
    pub regs_per_thread: u32,
}

impl LaunchConfig {
    /// A grid of `blocks` blocks of `threads` threads.
    pub fn grid(blocks: u32, threads: u32) -> Self {
        LaunchConfig {
            grid_blocks: blocks.max(1),
            block_threads: threads.max(1),
            shared_bytes: 0,
            regs_per_thread: 16,
        }
    }

    /// A grid sized so that `items` items are covered with
    /// `items_per_block` items handled by each `threads`-thread block.
    pub fn for_items(items: usize, items_per_block: usize, threads: u32) -> Self {
        let blocks = items.div_ceil(items_per_block.max(1)).max(1);
        Self::grid(blocks as u32, threads)
    }

    /// Declare per-block shared memory.
    pub fn with_shared_bytes(mut self, bytes: u32) -> Self {
        self.shared_bytes = bytes;
        self
    }

    /// Declare per-thread register use.
    pub fn with_regs_per_thread(mut self, regs: u32) -> Self {
        self.regs_per_thread = regs;
        self
    }

    /// Check the configuration against hardware limits.
    pub fn validate(&self, spec: &GpuSpec) -> SimGpuResult<()> {
        if self.grid_blocks == 0 || self.block_threads == 0 {
            return Err(SimGpuError::InvalidLaunch(
                "grid and block dimensions must be non-zero".into(),
            ));
        }
        if self.block_threads > spec.max_threads_per_block {
            return Err(SimGpuError::InvalidLaunch(format!(
                "{} threads per block exceeds device maximum {}",
                self.block_threads, spec.max_threads_per_block
            )));
        }
        if self.shared_bytes > spec.shared_mem_per_sm {
            return Err(SimGpuError::InvalidLaunch(format!(
                "{} bytes of shared memory exceeds per-SM capacity {}",
                self.shared_bytes, spec.shared_mem_per_sm
            )));
        }
        Ok(())
    }
}

/// Execution context handed to the kernel closure, one per block.
///
/// Provides the block's coordinates, shared-memory allocation, cooperative
/// reduction helpers, and the cost-accounting API. All `charge_*` methods
/// record work for the timing model; they do not move data.
pub struct BlockCtx<'a> {
    /// Index of this block within the grid.
    pub block_idx: u32,
    /// Number of blocks in the grid.
    pub grid_blocks: u32,
    spec: &'a GpuSpec,
    shared_declared: u32,
    shared_used: u32,
    cost: KernelCost,
}

impl<'a> BlockCtx<'a> {
    pub(crate) fn new(spec: &'a GpuSpec, cfg: &LaunchConfig, block_idx: u32) -> Self {
        BlockCtx {
            block_idx,
            grid_blocks: cfg.grid_blocks,
            spec,
            shared_declared: cfg.shared_bytes,
            shared_used: 0,
            cost: KernelCost::ZERO,
        }
    }

    /// Range of items `[start, end)` owned by this block when `total`
    /// items are divided as evenly as possible over the grid.
    pub fn item_range(&self, total: usize) -> std::ops::Range<usize> {
        let per = total.div_ceil(self.grid_blocks as usize);
        let start = (self.block_idx as usize * per).min(total);
        let end = (start + per).min(total);
        start..end
    }

    // ---- cost accounting -------------------------------------------------

    /// Charge a coalesced global-memory read of `elems` elements of `T`.
    pub fn charge_read<T>(&mut self, elems: usize) {
        self.cost.bytes_coalesced += (elems * std::mem::size_of::<T>()) as u64;
    }

    /// Charge a coalesced global-memory write of `elems` elements of `T`.
    pub fn charge_write<T>(&mut self, elems: usize) {
        self.cost.bytes_coalesced += (elems * std::mem::size_of::<T>()) as u64;
    }

    /// Charge an *uncoalesced* read (scattered addresses; each element pays
    /// the transaction-waste penalty).
    pub fn charge_read_uncoalesced<T>(&mut self, elems: usize) {
        self.cost.bytes_uncoalesced += (elems * std::mem::size_of::<T>()) as u64;
    }

    /// Charge an *uncoalesced* write.
    pub fn charge_write_uncoalesced<T>(&mut self, elems: usize) {
        self.cost.bytes_uncoalesced += (elems * std::mem::size_of::<T>()) as u64;
    }

    /// Charge `n` arithmetic operations.
    pub fn charge_flops(&mut self, n: u64) {
        self.cost.flops += n;
    }

    /// Charge `n` global-memory atomic operations.
    pub fn charge_atomics(&mut self, n: u64) {
        self.cost.atomic_ops += n;
    }

    /// Charge `accesses` shared-memory accesses of `T` with lane stride
    /// `stride_elems`, modelling bank conflicts: GT200 shared memory has
    /// 16 banks of 4-byte words, so a half-warp whose lanes hit the same
    /// bank serializes by the conflict degree `gcd(stride_words, 16)`
    /// (stride 1 → conflict-free; stride 16 → fully serialized 16-way).
    /// Charged as extra cycles (flops).
    pub fn charge_shared<T>(&mut self, accesses: usize, stride_elems: usize) {
        let stride_words = (stride_elems * std::mem::size_of::<T>()).div_ceil(4).max(1);
        let degree = gcd(stride_words as u64, 16);
        self.cost.flops += accesses as u64 * degree;
    }

    // ---- shared memory ---------------------------------------------------

    /// Allocate `len` elements of block-shared scratch memory.
    ///
    /// Fails if the running total exceeds the launch configuration's
    /// declared `shared_bytes` — the same error a real kernel would hit at
    /// launch time with a too-small dynamic shared-memory argument.
    pub fn shared_alloc<T: Clone + Default>(&mut self, len: usize) -> SimGpuResult<Vec<T>> {
        let bytes = (len * std::mem::size_of::<T>()) as u32;
        if self.shared_used + bytes > self.shared_declared {
            return Err(SimGpuError::SharedMemExceeded {
                requested: self.shared_used + bytes,
                declared: self.shared_declared,
            });
        }
        self.shared_used += bytes;
        Ok(vec![T::default(); len])
    }

    // ---- cooperative helpers ----------------------------------------------

    /// Warp-wide coalesced sum over a strided value range, as used by the
    /// paper's Word Occurrence reducer (one key per warp, lanes summing in
    /// a coalesced fashion then a warp reduction). Charges a coalesced read
    /// of the values plus the warp-combine arithmetic.
    pub fn warp_sum_u32(&mut self, values: &[u32]) -> u64 {
        self.charge_read::<u32>(values.len());
        self.cost.flops += values.len() as u64 + u64::from(self.spec.warp_size.ilog2());
        values.iter().map(|&v| v as u64).sum()
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a.max(1)
}

/// Everything a finished launch reports back.
#[derive(Debug)]
pub struct Launch<R> {
    /// Per-block outputs, in block order.
    pub outputs: Vec<R>,
    /// Aggregate cost over all blocks.
    pub cost: KernelCost,
}

/// Charged work (flops, bytes and atomics, one unit each) from which a
/// launch that hands data back runs its upper half of blocks on a helper
/// thread: block 0's units times the grid must reach it, so that the
/// launch's host time pays for starting and joining the helper. Set from
/// a sweep of the benchmark's WO and paper workloads (DESIGN.md §5).
const SPLIT_MIN_UNITS: u64 = 1_000_000;

/// What block 0 alone must charge for its launch to split. Units track
/// host time only where a block does work on host data of that size; a
/// grid of many small blocks charges far more than it costs (WO's
/// warp-per-key reduce: 424 units a block, 2.28 M a launch, 0.5 ms of
/// host time, against 2.22 M and 5 ms for one of its map launches). The
/// smallest blocks that split on the benchmark are MM's map tiles, at
/// 19 456 units.
const SPLIT_MIN_BLOCK_UNITS: u64 = 4_096;

/// The units `cost` counts toward the split gate.
fn units(cost: &KernelCost) -> u64 {
    cost.flops + cost.bytes_coalesced + cost.bytes_uncoalesced + cost.atomic_ops
}

/// Execute `f` for every block of `cfg`, returning per-block outputs in
/// block order plus the aggregate cost.
///
/// Block 0 runs on the calling thread. A launch of three or more blocks
/// that return data (a zero-sized `R` only charges), whose block 0
/// charged [`SPLIT_MIN_BLOCK_UNITS`] or more and, times the grid,
/// [`SPLIT_MIN_UNITS`] or more, splits: one
/// scoped helper runs blocks `[mid, grid)` while the calling thread runs
/// `[1, mid)`, both through one loop body. Outputs are concatenated and
/// costs (exact integers) summed in block order, the first error in
/// block order wins, and a panic on the helper resumes here. The decision
/// reads only `cfg` and block 0's cost, so the same launches split on
/// every run.
pub(crate) fn run_blocks<R, F>(
    spec: &GpuSpec,
    cfg: &LaunchConfig,
    f: &F,
) -> SimGpuResult<(Vec<R>, KernelCost)>
where
    R: Send,
    F: Fn(&mut BlockCtx) -> SimGpuResult<R> + Sync,
{
    cfg.validate(spec)?;
    let grid = cfg.grid_blocks;
    let run = |blocks: std::ops::Range<u32>, outputs: &mut Vec<R>| {
        let mut cost = KernelCost::ZERO;
        for b in blocks {
            let mut ctx = BlockCtx::new(spec, cfg, b);
            outputs.push(f(&mut ctx)?);
            cost += ctx.cost;
        }
        Ok(cost)
    };
    let mut outputs = Vec::with_capacity(grid as usize);
    let first = run(0..1, &mut outputs)?;
    // With fewer than three blocks the calling thread would only wait.
    let mid = grid.div_ceil(2);
    let block = units(&first);
    let work = block.saturating_mul(u64::from(grid));
    if std::mem::size_of::<R>() == 0
        || mid < 2
        || block < SPLIT_MIN_BLOCK_UNITS
        || work < SPLIT_MIN_UNITS
    {
        let rest = run(1..grid, &mut outputs)?;
        return Ok((outputs, first + rest));
    }
    std::thread::scope(|s| {
        let upper = s.spawn(|| {
            let mut outputs = Vec::with_capacity((grid - mid) as usize);
            run(mid..grid, &mut outputs).map(|cost| (outputs, cost))
        });
        let lower = run(1..mid, &mut outputs);
        let upper = upper
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        let lower = lower?;
        let (upper_outputs, upper) = upper?;
        outputs.extend(upper_outputs);
        Ok((outputs, first + lower + upper))
    })
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;
    use std::thread::{self, ThreadId};

    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    fn spec() -> GpuSpec {
        GpuSpec::gt200()
    }

    #[test]
    fn launch_config_builders() {
        let c = LaunchConfig::for_items(1000, 100, 128)
            .with_shared_bytes(1024)
            .with_regs_per_thread(24);
        assert_eq!(c.grid_blocks, 10);
        assert_eq!(c.block_threads, 128);
        assert_eq!(c.shared_bytes, 1024);
        assert_eq!(c.regs_per_thread, 24);
        assert!(c.validate(&spec()).is_ok());
    }

    #[test]
    fn validate_rejects_oversized_blocks() {
        let c = LaunchConfig::grid(1, 1024);
        assert!(matches!(
            c.validate(&spec()),
            Err(SimGpuError::InvalidLaunch(_))
        ));
        let c = LaunchConfig::grid(4, 64).with_shared_bytes(64 * 1024);
        assert!(c.validate(&spec()).is_err());
    }

    #[test]
    fn item_range_partitions_exactly() {
        let s = spec();
        let cfg = LaunchConfig::grid(7, 32);
        let mut covered = [false; 100];
        for b in 0..7 {
            let ctx = BlockCtx::new(&s, &cfg, b);
            for i in ctx.item_range(100) {
                assert!(!covered[i], "overlap at {i}");
                covered[i] = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn run_blocks_is_ordered() {
        let s = spec();
        let cfg = LaunchConfig::grid(37, 64);
        let f = |ctx: &mut BlockCtx| {
            ctx.charge_flops(ctx.block_idx as u64);
            Ok(ctx.block_idx)
        };
        let (out, cost) = run_blocks(&s, &cfg, &f).unwrap();
        assert_eq!(out, (0..37).collect::<Vec<_>>());
        assert_eq!(cost.flops, (0..37).sum::<u64>());
    }

    #[test]
    fn shared_alloc_enforces_declaration() {
        let s = spec();
        let cfg = LaunchConfig::grid(1, 32).with_shared_bytes(16);
        let mut ctx = BlockCtx::new(&s, &cfg, 0);
        let a: Vec<u32> = ctx.shared_alloc(4).unwrap();
        assert_eq!(a.len(), 4);
        let err = ctx.shared_alloc::<u32>(1).unwrap_err();
        assert!(matches!(err, SimGpuError::SharedMemExceeded { .. }));
    }

    #[test]
    fn warp_sum_charges_coalesced_reads() {
        let s = spec();
        let cfg = LaunchConfig::grid(1, 32);
        let mut ctx = BlockCtx::new(&s, &cfg, 0);
        let total = ctx.warp_sum_u32(&[5, 6, 7]);
        assert_eq!(total, 18);
        assert_eq!(ctx.cost.bytes_coalesced, 12);
        assert!(ctx.cost.flops >= 3);
    }

    #[test]
    fn kernel_errors_propagate_from_blocks() {
        let s = spec();
        let cfg = LaunchConfig::grid(16, 32).with_shared_bytes(4);
        let f = |ctx: &mut BlockCtx| {
            // Every block over-allocates shared memory.
            ctx.shared_alloc::<u64>(2)?;
            Ok(())
        };
        assert!(run_blocks(&s, &cfg, &f).is_err());
    }

    #[test]
    fn shared_memory_bank_conflicts() {
        let s = spec();
        let cfg = LaunchConfig::grid(1, 32);
        // Stride 1 (f32): conflict-free — one cycle per access.
        let mut ctx = BlockCtx::new(&s, &cfg, 0);
        ctx.charge_shared::<f32>(100, 1);
        assert_eq!(ctx.cost.flops, 100);
        // Stride 2: 2-way conflicts.
        let mut ctx = BlockCtx::new(&s, &cfg, 0);
        ctx.charge_shared::<f32>(100, 2);
        assert_eq!(ctx.cost.flops, 200);
        // Stride 16: fully serialized 16-way conflicts.
        let mut ctx = BlockCtx::new(&s, &cfg, 0);
        ctx.charge_shared::<f32>(100, 16);
        assert_eq!(ctx.cost.flops, 1600);
        // Odd strides are conflict-free.
        let mut ctx = BlockCtx::new(&s, &cfg, 0);
        ctx.charge_shared::<f32>(100, 17);
        assert_eq!(ctx.cost.flops, 100);
        // 8-byte elements double the word stride.
        let mut ctx = BlockCtx::new(&s, &cfg, 0);
        ctx.charge_shared::<f64>(100, 1);
        assert_eq!(ctx.cost.flops, 200);
    }

    #[test]
    fn charges_accumulate_by_kind() {
        let s = spec();
        let cfg = LaunchConfig::grid(1, 32);
        let mut ctx = BlockCtx::new(&s, &cfg, 0);
        ctx.charge_read::<u32>(10);
        ctx.charge_write::<u64>(5);
        ctx.charge_read_uncoalesced::<u8>(3);
        ctx.charge_write_uncoalesced::<u16>(2);
        ctx.charge_atomics(7);
        let c = ctx.cost;
        assert_eq!(c.bytes_coalesced, 40 + 40);
        assert_eq!(c.bytes_uncoalesced, 3 + 4);
        assert_eq!(c.atomic_ops, 7);
    }

    // ---- the split: block outputs, costs, errors and panics ------------

    /// A block's charges and output, functions of its index: `per_block`
    /// flops, then reads and atomics that block 0 does not make.
    fn work(ctx: &mut BlockCtx, per_block: u64) -> u64 {
        let b = u64::from(ctx.block_idx);
        ctx.charge_flops(per_block);
        ctx.charge_read::<u32>(b as usize);
        ctx.charge_atomics(b % 7);
        b * 31 + 7
    }

    /// The sequential oracle: `(0..grid).map(f)` on this thread.
    fn oracle<R>(cfg: &LaunchConfig, f: impl Fn(&mut BlockCtx) -> R) -> (Vec<R>, KernelCost) {
        let s = spec();
        let mut cost = KernelCost::ZERO;
        let outputs = (0..cfg.grid_blocks)
            .map(|b| {
                let mut ctx = BlockCtx::new(&s, cfg, b);
                let out = f(&mut ctx);
                cost += ctx.cost;
                out
            })
            .collect();
        (outputs, cost)
    }

    /// What `run_blocks` returns.
    type Ran<R> = SimGpuResult<(Vec<R>, KernelCost)>;

    /// `run_blocks` of `f` on `cfg`: what it returned, the indices of the
    /// blocks that ran off the calling thread, and how many blocks ran.
    fn run_watched<R: Send>(
        cfg: &LaunchConfig,
        f: impl Fn(&mut BlockCtx) -> SimGpuResult<R> + Sync,
    ) -> (Ran<R>, Vec<u32>, usize) {
        let ran: Mutex<Vec<(u32, ThreadId)>> = Mutex::new(Vec::new());
        let out = run_blocks(&spec(), cfg, &|ctx: &mut BlockCtx| {
            ran.lock()
                .unwrap()
                .push((ctx.block_idx, thread::current().id()));
            f(ctx)
        });
        let ran = ran.into_inner().unwrap();
        let here = thread::current().id();
        let mut elsewhere: Vec<u32> = ran
            .iter()
            .filter(|(_, t)| *t != here)
            .map(|(b, _)| *b)
            .collect();
        elsewhere.sort_unstable();
        (out, elsewhere, ran.len())
    }

    /// Which side of the gate a launch lands on.
    #[derive(Clone, Copy, Debug)]
    enum Side {
        /// Both the block's and the launch's units reach the gate.
        Above,
        /// The launch's units fall short.
        SmallLaunch,
        /// Block 0's units fall short, whatever the launch's.
        SmallBlocks,
    }

    /// Flops a block charges so that `grid` blocks land on `side` of the
    /// gate, by a seeded margin.
    fn per_block(rng: &mut SmallRng, grid: u32, side: Side) -> u64 {
        let grid = u64::from(grid);
        let margin = rng.gen_range(0..1000u64);
        match side {
            Side::Above => SPLIT_MIN_UNITS.div_ceil(grid).max(SPLIT_MIN_BLOCK_UNITS) + margin,
            Side::SmallLaunch => ((SPLIT_MIN_UNITS - 1) / grid).saturating_sub(margin),
            Side::SmallBlocks => (SPLIT_MIN_BLOCK_UNITS - 1).saturating_sub(margin),
        }
    }

    #[test]
    fn split_launches_match_the_sequential_oracle_on_both_sides_of_the_gate() {
        let mut rng = SmallRng::seed_from_u64(50);
        for case in 0..96 {
            let grid = rng.gen_range(1..=300u32);
            let side = [Side::Above, Side::SmallLaunch, Side::SmallBlocks][case % 3];
            let units = per_block(&mut rng, grid, side);
            let cfg = LaunchConfig::grid(grid, 64);
            let f = |ctx: &mut BlockCtx| work(ctx, units);
            let (out, elsewhere, ran) = run_watched(&cfg, |ctx| Ok(f(ctx)));
            assert_eq!(
                out.unwrap(),
                oracle(&cfg, f),
                "grid {grid}, {units} units a block ({side:?})"
            );
            assert_eq!(ran, grid as usize);
            // Above the gate, from three blocks up, the helper runs the
            // upper half; otherwise no block leaves this thread.
            let mid = grid.div_ceil(2);
            let split = matches!(side, Side::Above) && grid >= 3;
            let expected: Vec<u32> = if split {
                (mid..grid).collect()
            } else {
                Vec::new()
            };
            assert_eq!(
                elsewhere, expected,
                "grid {grid}, {units} units a block ({side:?})"
            );
        }
    }

    #[test]
    fn blocks_that_only_charge_never_leave_the_calling_thread() {
        let cfg = LaunchConfig::grid(300, 64);
        let (out, elsewhere, _) = run_watched(&cfg, |ctx| {
            ctx.charge_flops(SPLIT_MIN_UNITS);
            Ok(())
        });
        let (outputs, cost) = out.unwrap();
        assert_eq!((outputs.len(), cost.flops), (300, 300 * SPLIT_MIN_UNITS));
        assert!(elsewhere.is_empty(), "{elsewhere:?}");
    }

    /// Block `b` charges over the gate and fails when `fails(b)`, naming
    /// itself.
    fn failing(ctx: &mut BlockCtx, fails: impl Fn(u32) -> bool) -> SimGpuResult<u32> {
        ctx.charge_flops(SPLIT_MIN_UNITS);
        let b = ctx.block_idx;
        if fails(b) {
            return Err(SimGpuError::InvalidLaunch(format!("block {b}")));
        }
        Ok(b)
    }

    #[test]
    fn the_first_error_in_block_order_wins_across_the_halves() {
        let mut rng = SmallRng::seed_from_u64(51);
        for _ in 0..32 {
            let grid = rng.gen_range(3..=300u32);
            let mid = grid.div_ceil(2);
            let low = rng.gen_range(1..mid);
            let high = rng.gen_range(mid..grid);
            let cfg = LaunchConfig::grid(grid, 64);
            let (out, elsewhere, _) =
                run_watched(&cfg, |ctx| failing(ctx, |b| b == low || b == high));
            let want = SimGpuError::InvalidLaunch(format!("block {low}"));
            assert_eq!(out.unwrap_err(), want, "grid {grid}");
            // The helper ran up to its own error.
            assert_eq!(elsewhere, (mid..=high).collect::<Vec<_>>(), "grid {grid}");
        }
    }

    #[test]
    fn an_error_in_block_0_runs_no_other_block() {
        let cfg = LaunchConfig::grid(300, 64);
        let (out, elsewhere, ran) = run_watched(&cfg, |ctx| failing(ctx, |b| b == 0));
        let want = SimGpuError::InvalidLaunch("block 0".into());
        assert_eq!(out.unwrap_err(), want);
        assert_eq!((ran, elsewhere.len()), (1, 0));
    }

    #[test]
    fn a_panic_in_the_upper_half_surfaces_as_that_panic() {
        let cfg = LaunchConfig::grid(40, 64);
        let panic = std::panic::catch_unwind(|| {
            run_blocks(&spec(), &cfg, &|ctx: &mut BlockCtx| {
                ctx.charge_flops(SPLIT_MIN_UNITS);
                assert!(ctx.block_idx != 33, "block 33 gave up");
                Ok(ctx.block_idx)
            })
        })
        .expect_err("the helper's panic reaches the caller");
        let msg = (panic.downcast_ref::<&str>().copied())
            .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
            .unwrap_or_default();
        assert_eq!(msg, "block 33 gave up");
    }
}
