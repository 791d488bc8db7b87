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
//! Blocks run in block order on the calling thread, and the aggregate
//! [`KernelCost`] is converted to simulated time by the device.

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
    /// Threads per block.
    pub block_threads: u32,
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
            block_threads: cfg.block_threads,
            spec,
            shared_declared: cfg.shared_bytes,
            shared_used: 0,
            cost: KernelCost::ZERO,
        }
    }

    /// SIMD width of a warp on this device.
    pub fn warp_size(&self) -> u32 {
        self.spec.warp_size
    }

    /// Number of warps in this block.
    pub fn warps_per_block(&self) -> u32 {
        self.block_threads.div_ceil(self.spec.warp_size)
    }

    /// Device description (for kernels that adapt to hardware, e.g. the
    /// paper's K-Means choosing per-block pools when FP atomics are
    /// missing).
    pub fn spec(&self) -> &GpuSpec {
        self.spec
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

    /// Record a memory operation by the *actual byte addresses* each lane
    /// touches and charge the bus traffic the GT200 coalescing rules
    /// derive for it (one warp per 32 addresses; see [`crate::access`]).
    /// The emergent alternative to declaring `charge_read` vs
    /// `charge_read_uncoalesced` by hand.
    ///
    /// ```
    /// use gpmr_sim_gpu::{Gpu, GpuSpec, LaunchConfig, SimTime};
    /// let mut gpu = Gpu::new(GpuSpec::gt200());
    /// let scattered: Vec<u64> = (0..32).map(|lane| lane * 4096).collect();
    /// let (launch, _) = gpu.launch(SimTime::ZERO, &LaunchConfig::grid(1, 32), |ctx| {
    ///     ctx.charge_addressed::<u32>(&scattered).waste_factor()
    /// })?;
    /// assert_eq!(launch.outputs, [8.0]); // a 32-byte segment per 4-byte read
    /// # Ok::<(), gpmr_sim_gpu::SimGpuError>(())
    /// ```
    pub fn charge_addressed<T>(&mut self, addresses: &[u64]) -> crate::access::CoalescingSummary {
        let mut total = crate::access::CoalescingSummary::default();
        for warp in addresses.chunks(self.spec.warp_size as usize) {
            total.merge(crate::access::coalesce_warp(
                warp,
                std::mem::size_of::<T>() as u64,
            ));
        }
        self.cost.bytes_coalesced += total.bytes_moved;
        total
    }

    /// Cost recorded by this block so far.
    pub fn cost(&self) -> KernelCost {
        self.cost
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
    /// Occupancy fraction achieved by the configuration.
    pub occupancy: f64,
}

/// Execute `f` for every block of `cfg`, in block order on the calling
/// thread, returning per-block outputs plus the aggregate cost.
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
    let grid = cfg.grid_blocks as usize;
    let mut outputs = Vec::with_capacity(grid);
    let mut cost = KernelCost::ZERO;
    for b in 0..grid {
        let mut ctx = BlockCtx::new(spec, cfg, b as u32);
        outputs.push(f(&mut ctx)?);
        cost += ctx.cost;
    }
    Ok((outputs, cost))
}

#[cfg(test)]
mod tests {
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
        assert_eq!(ctx.cost().bytes_coalesced, 12);
        assert!(ctx.cost().flops >= 3);
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
        assert_eq!(ctx.cost().flops, 100);
        // Stride 2: 2-way conflicts.
        let mut ctx = BlockCtx::new(&s, &cfg, 0);
        ctx.charge_shared::<f32>(100, 2);
        assert_eq!(ctx.cost().flops, 200);
        // Stride 16: fully serialized 16-way conflicts.
        let mut ctx = BlockCtx::new(&s, &cfg, 0);
        ctx.charge_shared::<f32>(100, 16);
        assert_eq!(ctx.cost().flops, 1600);
        // Odd strides are conflict-free.
        let mut ctx = BlockCtx::new(&s, &cfg, 0);
        ctx.charge_shared::<f32>(100, 17);
        assert_eq!(ctx.cost().flops, 100);
        // 8-byte elements double the word stride.
        let mut ctx = BlockCtx::new(&s, &cfg, 0);
        ctx.charge_shared::<f64>(100, 1);
        assert_eq!(ctx.cost().flops, 200);
    }

    #[test]
    fn addressed_charges_agree_with_declared_model_at_the_extremes() {
        let s = spec();
        let cfg = LaunchConfig::grid(1, 32);

        // Perfectly sequential addresses: derived traffic equals the
        // declared coalesced charge.
        let mut auto = BlockCtx::new(&s, &cfg, 0);
        let seq: Vec<u64> = (0..256).map(|i| i * 4).collect();
        let summary = auto.charge_addressed::<u32>(&seq);
        let mut declared = BlockCtx::new(&s, &cfg, 0);
        declared.charge_read::<u32>(256);
        assert_eq!(auto.cost().bytes_coalesced, declared.cost().bytes_coalesced);
        assert!((summary.waste_factor() - 1.0).abs() < 1e-12);

        // Full scatter: derived traffic equals the declared uncoalesced
        // charge times the penalty (8x for 4-byte elements on GT200).
        let mut auto = BlockCtx::new(&s, &cfg, 0);
        let scattered: Vec<u64> = (0..256).map(|i| i * 4096).collect();
        auto.charge_addressed::<u32>(&scattered);
        let mut declared = BlockCtx::new(&s, &cfg, 0);
        declared.charge_read_uncoalesced::<u32>(256);
        let declared_effective = declared.cost().effective_bytes(&s);
        assert!(
            (auto.cost().bytes_coalesced as f64 - declared_effective).abs()
                < 1e-9 * declared_effective
        );
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
        let c = ctx.cost();
        assert_eq!(c.bytes_coalesced, 40 + 40);
        assert_eq!(c.bytes_uncoalesced, 3 + 4);
        assert_eq!(c.atomic_ops, 7);
    }
}
