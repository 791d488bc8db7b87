//! Matrix Multiplication (MM): the paper's compute-bound, strongly-scaling
//! benchmark (§5.3.1).
//!
//! The CPU-MapReduce formulation (one vector-vector product per output
//! element) falls short on GPUs — no coalescing, no shared-memory reuse —
//! so the paper uses the cache-oblivious hierarchical approach: matrices
//! are tiled; each block computes an output tile as an inner product of
//! 16x16 tile multiplications staged through shared memory.
//!
//! Because a single-key reduction must fit in core, the paper splits the
//! computation into **two GPMR tasks** (its footnote 2):
//!
//! 1. [`MmMapJob`] — map items are (output-tile, k-slab) partial products;
//!    each emits `(tile_key, partial_tile)`. Sort and Reduce are
//!    *bypassed*; partial tiles are binned straight to their owner rank.
//! 2. [`MmSumJob`] — a second Map sums the partial tiles per key
//!    (again bypassing Sort/Reduce), producing the final tiles.
//!
//! [`run_mm`] drives the two as the two rounds of one job on the core
//! round driver ([`run_rounds`]): round 0 maps the slab products, the
//! hand-over ([`phase2_chunks`]) regroups its partial tiles by key, and
//! round 1 sums them.

use gpmr_core::rounds::{max_resident_chunk_bytes, run_rounds, RoundJob, RoundStep};
use gpmr_core::{
    Chunk, EngineError, EngineResult, GpmrJob, JobTimings, KvSet, PartitionMode, PipelineConfig,
    Pod, RunOpts, SliceChunk,
};
use gpmr_sim_gpu::SimDuration;
use gpmr_sim_gpu::{Gpu, LaunchConfig, SimGpuResult, SimTime};
use gpmr_sim_net::Cluster;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Tile edge length: blocks of 256 threads multiply 16x16 tiles with
/// coalesced reads (paper: "we stop the division here because a block of
/// 256 threads can read 16^2 values in a coalesced manner").
pub const TILE: usize = 16;
/// Elements per tile.
pub const TILE_ELEMS: usize = TILE * TILE;

/// One 16x16 tile, row-major.
pub type TileData = [f32; TILE_ELEMS];

/// Tiles by key: a rank's output of either task.
type Tiles = KvSet<u32, TileData>;

/// A dense square matrix, row-major, order divisible by [`TILE`].
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    /// Order (rows = cols = n).
    pub n: usize,
    /// Row-major elements.
    pub data: Vec<f32>,
}

impl Matrix {
    /// Zero matrix of order `n` (must be a multiple of [`TILE`]).
    pub fn zeros(n: usize) -> Self {
        assert_eq!(n % TILE, 0, "matrix order must be a multiple of {TILE}");
        Matrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Seeded random matrix with entries in `[-1, 1)`.
    pub fn random(n: usize, seed: u64) -> Self {
        let mut m = Self::zeros(n);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x4d4d);
        for v in &mut m.data {
            *v = rng.gen_range(-1.0..1.0);
        }
        m
    }

    /// Number of tiles per dimension.
    pub fn n_tiles(&self) -> usize {
        self.n / TILE
    }

    /// Extract tile `(ti, tj)`.
    pub fn tile(&self, ti: usize, tj: usize) -> TileData {
        let mut t = [0.0f32; TILE_ELEMS];
        for r in 0..TILE {
            let src = (ti * TILE + r) * self.n + tj * TILE;
            t[r * TILE..(r + 1) * TILE].copy_from_slice(&self.data[src..src + TILE]);
        }
        t
    }

    /// Write tile `(ti, tj)`.
    pub fn set_tile(&mut self, ti: usize, tj: usize, t: &TileData) {
        for r in 0..TILE {
            let dst = (ti * TILE + r) * self.n + tj * TILE;
            self.data[dst..dst + TILE].copy_from_slice(&t[r * TILE..(r + 1) * TILE]);
        }
    }

    /// Reference sequential multiply (tile-ordered accumulation, matching
    /// the GPMR phase order bit-for-bit).
    pub fn multiply_reference(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.n, other.n);
        let nt = self.n_tiles();
        let mut c = Matrix::zeros(self.n);
        for ti in 0..nt {
            for tj in 0..nt {
                let mut acc = [0.0f32; TILE_ELEMS];
                for tk in 0..nt {
                    let a = self.tile(ti, tk);
                    let b = other.tile(tk, tj);
                    tile_multiply_add(&a, &b, &mut acc);
                }
                c.set_tile(ti, tj, &acc);
            }
        }
        c
    }
}

/// `acc += a * b` for 16x16 tiles.
fn tile_multiply_add(a: &TileData, b: &TileData, acc: &mut TileData) {
    for r in 0..TILE {
        for k in 0..TILE {
            let av = a[r * TILE + k];
            let brow = &b[k * TILE..(k + 1) * TILE];
            let crow = &mut acc[r * TILE..(r + 1) * TILE];
            for c in 0..TILE {
                crow[c] += av * brow[c];
            }
        }
    }
}

/// Pack an output-tile coordinate into a key.
pub fn tile_key(ti: u32, tj: u32) -> u32 {
    (ti << 16) | tj
}

/// Unpack a tile key.
pub fn tile_coords(key: u32) -> (u32, u32) {
    (key >> 16, key & 0xffff)
}

/// A phase-1 chunk: an A slab (`row_len x k_len`) and a B slab
/// (`k_len x col_len`) — everything needed to produce partial tiles for
/// the `row_len x col_len` output-tile block over `k_len` of the inner
/// dimension.
#[derive(Clone, Debug, PartialEq)]
pub struct MmChunk {
    /// Tiles per dimension of the full matrices.
    pub n_tiles: u32,
    /// First tile-row covered.
    pub row_start: u32,
    /// Number of tile-rows covered.
    pub row_len: u32,
    /// First tile-column covered.
    pub col_start: u32,
    /// Number of tile-columns covered.
    pub col_len: u32,
    /// First tile of the k-slab.
    pub k_start: u32,
    /// Tiles in the k-slab.
    pub k_len: u32,
    /// A tiles, `row_len x k_len`, row-major.
    pub a: Vec<TileData>,
    /// B tiles, `k_len x col_len`, row-major.
    pub b: Vec<TileData>,
}

impl Chunk for MmChunk {
    fn item_count(&self) -> usize {
        (self.row_len * self.col_len * self.k_len) as usize
    }

    fn size_bytes(&self) -> u64 {
        ((self.a.len() + self.b.len()) * TILE_ELEMS * 4) as u64
    }

    fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.n_tiles.write_le(&mut out);
        self.row_start.write_le(&mut out);
        self.row_len.write_le(&mut out);
        self.col_start.write_le(&mut out);
        self.col_len.write_le(&mut out);
        self.k_start.write_le(&mut out);
        self.k_len.write_le(&mut out);
        gpmr_core::pod::write_slice(&self.a, &mut out);
        gpmr_core::pod::write_slice(&self.b, &mut out);
        out
    }
}

fn owner_of(key: u32, n_tiles: u32, ranks: u32) -> u32 {
    let (i, j) = tile_coords(key);
    (i * n_tiles + j) % ranks.max(1)
}

/// Both tasks' pipeline: tiles are binned straight to their owner rank
/// ([`owner_of`]), Sort and Reduce bypassed.
fn binned_to_owner() -> PipelineConfig {
    PipelineConfig {
        partition: PartitionMode::Custom,
        sort_and_reduce: false,
        ..PipelineConfig::default()
    }
}

/// Phase 1: partial tile products.
#[derive(Clone, Copy, Debug)]
pub struct MmMapJob {
    n_tiles: u32,
}

impl MmMapJob {
    /// Job for matrices with `n_tiles` tiles per dimension.
    pub fn new(n_tiles: u32) -> Self {
        MmMapJob { n_tiles }
    }
}

impl GpmrJob for MmMapJob {
    type Chunk = MmChunk;
    type Key = u32;
    type Value = TileData;

    fn pipeline(&self) -> PipelineConfig {
        binned_to_owner()
    }

    fn partition(&self, key: &u32, ranks: u32) -> u32 {
        owner_of(*key, self.n_tiles, ranks)
    }

    fn map(&self, gpu: &mut Gpu, at: SimTime, chunk: &MmChunk) -> SimGpuResult<(Tiles, SimTime)> {
        let (rows, cols, klen) = (
            chunk.row_len as usize,
            chunk.col_len as usize,
            chunk.k_len as usize,
        );
        let out_tiles = rows * cols;
        // One block per output tile; 256 threads; two tiles staged in
        // shared memory per step.
        let cfg = LaunchConfig::grid(out_tiles as u32, 256)
            .with_shared_bytes((2 * TILE_ELEMS * 4) as u32)
            .with_regs_per_thread(20);
        let (launch, res) = gpu.launch(at, &cfg, |ctx| {
            let b = ctx.block_idx as usize;
            let (ri, ci) = (b / cols, b % cols);
            // Full inner product over the chunk's k-slab: k_len staged
            // tile multiplications; shared-memory tile reads are stride-1
            // (conflict-free by construction).
            ctx.charge_read::<f32>(2 * TILE_ELEMS * klen);
            ctx.charge_shared::<f32>(2 * TILE * TILE_ELEMS * klen, 1);
            ctx.charge_flops((2 * TILE * TILE_ELEMS * klen) as u64);
            ctx.charge_write::<f32>(TILE_ELEMS);
            let mut acc = [0.0f32; TILE_ELEMS];
            for k in 0..klen {
                let a = &chunk.a[ri * klen + k];
                let bt = &chunk.b[k * cols + ci];
                tile_multiply_add(a, bt, &mut acc);
            }
            (
                tile_key(chunk.row_start + ri as u32, chunk.col_start + ci as u32),
                acc,
            )
        })?;
        let mut pairs = KvSet::with_capacity(out_tiles);
        for (k, t) in launch.outputs {
            pairs.push(k, t);
        }
        Ok((pairs, res.end))
    }
}

/// Phase 2: sum partial tiles per key ("another Map in a separate
/// MapReduce", bypassing Sort and Reduce again).
#[derive(Clone, Copy, Debug)]
pub struct MmSumJob {
    n_tiles: u32,
}

impl MmSumJob {
    /// Job for matrices with `n_tiles` tiles per dimension.
    pub fn new(n_tiles: u32) -> Self {
        MmSumJob { n_tiles }
    }
}

impl GpmrJob for MmSumJob {
    type Chunk = SliceChunk<(u32, TileData)>;
    type Key = u32;
    type Value = TileData;

    fn pipeline(&self) -> PipelineConfig {
        binned_to_owner()
    }

    fn partition(&self, key: &u32, ranks: u32) -> u32 {
        owner_of(*key, self.n_tiles, ranks)
    }

    fn map(
        &self,
        gpu: &mut Gpu,
        at: SimTime,
        chunk: &Self::Chunk,
    ) -> SimGpuResult<(Tiles, SimTime)> {
        // Chunks contain whole key-groups (guaranteed by
        // `phase2_chunks`); find group boundaries, then one block per group.
        let items = &chunk.items;
        let mut groups: Vec<std::ops::Range<usize>> = Vec::new();
        let mut start = 0usize;
        for i in 1..=items.len() {
            if i == items.len() || items[i].0 != items[start].0 {
                groups.push(start..i);
                start = i;
            }
        }
        if groups.is_empty() {
            return Ok((KvSet::new(), at));
        }
        let cfg =
            LaunchConfig::grid(groups.len() as u32, 256).with_shared_bytes((TILE_ELEMS * 4) as u32);
        let (launch, res) = gpu.launch(at, &cfg, |ctx| {
            let g = &groups[ctx.block_idx as usize];
            ctx.charge_read::<f32>(TILE_ELEMS * g.len());
            ctx.charge_flops((TILE_ELEMS * (g.len() - 1)) as u64);
            ctx.charge_write::<f32>(TILE_ELEMS);
            let mut acc = [0.0f32; TILE_ELEMS];
            for (_, t) in &items[g.clone()] {
                for (a, v) in acc.iter_mut().zip(t) {
                    *a += v;
                }
            }
            (items[g.start].0, acc)
        })?;
        let mut pairs = KvSet::with_capacity(groups.len());
        for (k, t) in launch.outputs {
            pairs.push(k, t);
        }
        Ok((pairs, res.end))
    }
}

/// Either task's chunk, so that one job type serves both rounds. A part
/// serializes to its inner chunk's length, what a steal or a requeue is
/// charged. `Sum` sets the top bit of the leading `u32`, which neither
/// inner chunk uses (tile counts are 16-bit, phase-2 chunk ids stay below
/// 2^31). Nothing decodes the tag; it stays because these bytes feed the
/// journal's `JobStart` fingerprint, which the pinned golden journals fix.
#[derive(Clone, Debug)]
enum MmPart {
    Product(MmChunk),
    Sum(SliceChunk<(u32, TileData)>),
}

const SUM_TAG: u32 = 1 << 31;

impl MmPart {
    fn inner(&self) -> &dyn Chunk {
        match self {
            MmPart::Product(c) => c,
            MmPart::Sum(c) => c,
        }
    }
}

impl Chunk for MmPart {
    fn item_count(&self) -> usize {
        self.inner().item_count()
    }

    fn size_bytes(&self) -> u64 {
        self.inner().size_bytes()
    }

    fn serialize(&self) -> Vec<u8> {
        let mut bytes = self.inner().serialize();
        if let MmPart::Sum(c) = self {
            debug_assert!(c.id < SUM_TAG, "phase-2 chunk ids stay below 2^31");
            bytes[..4].copy_from_slice(&(c.id | SUM_TAG).to_le_bytes());
        }
        bytes
    }
}

/// MM's two tasks as one job over [`MmPart`]s (the variant picks the
/// task's `map`) and its own two-round [`RoundJob`]: round 0 chains into
/// round 1 through [`phase2_chunks`] with no control state to broadcast,
/// and phase 2, regrouped across ranks, pays its uploads.
#[derive(Clone, Copy, Debug)]
struct MmJob {
    n_tiles: u32,
    /// Device memory the phase-2 chunks are sized for.
    capacity_bytes: u64,
    /// The largest chunk the engine admits under the run's tuning.
    max_chunk_bytes: u64,
}

impl GpmrJob for MmJob {
    type Chunk = MmPart;
    type Key = u32;
    type Value = TileData;

    fn pipeline(&self) -> PipelineConfig {
        binned_to_owner()
    }

    fn partition(&self, key: &u32, ranks: u32) -> u32 {
        owner_of(*key, self.n_tiles, ranks)
    }

    fn map(&self, gpu: &mut Gpu, at: SimTime, chunk: &MmPart) -> SimGpuResult<(Tiles, SimTime)> {
        match chunk {
            MmPart::Product(c) => MmMapJob::new(self.n_tiles).map(gpu, at, c),
            MmPart::Sum(c) => MmSumJob::new(self.n_tiles).map(gpu, at, c),
        }
    }
}

impl RoundJob for MmJob {
    type Job = Self;

    fn max_rounds(&self) -> u32 {
        2
    }

    fn job(&self, _round: u32) -> Self {
        *self
    }

    fn absorb(&mut self, round: u32, _outputs: &[Tiles]) -> RoundStep {
        match round {
            0 => RoundStep::chain(0),
            _ => RoundStep::done(),
        }
    }

    fn rechunk(&self, _round: u32, outputs: Vec<Tiles>) -> Vec<MmPart> {
        let chunks = phase2_chunks(&outputs, self.capacity_bytes, self.max_chunk_bytes);
        chunks.into_iter().map(MmPart::Sum).collect()
    }
}

/// Result of a full two-phase GPMR matrix multiplication.
#[derive(Debug)]
pub struct MmResult {
    /// The product matrix.
    pub c: Matrix,
    /// The drive's cross-round clock: both phases' makespans (nothing
    /// is broadcast between them).
    pub total_time: SimDuration,
    /// Phase-1 timing breakdown.
    pub phase1: JobTimings,
    /// Phase-2 timing breakdown.
    pub phase2: JobTimings,
}

/// Build the phase-1 chunks for `a * b`: one chunk per
/// (row-slab, column-slab, k-slab) cell.
pub fn mm_chunks(
    a: &Matrix,
    b: &Matrix,
    row_block: usize,
    col_block: usize,
    k_block: usize,
) -> Vec<MmChunk> {
    assert_eq!(a.n, b.n, "matrix orders must match");
    let nt = a.n_tiles();
    let row_block = row_block.clamp(1, nt);
    let col_block = col_block.clamp(1, nt);
    let k_block = k_block.clamp(1, nt);
    let mut chunks = Vec::new();
    for row_start in (0..nt).step_by(row_block) {
        let rows = row_block.min(nt - row_start);
        for col_start in (0..nt).step_by(col_block) {
            let cols = col_block.min(nt - col_start);
            for k_start in (0..nt).step_by(k_block) {
                let klen = k_block.min(nt - k_start);
                let mut at = Vec::with_capacity(rows * klen);
                for r in 0..rows {
                    for k in 0..klen {
                        at.push(a.tile(row_start + r, k_start + k));
                    }
                }
                let mut bt = Vec::with_capacity(klen * cols);
                for k in 0..klen {
                    for c in 0..cols {
                        bt.push(b.tile(k_start + k, col_start + c));
                    }
                }
                chunks.push(MmChunk {
                    n_tiles: nt as u32,
                    row_start: row_start as u32,
                    row_len: rows as u32,
                    col_start: col_start as u32,
                    col_len: cols as u32,
                    k_start: k_start as u32,
                    k_len: klen as u32,
                    a: at,
                    b: bt,
                });
            }
        }
    }
    chunks
}

/// Run the full two-phase multiplication on a cluster: the two tasks as
/// one [`run_rounds`] drive under `opts`' tuning, telemetry and journal;
/// the round driver decides for each round whether its inputs are
/// already on the devices. The block
/// sizes control phase-1 chunk granularity in tiles ([`run_mm_auto`]
/// picks them). Order-0 matrices are rejected with
/// [`EngineError::InvalidPipeline`].
pub fn run_mm(
    cluster: &mut Cluster,
    a: &Matrix,
    b: &Matrix,
    row_block: usize,
    col_block: usize,
    k_block: usize,
    opts: RunOpts<'_>,
) -> EngineResult<MmResult> {
    if a.n == 0 {
        return Err(EngineError::InvalidPipeline(
            "matrix order must be positive".into(),
        ));
    }
    let mut job = MmJob {
        n_tiles: a.n_tiles() as u32,
        capacity_bytes: cluster.gpu(0).mem.capacity(),
        max_chunk_bytes: max_resident_chunk_bytes(cluster, &opts.tuning),
    };
    let chunks = mm_chunks(a, b, row_block, col_block, k_block);
    let parts = chunks.into_iter().map(MmPart::Product).collect();
    let (tuning, tel) = (&opts.tuning, &opts.tel);
    let drive = run_rounds(cluster, &mut job, parts, tuning, tel, opts.journal)?;

    let mut c = Matrix::zeros(a.n);
    for out in &drive.outputs {
        for (key, tile) in out.iter() {
            let (ti, tj) = tile_coords(*key);
            c.set_tile(ti as usize, tj as usize, tile);
        }
    }
    let [phase1, phase2] = drive.per_round.try_into().expect("MM runs both rounds");
    Ok(MmResult {
        c,
        total_time: drive.total_time,
        phase1: phase1.timings,
        phase2: phase2.timings,
    })
}

/// Pick chunk granularity for `n_tiles` on `gpus` GPUs with
/// `capacity_bytes` of device memory. A chunk's PCI-e arithmetic
/// intensity is `8 * side * kb / (2 * kb + side)` flops per byte, so the
/// row/column blocks are kept large (up to 256 tiles — well past the
/// GT200's compute/PCI-e balance point of ~194 flops per byte); the
/// k-block mainly tunes chunk *count* toward the ~4 chunks per GPU the
/// dynamic scheduler wants.
pub fn mm_auto_blocks(n_tiles: usize, gpus: u32, capacity_bytes: u64) -> (usize, usize, usize) {
    let tile_bytes = (TILE_ELEMS * 4) as u64;
    let mut side = 256.min(n_tiles).max(1);
    let mut kb = 64.min(n_tiles).max(1);
    let fits = |side: usize, kb: usize| {
        let resident = (2 * side * kb + side * side) as u64 * tile_bytes;
        2 * resident <= capacity_bytes
    };
    while !fits(side, kb) {
        if kb > 8 {
            kb /= 2;
        } else if side > 1 {
            side = side * 3 / 4;
        } else {
            break;
        }
    }
    let target = (4 * gpus as usize).max(8);
    // Compared only against `target`: past `usize` the count saturates.
    let chunks = |side: usize, kb: usize| {
        let (blocks, slabs) = (n_tiles.div_ceil(side), n_tiles.div_ceil(kb));
        blocks.saturating_mul(blocks).saturating_mul(slabs)
    };
    while chunks(side, kb) < target && kb > 1 {
        kb /= 2;
    }
    while chunks(side, kb) < target && side > 1 {
        side = (side * 2) / 3;
    }
    (side.max(1), side.max(1), kb.max(1))
}

/// [`run_mm`] with granularity adapted to the cluster size and device
/// memory.
pub fn run_mm_auto(cluster: &mut Cluster, a: &Matrix, b: &Matrix) -> EngineResult<MmResult> {
    let capacity = cluster.gpu(0).mem.capacity();
    let (rb, cb, kb) = mm_auto_blocks(a.n_tiles(), cluster.size(), capacity);
    run_mm(cluster, a, b, rb, cb, kb, RunOpts::default())
}

/// The hand-over between MM's two GPMR tasks: phase 1's per-rank outputs
/// regrouped by tile key into phase-2 chunks for a device with
/// `capacity_bytes` of memory whose engine admits chunks of at most
/// `max_chunk_bytes` ([`max_resident_chunk_bytes`]). Inside a key the
/// partials keep rank, then position, order — the order phase 2 adds
/// them in. Only 12-byte handles are sorted; each 1 KiB tile is copied
/// once, from where phase 1 left it into its chunk.
pub fn phase2_chunks(
    outputs: &[KvSet<u32, TileData>],
    capacity_bytes: u64,
    max_chunk_bytes: u64,
) -> Vec<SliceChunk<(u32, TileData)>> {
    // A quarter of device memory (double buffer + output headroom).
    let pair_bytes = <(u32, TileData)>::SIZE;
    let max_items = (capacity_bytes as usize / 4 / pair_bytes).clamp(16, 2048);
    let limit = (max_chunk_bytes / pair_bytes as u64) as usize;
    group_chunks(outputs, max_items, limit)
}

/// Pack the partial tiles of `outputs`, ordered by key, into chunks of
/// `max_items` grown to the end of their last key-group, so no group is
/// split across chunks. A chunk that growth would take past `limit`
/// items closes at its last group boundary instead; a single group
/// larger than `limit` stays whole (the engine refuses it).
fn group_chunks(
    outputs: &[KvSet<u32, TileData>],
    max_items: usize,
    limit: usize,
) -> Vec<SliceChunk<(u32, TileData)>> {
    // (key, rank, position) of every partial; the sort is stable, so
    // equal keys stay in rank-then-position order.
    let mut handles: Vec<(u32, u32, u32)> =
        Vec::with_capacity(outputs.iter().map(KvSet::len).sum());
    for (rank, out) in outputs.iter().enumerate() {
        assert!(out.len() <= u32::MAX as usize, "positions are 32-bit");
        let keys = out.keys.iter().enumerate();
        handles.extend(keys.map(|(pos, &key)| (key, rank as u32, pos as u32)));
    }
    handles.sort_by_key(|&(key, ..)| key);

    let mut chunks = Vec::new();
    let splits_group = |at: usize| handles[at].0 == handles[at - 1].0;
    let mut start = 0usize;
    while start < handles.len() {
        let mut end = (start + max_items).min(handles.len());
        // Extend to the end of the current key-group.
        while end < handles.len() && splits_group(end) {
            end += 1;
        }
        if end - start > limit {
            let boundary = (start + 1..=start + limit)
                .rev()
                .find(|&at| !splits_group(at));
            end = boundary.unwrap_or(end);
        }
        let items = handles[start..end]
            .iter()
            .map(|&(key, rank, pos)| (key, outputs[rank as usize].vals[pos as usize]))
            .collect();
        chunks.push(SliceChunk::new(chunks.len() as u32, start as u64, items));
        start = end;
    }
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpmr_sim_gpu::GpuSpec;

    #[test]
    fn order_zero_is_a_typed_error_not_a_panic() {
        let mut cluster = Cluster::accelerator(2, GpuSpec::gt200());
        let empty = Matrix::zeros(0);
        for result in [
            run_mm(&mut cluster, &empty, &empty, 1, 1, 1, RunOpts::default()),
            run_mm_auto(&mut cluster, &empty, &empty),
        ] {
            assert!(matches!(result, Err(EngineError::InvalidPipeline(_))));
        }
    }

    #[test]
    fn the_largest_orders_size_blocks_without_overflow() {
        // `gpmr paper fig2 --scale 2^62` sizes MM for 2^33 tiles a side:
        // the chunk count (2^25)^2 * 2^27 overflowed `usize`, a panic in
        // debug and a silent wrap in release.
        let capacity = GpuSpec::gt200().mem_capacity;
        assert_eq!(mm_auto_blocks(1 << 33, 4, capacity), (256, 256, 64));
    }

    fn assert_matrix_close(a: &Matrix, b: &Matrix) {
        assert_eq!(a.n, b.n);
        for (i, (x, y)) in a.data.iter().zip(&b.data).enumerate() {
            assert!(
                (x - y).abs() <= 1e-4 * (1.0 + x.abs().max(y.abs())),
                "element {i}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn tile_round_trip() {
        let m = Matrix::random(64, 1);
        let t = m.tile(2, 3);
        let mut m2 = Matrix::zeros(64);
        m2.set_tile(2, 3, &t);
        assert_eq!(m2.tile(2, 3), t);
    }

    #[test]
    fn reference_matches_naive_multiply() {
        let a = Matrix::random(32, 2);
        let b = Matrix::random(32, 3);
        let c = a.multiply_reference(&b);
        // Spot-check a few elements against the naive triple loop.
        for &(i, j) in &[(0usize, 0usize), (5, 17), (31, 31)] {
            let mut expect = 0.0f64;
            for k in 0..32 {
                expect += f64::from(a.data[i * 32 + k]) * f64::from(b.data[k * 32 + j]);
            }
            let got = f64::from(c.data[i * 32 + j]);
            assert!((got - expect).abs() < 1e-3, "({i},{j}): {got} vs {expect}");
        }
    }

    #[test]
    fn gpmr_mm_matches_reference_single_gpu() {
        let a = Matrix::random(128, 4);
        let b = Matrix::random(128, 5);
        let mut cluster = Cluster::accelerator(1, GpuSpec::gt200());
        let result = run_mm(&mut cluster, &a, &b, 4, 4, 4, RunOpts::default()).unwrap();
        assert_matrix_close(&result.c, &a.multiply_reference(&b));
        assert!(result.total_time.as_secs() > 0.0);
    }

    #[test]
    fn gpmr_mm_matches_reference_multi_gpu() {
        let a = Matrix::random(256, 6);
        let b = Matrix::random(256, 7);
        let mut cluster = Cluster::accelerator(8, GpuSpec::gt200());
        let result = run_mm(&mut cluster, &a, &b, 4, 8, 8, RunOpts::default()).unwrap();
        assert_matrix_close(&result.c, &a.multiply_reference(&b));
    }

    #[test]
    fn single_phase_when_k_fits() {
        // Full-k chunks mean phase 2 sees one partial per key.
        let a = Matrix::random(64, 8);
        let b = Matrix::random(64, 9);
        let mut cluster = Cluster::accelerator(2, GpuSpec::gt200());
        let result = run_mm(&mut cluster, &a, &b, 2, 4, 4, RunOpts::default()).unwrap();
        assert_matrix_close(&result.c, &a.multiply_reference(&b));
    }

    #[test]
    fn a_part_serializes_to_its_inner_chunks_bytes() {
        let a = Matrix::random(64, 10);
        let b = Matrix::random(64, 11);
        let chunks = mm_chunks(&a, &b, 2, 2, 2);
        assert!(chunks[0].item_count() > 0);
        // A part of either round costs a migration what its inner chunk
        // does; a sum part differs only in the tag bit of its leading id.
        let product = chunks[1].serialize();
        assert_eq!(MmPart::Product(chunks[1].clone()).serialize(), product);
        let sum = SliceChunk::new(7, 0, vec![(tile_key(1, 2), a.tile(0, 0))]);
        let mut tagged = sum.serialize();
        tagged[3] |= 0x80;
        assert_eq!(MmPart::Sum(sum).serialize(), tagged);
    }

    #[test]
    fn key_packing_round_trips() {
        assert_eq!(tile_coords(tile_key(5, 9)), (5, 9));
        assert_eq!(tile_coords(tile_key(0, 0)), (0, 0));
        assert_eq!(tile_coords(tile_key(65535, 65535)), (65535, 65535));
    }

    #[test]
    fn group_chunks_never_split_groups() {
        let t = [0.0f32; TILE_ELEMS];
        let pairs: KvSet<u32, TileData> = (0..100).map(|i| (i / 10, t)).collect();
        let chunks = group_chunks(&[pairs], 15, usize::MAX);
        for c in &chunks {
            // Each group (10 items) stays whole.
            let first = c.items.first().unwrap().0;
            let last = c.items.last().unwrap().0;
            assert!(c.items.len() >= 10 || first == last);
        }
        let total: usize = chunks.iter().map(|c| c.items.len()).sum();
        assert_eq!(total, 100);
    }

    /// Phase 1's outputs as the hand-over reads them: `keys` tile keys
    /// with `partials` partial tiles each, spread over `ranks`.
    fn partial_tiles(keys: u32, partials: u32, ranks: u32) -> Vec<KvSet<u32, TileData>> {
        let mut outputs = vec![KvSet::new(); ranks as usize];
        for key in 0..keys {
            for p in 0..partials {
                outputs[((key + p) % ranks) as usize].push(key, [p as f32; TILE_ELEMS]);
            }
        }
        outputs
    }

    #[test]
    fn phase2_chunks_fit_the_staging_bound_at_every_capacity_and_order() {
        // `gpmr paper fig2 --scale 128` ran MM on 4 MiB devices, where a
        // quarter of memory is 1 020 partial tiles: single-tile k-slabs
        // of order 1024 give 64 partials a key, the chunk grew to the end
        // of its group, 1 024 tiles, and the engine refused the job.
        const PAIR: u64 = <(u32, TileData)>::SIZE as u64;
        for capacity in [1u64 << 20, 4 << 20, 8 << 20, 1 << 30] {
            for order in [48u32, 240, 1024, 2048, 4096] {
                // Single-tile k-slabs: every output tile has one partial
                // per tile of the order, the largest groups MM makes.
                let partials = order / TILE as u32;
                let per_chunk = (capacity / 4 / PAIR).clamp(16, 2048) as u32;
                let keys = 3 * per_chunk / partials + 2;
                let outputs = partial_tiles(keys, partials, 3);
                let total = (keys * partials) as usize;
                let before = group_chunks(&outputs, per_chunk as usize, usize::MAX);
                for slots in [1u64, 4, 5] {
                    let bound = capacity / slots;
                    let at = format!("{capacity} B, order {order}, {slots} slots");
                    let chunks = phase2_chunks(&outputs, capacity, bound);
                    let admitted = |c: &SliceChunk<(u32, TileData)>| c.size_bytes() <= bound;
                    if before.iter().all(admitted) {
                        assert_eq!(chunks, before, "{at}: an admitted chunking changed");
                    }
                    let group_fits = u64::from(partials) * PAIR <= bound;
                    for c in &chunks {
                        let (first, last) = (c.items[0].0, c.items.last().unwrap().0);
                        assert!(admitted(c) || (!group_fits && first == last), "{at}");
                    }
                    for pair in chunks.windows(2) {
                        let (last, first) = (pair[0].items.last(), pair[1].items.first());
                        assert!(
                            last.unwrap().0 < first.unwrap().0,
                            "{at}: a group was split"
                        );
                    }
                    assert_eq!(chunks.iter().map(|c| c.items.len()).sum::<usize>(), total);
                }
            }
        }
    }

    /// The hand-over as it was before handles: concatenate every rank's
    /// pairs, stable-sort the 1 KiB elements by key, copy each chunk out.
    /// Kept as the oracle for [`group_chunks`].
    fn concat_sort_group(
        outputs: &[KvSet<u32, TileData>],
        max_items: usize,
    ) -> Vec<SliceChunk<(u32, TileData)>> {
        let mut sorted: Vec<(u32, TileData)> = Vec::new();
        for out in outputs {
            sorted.extend(out.iter().map(|(k, v)| (*k, *v)));
        }
        sorted.sort_by_key(|(k, _)| *k);
        let mut chunks = Vec::new();
        let mut start = 0usize;
        let mut id = 0u32;
        while start < sorted.len() {
            let mut end = (start + max_items).min(sorted.len());
            while end < sorted.len() && sorted[end].0 == sorted[end - 1].0 {
                end += 1;
            }
            chunks.push(SliceChunk::new(
                id,
                start as u64,
                sorted[start..end].to_vec(),
            ));
            id += 1;
            start = end;
        }
        chunks
    }

    fn phase1_outputs(order: usize, ranks: u32, blocks: usize) -> Vec<KvSet<u32, TileData>> {
        let a = Matrix::random(order, 20);
        let b = Matrix::random(order, 21);
        let mut cluster = Cluster::accelerator(ranks, GpuSpec::gt200());
        let chunks = mm_chunks(&a, &b, blocks, blocks, blocks);
        let job = MmMapJob::new(a.n_tiles() as u32);
        gpmr_core::run_job(&mut cluster, &job, chunks)
            .unwrap()
            .outputs
    }

    #[test]
    fn regrouping_handles_builds_the_chunks_the_tile_sort_built() {
        // Order 96 in 2-tile blocks: 36 keys with 3 partials each, spread
        // over the ranks. 3 divides 15 and 108 but not 16, 40 or 100, so
        // those limits fall inside a key-group.
        for ranks in [1, 3, 8] {
            let outputs = phase1_outputs(96, ranks, 2);
            assert_eq!(outputs.iter().map(KvSet::len).sum::<usize>(), 108);
            for max_items in [1, 15, 16, 40, 100, 108, 2048] {
                let chunks = group_chunks(&outputs, max_items, usize::MAX);
                assert_eq!(
                    chunks,
                    concat_sort_group(&outputs, max_items),
                    "{ranks} ranks, {max_items} items"
                );
                for pair in chunks.windows(2) {
                    let (last, first) = (pair[0].items.last(), pair[1].items.first());
                    assert!(last.unwrap().0 < first.unwrap().0, "a key-group was split");
                }
            }
            assert!(group_chunks(&outputs, 16, usize::MAX)[0].items.len() > 16);
        }
        assert!(group_chunks(&[], 16, 16).is_empty());
        assert!(group_chunks(&[KvSet::new(), KvSet::new()], 16, 16).is_empty());
    }

    fn digest(m: &Matrix) -> u64 {
        gpmr_core::journal::hash_pairs::<f32, f32>(&m.data, &[])
    }

    #[test]
    fn products_are_bit_identical_to_the_recorded_ones() {
        // Recorded with the hand-over that concatenated and sorted whole
        // tiles. Phase 2 adds a key's partials in rank-then-position
        // order, and `f32` addition does not reorder: any other order
        // changes these bits long before it shows at 1e-4.
        let a = Matrix::random(256, 30);
        let b = Matrix::random(256, 31);
        // 4-tile k-slabs of 16: phase 2 adds four partials per key.
        // Every partial of a key lands on the key's owner in chunk order,
        // so fixed blocks give one product whatever the rank count.
        for ranks in [1, 8, 64] {
            let mut cluster = Cluster::accelerator(ranks, GpuSpec::gt200());
            let result = run_mm(&mut cluster, &a, &b, 8, 8, 4, RunOpts::default()).unwrap();
            assert_eq!(digest(&result.c), 0x7016_dc28_3e0e_dd2f, "{ranks} ranks");
        }
        // `run_mm_auto` cuts slabs to the rank count.
        for (ranks, expect) in [
            (1, 0x203f_4416_4a73_0918u64),
            (8, 0x91f1_a059_adde_ceaf),
            (64, 0x91f1_a059_adde_ceaf),
        ] {
            let mut cluster = Cluster::accelerator(ranks, GpuSpec::gt200());
            let result = run_mm_auto(&mut cluster, &a, &b).unwrap();
            assert_eq!(digest(&result.c), expect, "run_mm_auto on {ranks} ranks");
        }

        // Order 240 in single-tile slabs: 225 keys with 15 partials each,
        // 3 375 in all. A chunk holds 2 048 and 15 does not divide that,
        // so the limit falls inside a key-group and the chunk must grow.
        let a = Matrix::random(240, 32);
        let b = Matrix::random(240, 33);
        let mut cluster = Cluster::accelerator(8, GpuSpec::gt200());
        let capacity = cluster.gpu(0).mem.capacity();
        let bound = max_resident_chunk_bytes(&mut cluster, &Default::default());
        let chunks2 = phase2_chunks(&phase1_outputs(240, 8, 1), capacity, bound);
        assert_eq!(chunks2[0].items.len(), 2055);
        let result = run_mm(&mut cluster, &a, &b, 1, 1, 1, RunOpts::default()).unwrap();
        assert_eq!(digest(&result.c), 0x40f9_f313_024a_b4b9, "order 240");
    }

    #[test]
    #[should_panic(expected = "multiple of 16")]
    fn non_tile_order_rejected() {
        let _ = Matrix::zeros(100);
    }
}
