//! Mars-style single-GPU MapReduce (He et al., PACT 2008) — the prior
//! GPU-MapReduce baseline of the paper's Table 3.
//!
//! Mars's structural handicaps relative to GPMR, all reproduced:
//!
//! * **single GPU, in-core only** — the whole input *and* the
//!   intermediate pairs must fit in device memory or the job fails;
//! * **library-scheduled threads** — strictly one thread per map item, no
//!   block-level cooperation or user-controlled scheduling;
//! * **two-pass emission** — because it cannot size outputs in advance,
//!   Mars first runs a count kernel, prefix-sums the counts, then re-runs
//!   the map to emit into exact slots (every map does its work twice);
//! * **bitonic sort** — O(n log^2 n) compare-exchanges instead of radix.

use gpmr_core::{Key, Value};
use gpmr_primitives::{bitonic_sort_pairs_by, exclusive_scan, extract_segments, RadixKey};
use gpmr_sim_gpu::{BlockCtx, Gpu, LaunchConfig, SimDuration, SimGpuError, SimTime};

/// Errors raised by the Mars executor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MarsError {
    /// Input plus intermediate data exceed device memory (Mars has no
    /// out-of-core path).
    InCoreViolation {
        /// Bytes the job requires resident at once.
        required: u64,
        /// Device capacity.
        capacity: u64,
    },
    /// Underlying device error.
    Gpu(SimGpuError),
}

impl std::fmt::Display for MarsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MarsError::InCoreViolation { required, capacity } => write!(
                f,
                "Mars requires {required} bytes in-core but the device has {capacity}"
            ),
            MarsError::Gpu(e) => write!(f, "device error: {e}"),
        }
    }
}

impl std::error::Error for MarsError {}

impl From<SimGpuError> for MarsError {
    fn from(e: SimGpuError) -> Self {
        MarsError::Gpu(e)
    }
}

/// A Mars application: strictly one thread per item.
pub trait MarsApp: Send + Sync {
    /// Input element type.
    type Item: Copy + Send + Sync + 'static;
    /// Intermediate/output key.
    type Key: Key + RadixKey;
    /// Intermediate/output value.
    type Value: Value;

    /// Count pass: pairs this item will emit (charge reads on `ctx`).
    fn count(&self, ctx: &mut BlockCtx, items: &[Self::Item], idx: usize) -> usize;

    /// Emit pass: produce the pairs (charge the work again — Mars re-does
    /// the map — plus the scattered writes).
    fn emit(
        &self,
        ctx: &mut BlockCtx,
        items: &[Self::Item],
        idx: usize,
        out: &mut Vec<(Self::Key, Self::Value)>,
    );

    /// Reduce one key's values (one thread per key).
    fn reduce(&self, ctx: &mut BlockCtx, key: Self::Key, vals: &[Self::Value]) -> Self::Value;
}

/// Result of a Mars run.
#[derive(Clone, Debug)]
pub struct MarsResult<K, V> {
    /// Final pairs, sorted by key.
    pub pairs: Vec<(K, V)>,
    /// Total modelled runtime.
    pub time: SimDuration,
}

/// One thread per item, 256-thread blocks.
fn mars_cfg(items: usize) -> LaunchConfig {
    LaunchConfig::for_items(items, 256, 256)
}

/// Run a Mars job over `items` on a single GPU.
pub fn run_mars<A: MarsApp>(
    gpu: &mut Gpu,
    app: &A,
    items: &[A::Item],
) -> Result<MarsResult<A::Key, A::Value>, MarsError> {
    gpu.reset_clock();
    let t0 = SimTime::ZERO;
    if items.is_empty() {
        return Ok(MarsResult {
            pairs: Vec::new(),
            time: SimDuration::ZERO,
        });
    }

    // Upload the entire input (no chunking in Mars).
    let item_bytes = std::mem::size_of_val(items) as u64;
    let up = gpu.h2d(t0, item_bytes);
    let cfg = mars_cfg(items.len());

    // Pass 1: count emissions per item.
    let (counts_launch, r1) = gpu.launch(up.end, &cfg, |ctx| {
        let range = ctx.item_range(items.len());
        let mut counts = Vec::with_capacity(range.len());
        for i in range {
            counts.push(app.count(ctx, items, i) as u32);
        }
        counts
    })?;
    let counts: Vec<u32> = counts_launch.outputs.into_iter().flatten().collect();

    // Prefix sum of counts to get emit offsets.
    let (_, total_pairs, t_scan) = exclusive_scan(gpu, r1.end, &counts)?;
    let total_pairs = total_pairs as u64;

    // Mars's in-core requirement: input + pairs + the sort's double
    // buffer must be simultaneously resident.
    let pair_bytes = (std::mem::size_of::<A::Key>() + std::mem::size_of::<A::Value>()) as u64;
    let required = item_bytes + 2 * total_pairs * pair_bytes;
    let capacity = gpu.mem.capacity();
    if required > capacity {
        return Err(MarsError::InCoreViolation { required, capacity });
    }

    // Pass 2: emit into pre-sized slots.
    let (emits, r2) = gpu.launch(t_scan, &cfg, |ctx| {
        let range = ctx.item_range(items.len());
        let mut out = Vec::new();
        for i in range {
            app.emit(ctx, items, i, &mut out);
        }
        // Mars writes through its key/value directory: scattered.
        ctx.charge_write_uncoalesced::<u8>(out.len() * pair_bytes as usize);
        out
    })?;
    let mut keys = Vec::with_capacity(total_pairs as usize);
    let mut vals = Vec::with_capacity(total_pairs as usize);
    for block in emits.outputs {
        for (k, v) in block {
            keys.push(k);
            vals.push(v);
        }
    }

    // Bitonic sort (Mars's sorter).
    let (skeys, svals, t_sorted) =
        bitonic_sort_pairs_by(gpu, r2.end, &keys, &vals, |a, b| a.radix().cmp(&b.radix()))?;
    let (segs, t_segs) = extract_segments(gpu, t_sorted, &skeys)?;

    // Reduce: one thread per key.
    let rcfg = mars_cfg(segs.len().max(1));
    let (reduced, r3) = gpu.launch(t_segs, &rcfg, |ctx| {
        let range = ctx.item_range(segs.len());
        let mut out = Vec::with_capacity(range.len());
        for s in range {
            let r = segs.range(s);
            out.push((segs.keys[s], app.reduce(ctx, segs.keys[s], &svals[r])));
        }
        out
    })?;
    let mut pairs = Vec::with_capacity(segs.len());
    for block in reduced.outputs {
        pairs.extend(block);
    }
    let out_bytes = pairs.len() as u64 * pair_bytes;
    let down = gpu.d2h(r3.end, out_bytes);

    Ok(MarsResult {
        pairs,
        time: down.end.since(t0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpmr_sim_gpu::GpuSpec;

    struct CountApp;
    impl MarsApp for CountApp {
        type Item = u32;
        type Key = u32;
        type Value = u32;
        fn count(&self, ctx: &mut BlockCtx, _items: &[u32], _idx: usize) -> usize {
            ctx.charge_read::<u32>(1);
            1
        }
        fn emit(&self, ctx: &mut BlockCtx, items: &[u32], idx: usize, out: &mut Vec<(u32, u32)>) {
            ctx.charge_read::<u32>(1);
            out.push((items[idx], 1));
        }
        fn reduce(&self, ctx: &mut BlockCtx, _key: u32, vals: &[u32]) -> u32 {
            ctx.charge_read_uncoalesced::<u32>(vals.len());
            vals.iter().sum()
        }
    }

    #[test]
    fn mars_counts_correctly() {
        let mut gpu = Gpu::new(GpuSpec::gt200());
        let items: Vec<u32> = (0..20_000).map(|i| i % 50).collect();
        let result = run_mars(&mut gpu, &CountApp, &items).unwrap();
        assert_eq!(result.pairs.len(), 50);
        for &(k, v) in &result.pairs {
            assert_eq!(v, 400, "key {k}");
        }
        assert!(result.pairs.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(result.time.as_secs() > 0.0);
    }

    #[test]
    fn mars_rejects_out_of_core_jobs() {
        let mut gpu = Gpu::new(GpuSpec::gt200().with_mem_capacity(64 * 1024));
        let items: Vec<u32> = (0..10_000).collect();
        let err = run_mars(&mut gpu, &CountApp, &items).unwrap_err();
        assert!(matches!(err, MarsError::InCoreViolation { .. }));
        let msg = err.to_string();
        assert!(msg.contains("in-core"));
    }

    #[test]
    fn mars_empty_input() {
        let mut gpu = Gpu::new(GpuSpec::gt200());
        let result = run_mars(&mut gpu, &CountApp, &[]).unwrap();
        assert!(result.pairs.is_empty());
        assert_eq!(result.time, SimDuration::ZERO);
    }

    #[test]
    fn mars_is_deterministic() {
        let mut gpu = Gpu::new(GpuSpec::gt200());
        let items: Vec<u32> = (0..5000).map(|i| i * 31 % 97).collect();
        let a = run_mars(&mut gpu, &CountApp, &items).unwrap();
        let b = run_mars(&mut gpu, &CountApp, &items).unwrap();
        assert_eq!(a.pairs, b.pairs);
        assert_eq!(a.time, b.time);
    }
}
