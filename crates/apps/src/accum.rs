//! The f64 Accumulation kernels KMC and LR share (paper §5.3.4–5.3.5):
//! a zeroed accumulator, the per-block pool flush folded in block order,
//! and a segment-sum reduce. Each app passes its own launch shapes.

use gpmr_core::KvSet;
use gpmr_primitives::Segments;
use gpmr_sim_gpu::{Gpu, KernelCost, LaunchConfig, SimGpuResult, SimTime};

/// A zeroed accumulator of `keys` sums, keyed `0..keys`, written by one
/// `cfg` launch.
pub(crate) fn zeroed(
    gpu: &mut Gpu,
    at: SimTime,
    keys: usize,
    cfg: &LaunchConfig,
) -> SimGpuResult<(KvSet<u32, f64>, SimTime)> {
    let (_, res) = gpu.launch(at, cfg, |ctx| {
        ctx.charge_write::<f32>(keys);
    })?;
    let state: KvSet<u32, f64> = (0..keys as u32).map(|k| (k, 0.0)).collect();
    Ok((state, res.end))
}

/// Fold the map kernel's per-block `pools` of `keys` sums into `state`,
/// block by block, and charge the flush from `at`, the map kernel's end.
/// Atomic-free accumulation (GT200): each block's pool goes to global
/// memory and a second kernel reduces the pools. With FP atomics (Fermi)
/// the pools are skipped and the atomics are charged instead. Returns the
/// flush's end.
pub(crate) fn flush<P: AsRef<[f64]>>(
    gpu: &mut Gpu,
    at: SimTime,
    pools: Vec<P>,
    keys: usize,
    state: &mut KvSet<u32, f64>,
) -> SimTime {
    let blocks = pools.len() as u64;
    let cost = if gpu.spec.has_fp_atomics {
        KernelCost {
            atomic_ops: blocks * keys as u64,
            ..KernelCost::ZERO
        }
    } else {
        KernelCost {
            flops: blocks * keys as u64,
            bytes_coalesced: 8 * blocks * keys as u64,
            ..KernelCost::ZERO
        }
    };
    let end = gpu.charge_compute(at, &cost, 1.0).end;
    for pool in pools {
        for (i, s) in pool.as_ref().iter().enumerate() {
            state.vals[i] += s;
        }
    }
    end
}

/// Sum each segment's values, one thread per key over `cfg`'s blocks.
pub(crate) fn segment_sums(
    gpu: &mut Gpu,
    at: SimTime,
    segs: &Segments<u32>,
    vals: &[f64],
    cfg: &LaunchConfig,
) -> SimGpuResult<(KvSet<u32, f64>, SimTime)> {
    if segs.is_empty() {
        return Ok((KvSet::new(), at));
    }
    let (launch, res) = gpu.launch(at, cfg, |ctx| {
        let range = ctx.item_range(segs.len());
        let mut out: KvSet<u32, f64> = KvSet::with_capacity(range.len());
        for s in range {
            let r = segs.range(s);
            ctx.charge_read_uncoalesced::<f64>(r.len());
            ctx.charge_flops(r.len() as u64);
            out.push(segs.keys[s], vals[r].iter().sum());
        }
        ctx.charge_write::<f64>(out.len());
        out
    })?;
    let mut out = KvSet::new();
    for p in launch.outputs {
        out.append(p);
    }
    Ok((out, res.end))
}
