//! Parallel prefix sums (scan), after Harris/Sengupta/Owens — the CUDPP
//! scan GPMR builds on.
//!
//! The device-wide scan is the classic three-phase algorithm: per-block
//! partial sums, a scan of the partials, and a per-block scan seeded with
//! the block offset. All phases run as kernels on the simulated GPU so
//! their cost lands on the compute timeline.
//!
//! Primitives operate on device-*resident* data passed as slices; buffer
//! capacity accounting belongs to the caller that allocated the data.

use gpmr_sim_gpu::{Gpu, KernelCost, LaunchConfig, SimGpuResult, SimTime};

use crate::elem::AddElem;

/// Items processed by one scan block (256 threads, 8 items each).
pub const SCAN_ITEMS_PER_BLOCK: usize = 2048;

fn scan_cfg(items: usize) -> LaunchConfig {
    LaunchConfig::for_items(items, SCAN_ITEMS_PER_BLOCK, 256).with_shared_bytes(
        (SCAN_ITEMS_PER_BLOCK / 8 * std::mem::size_of::<u64>()) as u32, // 2 kB tree scratch
    )
}

/// Exclusive scan: `out[i] = sum(input[..i])`. Returns the output, the
/// grand total, and the simulated completion time.
///
/// ```
/// use gpmr_primitives::exclusive_scan;
/// use gpmr_sim_gpu::{Gpu, GpuSpec, SimTime};
///
/// let mut gpu = Gpu::new(GpuSpec::gt200());
/// let (out, total, _) =
///     exclusive_scan(&mut gpu, SimTime::ZERO, &[3u32, 1, 4, 1]).unwrap();
/// assert_eq!(out, vec![0, 3, 4, 8]);
/// assert_eq!(total, 9);
/// ```
pub fn exclusive_scan<T: AddElem>(
    gpu: &mut Gpu,
    at: SimTime,
    input: &[T],
) -> SimGpuResult<(Vec<T>, T, SimTime)> {
    if input.is_empty() {
        return Ok((Vec::new(), T::ZERO, at));
    }
    let cfg = scan_cfg(input.len());

    // Phase 1: per-block partial sums.
    let (partials, r1) = gpu.launch(at, &cfg, |ctx| {
        let range = ctx.item_range(input.len());
        ctx.charge_read::<T>(range.len());
        ctx.charge_flops(range.len() as u64);
        let mut acc = T::ZERO;
        for &v in &input[range] {
            acc = T::add(acc, v);
        }
        acc
    })?;

    // Phase 2: scan of block partials. Small; modelled as one kernel.
    let n_part = partials.outputs.len();
    let scan_cost = KernelCost {
        flops: n_part as u64,
        bytes_coalesced: (2 * n_part * std::mem::size_of::<T>()) as u64,
        ..KernelCost::ZERO
    };
    let r2 = gpu.charge_compute(r1.end, &scan_cost, 1.0);
    let mut offsets = Vec::with_capacity(n_part);
    let mut running = T::ZERO;
    for &p in &partials.outputs {
        offsets.push(running);
        running = T::add(running, p);
    }
    let total = running;

    // Phase 3: per-block exclusive scan seeded with the block offset.
    let (chunks, r3) = gpu.launch(r2.end, &cfg, |ctx| {
        let range = ctx.item_range(input.len());
        ctx.charge_read::<T>(range.len());
        ctx.charge_write::<T>(range.len());
        ctx.charge_flops(range.len() as u64);
        let mut acc = offsets[ctx.block_idx as usize];
        let mut out = Vec::with_capacity(range.len());
        for &v in &input[range] {
            out.push(acc);
            acc = T::add(acc, v);
        }
        out
    })?;

    let mut out = Vec::with_capacity(input.len());
    for c in chunks.outputs {
        out.extend(c);
    }
    Ok((out, total, r3.end))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpmr_sim_gpu::GpuSpec;

    fn gpu() -> Gpu {
        Gpu::new(GpuSpec::gt200())
    }

    #[test]
    fn exclusive_scan_matches_reference() {
        let mut g = gpu();
        let input: Vec<u64> = (0..10_000).map(|i| (i * 7 + 3) % 100).collect();
        let (out, total, end) = exclusive_scan(&mut g, SimTime::ZERO, &input).unwrap();
        let mut acc = 0u64;
        for (i, &v) in input.iter().enumerate() {
            assert_eq!(out[i], acc, "mismatch at {i}");
            acc += v;
        }
        assert_eq!(total, acc);
        assert!(end > SimTime::ZERO);
    }

    #[test]
    fn empty_scan_is_free() {
        let mut g = gpu();
        let (out, total, end) = exclusive_scan::<u32>(&mut g, SimTime::ZERO, &[]).unwrap();
        assert!(out.is_empty());
        assert_eq!(total, 0);
        assert_eq!(end, SimTime::ZERO);
    }

    #[test]
    fn single_element_scan() {
        let mut g = gpu();
        let (out, total, _) = exclusive_scan(&mut g, SimTime::ZERO, &[42u32]).unwrap();
        assert_eq!(out, vec![0]);
        assert_eq!(total, 42);
    }

    #[test]
    fn scan_charges_time_on_compute_timeline() {
        let mut g = gpu();
        let input: Vec<u32> = vec![1; 1 << 20];
        let before = g.compute_free_at();
        let (_, _, _) = exclusive_scan(&mut g, SimTime::ZERO, &input).unwrap();
        assert!(g.compute_free_at() > before);
        // Should be at least the roofline time for reading+writing 8 MB.
        let busy = g.compute_free_at() - SimTime::ZERO;
        assert!(busy.as_secs() > (3.0 * (1u64 << 22) as f64) / g.spec.mem_bandwidth);
    }

    #[test]
    fn float_scan_works() {
        let mut g = gpu();
        let input = vec![0.5f64; 1000];
        let (out, total, _) = exclusive_scan(&mut g, SimTime::ZERO, &input).unwrap();
        assert!((out[999] - 499.5).abs() < 1e-9);
        assert!((total - 500.0).abs() < 1e-9);
    }
}
