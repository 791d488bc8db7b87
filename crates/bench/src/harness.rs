//! Shared harness parameters: the default scale and chunk sizing.

/// Default workload scale divisor (element counts / 64, matrix orders
/// / 8). Chosen so the full figure sweeps finish in minutes on a laptop.
pub const DEFAULT_SCALE: u64 = 64;

/// Chunk size in bytes for a workload of `total_bytes` on `gpus` GPUs
/// under hardware-scale divisor `scale`: a few chunks per GPU, clamped so
/// chunks stay meaningful at small sizes and double-bufferable within the
/// (scaled) device memory. Equivalent to [`chunk_bytes_tuned`] at the
/// classic double-buffer depth of 2.
pub fn chunk_bytes(total_bytes: u64, gpus: u32, scale: u64) -> usize {
    chunk_bytes_tuned(total_bytes, gpus, scale, 2)
}

/// Depth-aware chunk autotuning for a `depth`-deep upload pipeline. A rank
/// needs `depth` chunks in flight on the copy engine plus about as many
/// queued behind them before the pipeline can actually overlap uploads
/// with map kernels, so the target is `2 * depth` chunks per rank. The
/// upper clamp splits the same (scaled) 64 MB staging budget the
/// double-buffer sizing used across the `depth` in-flight buffers.
pub fn chunk_bytes_tuned(total_bytes: u64, gpus: u32, scale: u64, depth: u32) -> usize {
    let s = scale.max(1);
    let d = u64::from(depth.max(1));
    let per = total_bytes / (2 * d * u64::from(gpus.max(1)));
    let min = (64 * 1024 / s).max(1024);
    // `--scale` is user input: near `u64::MAX` the product has no `u64`.
    let max = ((64 << 20) / d.saturating_mul(s)).max(min);
    per.clamp(min, max) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_bytes_clamps() {
        assert_eq!(chunk_bytes(1024, 1, 1), 64 * 1024);
        assert_eq!(chunk_bytes(1 << 40, 1, 1), 32 << 20);
        let mid = chunk_bytes(512 << 20, 4, 1);
        assert_eq!(mid, 32 << 20);
        let small = chunk_bytes(16 << 20, 8, 1);
        assert_eq!(small, (16 << 20) / 32);
        // Scaled hardware shrinks both clamps proportionally.
        assert_eq!(chunk_bytes(1024, 1, 64), 1024);
        assert_eq!(chunk_bytes(1 << 40, 1, 64), (32 << 20) / 64);
    }

    #[test]
    fn tuned_chunks_track_pipeline_depth() {
        // Depth 2 is exactly the classic double-buffer sizing.
        assert_eq!(
            chunk_bytes_tuned(1 << 40, 1, 64, 2),
            chunk_bytes(1 << 40, 1, 64)
        );
        assert_eq!(
            chunk_bytes_tuned(16 << 20, 8, 1, 2),
            chunk_bytes(16 << 20, 8, 1)
        );
        // Deeper pipelines want proportionally more (smaller) chunks per
        // rank, and the staging clamp splits across the in-flight buffers.
        assert_eq!(chunk_bytes_tuned(4 << 20, 8, 64, 4), 64 * 1024);
        assert_eq!(chunk_bytes_tuned(1 << 40, 1, 1, 4), 16 << 20);
        // Depth 1 (no pipelining) degrades to halves of the double-buffer
        // sizing's chunk count, never below the floor.
        assert_eq!(chunk_bytes_tuned(1024, 4, 64, 1), 1024);
    }

    #[test]
    fn the_largest_scales_size_chunks_at_the_floor() {
        // `d * s` used to wrap: to zero (a division by zero) at 2^62 with
        // depth 4, past `u64::MAX` (an overflow panic in debug) above it.
        for scale in [1 << 62, u64::MAX] {
            for depth in [1, 2, 4, 64] {
                assert_eq!(chunk_bytes_tuned(1 << 40, 4, scale, depth), 1024);
            }
        }
    }
}
