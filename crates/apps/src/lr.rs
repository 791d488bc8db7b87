//! Linear Regression (LR): fit `y = a*x + b` over a point set
//! (paper §5.3.5).
//!
//! LR stores chunks like KMC (tightly-packed point arrays) and uses the
//! same optimizations: persistent threads and internal Accumulation. The
//! mapper emits only six keys — the sufficient statistics `n, Σx, Σy,
//! Σxx, Σxy, Σyy` — so no Partitioner is used ("the network overhead is
//! minimal in both cases") and reduction is key-per-thread with virtually
//! nil cost. Per element the map does very little work, which is exactly
//! why the paper finds LR scales poorly past one node: fixed overheads
//! and light communication dominate.

use gpmr_core::{GpmrJob, KvSet, MapMode, PartitionMode, PipelineConfig, SliceChunk};
use gpmr_primitives::Segments;
use gpmr_sim_gpu::{Gpu, LaunchConfig, SimGpuResult, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::accum;

/// The six statistic keys, in emission order.
pub const STAT_KEYS: usize = 6;
const KEY_N: usize = 0;
const KEY_SX: usize = 1;
const KEY_SY: usize = 2;
const KEY_SXX: usize = 3;
const KEY_SXY: usize = 4;
const KEY_SYY: usize = 5;

/// An input sample: 8-byte element (Table 1) = (x, y) as f32.
pub type Sample = (f32, f32);

/// The LR job.
#[derive(Clone, Copy, Debug, Default)]
pub struct LrJob;

/// Samples handled per map block (persistent threads).
const SAMPLES_PER_MAP_BLOCK: usize = 8192;

impl GpmrJob for LrJob {
    type Chunk = SliceChunk<Sample>;
    type Key = u32;
    type Value = f64;

    fn pipeline(&self) -> PipelineConfig {
        PipelineConfig {
            map_mode: MapMode::Accumulate,
            partition: PartitionMode::None,
            ..PipelineConfig::default()
        }
    }

    fn map(
        &self,
        _gpu: &mut Gpu,
        at: SimTime,
        _chunk: &Self::Chunk,
    ) -> SimGpuResult<(KvSet<u32, f64>, SimTime)> {
        // LR always runs in Accumulate mode; plain map is unused.
        Ok((KvSet::new(), at))
    }

    fn accumulate_init(
        &self,
        gpu: &mut Gpu,
        at: SimTime,
    ) -> SimGpuResult<(KvSet<u32, f64>, SimTime)> {
        accum::zeroed(gpu, at, STAT_KEYS, &LaunchConfig::grid(1, 32))
    }

    fn map_accumulate(
        &self,
        gpu: &mut Gpu,
        at: SimTime,
        chunk: &Self::Chunk,
        state: &mut KvSet<u32, f64>,
    ) -> SimGpuResult<SimTime> {
        let samples = &chunk.items;
        let n = samples.len();
        let cfg = LaunchConfig::for_items(n, SAMPLES_PER_MAP_BLOCK, 256)
            .with_shared_bytes((STAT_KEYS * 8) as u32);
        let (locals, res) = gpu.launch(at, &cfg, |ctx| {
            let range = ctx.item_range(n);
            ctx.charge_read::<Sample>(range.len());
            // 3 mults + 5 adds per sample, then block-wide reductions.
            ctx.charge_flops(8 * range.len() as u64 + STAT_KEYS as u64);
            let mut s = [0.0f64; STAT_KEYS];
            for &(x, y) in &samples[range] {
                let (x, y) = (f64::from(x), f64::from(y));
                s[KEY_N] += 1.0;
                s[KEY_SX] += x;
                s[KEY_SY] += y;
                s[KEY_SXX] += x * x;
                s[KEY_SXY] += x * y;
                s[KEY_SYY] += y * y;
            }
            s
        })?;
        // Per-block pools (no FP atomics on GT200), same as KMC.
        Ok(accum::flush(gpu, res.end, locals.outputs, STAT_KEYS, state))
    }

    fn reduce(
        &self,
        gpu: &mut Gpu,
        at: SimTime,
        segs: &Segments<u32>,
        vals: &[f64],
    ) -> SimGpuResult<(KvSet<u32, f64>, SimTime)> {
        // Key-per-thread; reduction time is "virtually nil" (paper).
        accum::segment_sums(gpu, at, segs, vals, &LaunchConfig::grid(1, 32))
    }
}

/// The fitted model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinearModel {
    /// Slope `a` of `y = a*x + b`.
    pub slope: f64,
    /// Intercept `b`.
    pub intercept: f64,
    /// Pearson correlation coefficient.
    pub correlation: f64,
}

/// Fit the model from the six accumulated statistics (key-major order).
pub fn model_from_stats(stats: &[f64]) -> LinearModel {
    let (n, sx, sy, sxx, sxy, syy) = (
        stats[KEY_N],
        stats[KEY_SX],
        stats[KEY_SY],
        stats[KEY_SXX],
        stats[KEY_SXY],
        stats[KEY_SYY],
    );
    let denom = n * sxx - sx * sx;
    let slope = if denom.abs() > f64::EPSILON {
        (n * sxy - sx * sy) / denom
    } else {
        0.0
    };
    let intercept = if n > 0.0 { (sy - slope * sx) / n } else { 0.0 };
    let var = (n * sxx - sx * sx) * (n * syy - sy * sy);
    let correlation = if var > f64::EPSILON {
        (n * sxy - sx * sy) / var.sqrt()
    } else {
        0.0
    };
    LinearModel {
        slope,
        intercept,
        correlation,
    }
}

/// Dense statistics vector from a job result.
pub fn stats_from_output(output: &KvSet<u32, f64>) -> Vec<f64> {
    let mut stats = vec![0.0f64; STAT_KEYS];
    for (k, v) in output.iter() {
        stats[*k as usize] += *v;
    }
    stats
}

/// Generate `n` samples around the line `y = slope*x + intercept` with
/// uniform noise.
pub fn generate_samples(n: usize, slope: f32, intercept: f32, seed: u64) -> Vec<Sample> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x4c52);
    (0..n)
        .map(|_| {
            let x: f32 = rng.gen_range(-100.0..100.0);
            let y = slope * x + intercept + rng.gen_range(-1.0..1.0);
            (x, y)
        })
        .collect()
}

/// Sequential reference statistics.
pub fn cpu_reference(samples: &[Sample]) -> Vec<f64> {
    let mut s = vec![0.0f64; STAT_KEYS];
    for &(x, y) in samples {
        let (x, y) = (f64::from(x), f64::from(y));
        s[KEY_N] += 1.0;
        s[KEY_SX] += x;
        s[KEY_SY] += y;
        s[KEY_SXX] += x * x;
        s[KEY_SXY] += x * y;
        s[KEY_SYY] += y * y;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpmr_core::run_job;
    use gpmr_sim_gpu::GpuSpec;
    use gpmr_sim_net::Cluster;

    fn assert_close(a: &[f64], b: &[f64]) {
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() <= 1e-6 * (1.0 + x.abs().max(y.abs())),
                "stat {i}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn lr_matches_reference() {
        let samples = generate_samples(30_000, 2.0, -3.0, 1);
        let mut cluster = Cluster::accelerator(4, GpuSpec::gt200());
        let chunks = SliceChunk::split(&samples, 8192);
        let result = run_job(&mut cluster, &LrJob, chunks).unwrap();
        let stats = stats_from_output(&result.merged_output());
        assert_close(&stats, &cpu_reference(&samples));
    }

    #[test]
    fn model_recovers_line() {
        let samples = generate_samples(50_000, 2.0, -3.0, 2);
        let mut cluster = Cluster::accelerator(2, GpuSpec::gt200());
        let chunks = SliceChunk::split(&samples, 8192);
        let result = run_job(&mut cluster, &LrJob, chunks).unwrap();
        let model = model_from_stats(&stats_from_output(&result.merged_output()));
        assert!((model.slope - 2.0).abs() < 0.01, "slope {}", model.slope);
        assert!(
            (model.intercept + 3.0).abs() < 0.05,
            "intercept {}",
            model.intercept
        );
        assert!(model.correlation > 0.99);
    }

    #[test]
    fn lr_output_lands_on_rank_zero() {
        let samples = generate_samples(10_000, 1.0, 0.0, 3);
        let mut cluster = Cluster::accelerator(4, GpuSpec::gt200());
        let chunks = SliceChunk::split(&samples, 4096);
        let result = run_job(&mut cluster, &LrJob, chunks).unwrap();
        assert!(!result.outputs[0].is_empty());
        assert!(result.outputs[1..].iter().all(KvSet::is_empty));
        assert_eq!(result.outputs[0].len(), STAT_KEYS);
    }

    #[test]
    fn degenerate_model_inputs() {
        let m = model_from_stats(&[0.0; STAT_KEYS]);
        assert_eq!(m.slope, 0.0);
        assert_eq!(m.intercept, 0.0);
        assert_eq!(m.correlation, 0.0);
        // Vertical data (all x equal) does not divide by zero.
        let samples = vec![(1.0f32, 2.0f32); 100];
        let m = model_from_stats(&cpu_reference(&samples));
        assert_eq!(m.slope, 0.0);
    }
}
