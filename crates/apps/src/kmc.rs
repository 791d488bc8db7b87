//! K-Means Clustering (KMC): assign points to their nearest center and
//! compute per-center coordinate sums and counts — one iteration of
//! k-means, as benchmarked in the paper (§5.3.4).
//!
//! The paper's GPU adaptations, all reproduced here:
//!
//! * **Persistent threads** — each block reads many points coalesced and
//!   processes them in a loop, instead of one thread per point;
//! * **Atomic-free Accumulation** — the GT200 has no floating-point
//!   atomics, so each block folds its sums into a per-block global-memory
//!   pool and a second kernel reduces the pools (on a Fermi-class device
//!   with FP atomics the pools are skipped — the ablation bench measures
//!   the difference);
//! * **Coalesced emission** — the GPU emits `(center * (D+1) + dim, sum)`
//!   per dimension plus one count key per center, rather than the CPU's
//!   `(center, point)` pairs;
//! * **Per-center partitioning** — all keys of one center go to one GPU.

use gpmr_core::{GpmrJob, KvSet, MapMode, PartitionMode, PipelineConfig, SliceChunk};
use gpmr_primitives::Segments;
use gpmr_sim_gpu::{Gpu, LaunchConfig, SimGpuResult, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::accum;

/// Point dimensionality: 16-byte input elements (Table 1) = 4 x f32.
pub const DIMS: usize = 4;

/// A point.
pub type Point = [f32; DIMS];

/// The KMC job: one k-means iteration against a fixed set of centers.
#[derive(Clone, Debug)]
pub struct KmcJob {
    centers: Vec<Point>,
}

/// Points handled per map block (persistent threads: 256 threads loop
/// over the block's strip).
const POINTS_PER_MAP_BLOCK: usize = 4096;

impl KmcJob {
    /// Build the job with the given cluster centers.
    pub fn new(centers: Vec<Point>) -> Self {
        assert!(!centers.is_empty(), "k-means needs at least one center");
        KmcJob { centers }
    }

    /// Number of keys the job emits: `k * (DIMS + 1)` — per-dimension sums
    /// plus one count per center.
    pub fn key_count(&self) -> usize {
        self.centers.len() * (DIMS + 1)
    }
}

/// Nearest center by squared Euclidean distance (ties to the lower
/// index; a NaN distance is never nearer). The scalar definition: the CPU
/// baselines call it, the map kernel's block tails and [`cpu_reference`]'s
/// last `len % 8` points go through it, and the eight-point step both use
/// is checked against it.
pub fn nearest_center(centers: &[Point], p: &Point) -> usize {
    let mut best = 0usize;
    let mut best_d = f32::INFINITY;
    for (c, center) in centers.iter().enumerate() {
        let mut d = 0.0f32;
        for dim in 0..DIMS {
            let diff = p[dim] - center[dim];
            d += diff * diff;
        }
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    best
}

/// Points the map kernel assigns per step — the paper's one point per
/// thread, with the centers broadcast from shared memory (§5.3.4).
const LANES: usize = 8;

/// [`nearest_center`] of `LANES` points at once. The points are
/// transposed so that a lane is a point; the centers are visited in
/// index order, each distance is summed over `dim` in the scalar order,
/// and a lane takes a center by compare-and-select on the same `<` — so
/// every lane holds exactly the scalar function's index, without the
/// data-dependent branch per center that the scalar loop mispredicts.
fn nearest_centers(centers: &[Point], points: &[Point; LANES]) -> [u32; LANES] {
    let mut coords = [[0.0f32; LANES]; DIMS];
    for (l, p) in points.iter().enumerate() {
        for dim in 0..DIMS {
            coords[dim][l] = p[dim];
        }
    }
    let mut best = [0u32; LANES];
    let mut best_d = [f32::INFINITY; LANES];
    for (c, center) in centers.iter().enumerate() {
        let mut d = [0.0f32; LANES];
        for dim in 0..DIMS {
            for l in 0..LANES {
                let diff = coords[dim][l] - center[dim];
                d[l] += diff * diff;
            }
        }
        for l in 0..LANES {
            let take = d[l] < best_d[l];
            best_d[l] = if take { d[l] } else { best_d[l] };
            best[l] = if take { c as u32 } else { best[l] };
        }
    }
    best
}

/// Add point `p` to center `c`'s coordinate sums and count.
fn add_point(sums: &mut [f64], c: usize, p: &Point) {
    let base = c * (DIMS + 1);
    for dim in 0..DIMS {
        sums[base + dim] += f64::from(p[dim]);
    }
    sums[base + DIMS] += 1.0;
}

impl GpmrJob for KmcJob {
    type Chunk = SliceChunk<Point>;
    type Key = u32;
    type Value = f64;

    fn pipeline(&self) -> PipelineConfig {
        PipelineConfig {
            map_mode: MapMode::Accumulate,
            partition: PartitionMode::Custom,
            ..PipelineConfig::default()
        }
    }

    fn map(
        &self,
        _gpu: &mut Gpu,
        at: SimTime,
        _chunk: &Self::Chunk,
    ) -> SimGpuResult<(KvSet<u32, f64>, SimTime)> {
        // KMC always runs in Accumulate mode; plain map is unused.
        Ok((KvSet::new(), at))
    }

    fn accumulate_init(
        &self,
        gpu: &mut Gpu,
        at: SimTime,
    ) -> SimGpuResult<(KvSet<u32, f64>, SimTime)> {
        accum::zeroed(gpu, at, self.key_count(), &LaunchConfig::grid(1, 256))
    }

    fn map_accumulate(
        &self,
        gpu: &mut Gpu,
        at: SimTime,
        chunk: &Self::Chunk,
        state: &mut KvSet<u32, f64>,
    ) -> SimGpuResult<SimTime> {
        let points = &chunk.items;
        let n = points.len();
        let k = self.centers.len();
        let keys = self.key_count();
        let cfg = LaunchConfig::for_items(n, POINTS_PER_MAP_BLOCK, 256)
            .with_shared_bytes((keys.min(3000) * 4) as u32);

        let (locals, res) = gpu.launch(at, &cfg, |ctx| {
            let range = ctx.item_range(n);
            // Coalesced block-wide point reads.
            ctx.charge_read::<Point>(range.len());
            // Distance to every center: DIMS mul + 2*DIMS add/sub per
            // center, plus the block reductions per emitted key.
            ctx.charge_flops((range.len() * k * (3 * DIMS)) as u64);
            let mut sums = vec![0.0f64; keys];
            // The sums are added in point order whatever the step width.
            let (steps, tail) = points[range].as_chunks::<LANES>();
            for step in steps {
                for (p, c) in step.iter().zip(nearest_centers(&self.centers, step)) {
                    add_point(&mut sums, c as usize, p);
                }
            }
            for p in tail {
                add_point(&mut sums, nearest_center(&self.centers, p), p);
            }
            ctx.charge_flops(keys as u64); // block-wide reductions
            sums
        })?;

        Ok(accum::flush(gpu, res.end, locals.outputs, keys, state))
    }

    fn partition(&self, key: &u32, ranks: u32) -> u32 {
        // All keys of one center to one GPU.
        (key / (DIMS as u32 + 1)) % ranks.max(1)
    }

    fn reduce(
        &self,
        gpu: &mut Gpu,
        at: SimTime,
        segs: &Segments<u32>,
        vals: &[f64],
    ) -> SimGpuResult<(KvSet<u32, f64>, SimTime)> {
        // Thread-per-key sum; few centers and dimensions keep this
        // negligible (paper: "full Reduce time negligible").
        let cfg = LaunchConfig::for_items(segs.len(), 1024, 256);
        accum::segment_sums(gpu, at, segs, vals, &cfg)
    }
}

/// Generate `n` points scattered around `k` true cluster locations.
pub fn generate_points(n: usize, k: usize, seed: u64) -> Vec<Point> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x4b4d43);
    let truths: Vec<Point> = (0..k)
        .map(|_| std::array::from_fn(|_| rng.gen_range(-10.0..10.0)))
        .collect();
    (0..n)
        .map(|_| {
            let t = &truths[rng.gen_range(0..k)];
            std::array::from_fn(|d| t[d] + rng.gen_range(-0.5..0.5))
        })
        .collect()
}

/// Random initial centers (fixed at job startup, as in the paper).
pub fn initial_centers(k: usize, seed: u64) -> Vec<Point> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x43454e);
    (0..k)
        .map(|_| std::array::from_fn(|_| rng.gen_range(-10.0..10.0)))
        .collect()
}

/// Sequential reference: per-key (center-major) sums and counts, the
/// points added in order. Full steps are assigned eight at a time by
/// `nearest_centers`, which every lane ties to [`nearest_center`]; the
/// last `len % 8` points go through [`nearest_center`] itself.
pub fn cpu_reference(centers: &[Point], points: &[Point]) -> Vec<f64> {
    let mut sums = vec![0.0f64; centers.len() * (DIMS + 1)];
    let (steps, tail) = points.as_chunks::<LANES>();
    for step in steps {
        for (p, c) in step.iter().zip(nearest_centers(centers, step)) {
            add_point(&mut sums, c as usize, p);
        }
    }
    for p in tail {
        add_point(&mut sums, nearest_center(centers, p), p);
    }
    sums
}

/// Dense per-key sums from a job result.
pub fn sums_from_output(k: usize, output: &KvSet<u32, f64>) -> Vec<f64> {
    let mut sums = vec![0.0f64; k * (DIMS + 1)];
    for (key, v) in output.iter() {
        sums[*key as usize] += *v;
    }
    sums
}

/// New centers from accumulated sums (the k-means update step).
///
/// An *empty cluster* (no point mapped to the center this iteration) has
/// `count == 0`; dividing by it would turn the center into `[NaN; 4]`,
/// and NaN centers are absorbing — every later distance comparison
/// against NaN is false, so the center can never win a point back and the
/// poison spreads into the movement metric (and, journaled, into the
/// round's control hash). The guard keeps the previous center instead,
/// the standard Lloyd's fallback.
pub fn centers_from_sums(old: &[Point], sums: &[f64]) -> Vec<Point> {
    old.iter()
        .enumerate()
        .map(|(c, center)| {
            let base = c * (DIMS + 1);
            let count = sums[base + DIMS];
            if count > 0.0 {
                std::array::from_fn(|d| (sums[base + d] / count) as f32)
            } else {
                *center
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpmr_core::run_job;
    use gpmr_sim_gpu::GpuSpec;
    use gpmr_sim_net::Cluster;
    use proptest::prelude::*;

    fn assert_close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() <= 1e-6 * (1.0 + x.abs().max(y.abs())),
                "mismatch at {i}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn kmc_matches_reference_single_gpu() {
        let centers = initial_centers(8, 1);
        let points = generate_points(20_000, 8, 2);
        let job = KmcJob::new(centers.clone());
        let mut cluster = Cluster::accelerator(1, GpuSpec::gt200());
        let chunks = SliceChunk::split(&points, 4096);
        let result = run_job(&mut cluster, &job, chunks).unwrap();
        let sums = sums_from_output(centers.len(), &result.merged_output());
        assert_close(&sums, &cpu_reference(&centers, &points));
    }

    #[test]
    fn kmc_matches_reference_multi_gpu() {
        let centers = initial_centers(16, 3);
        let points = generate_points(40_000, 16, 4);
        let job = KmcJob::new(centers.clone());
        let mut cluster = Cluster::accelerator(8, GpuSpec::gt200());
        let chunks = SliceChunk::split(&points, 4096);
        let result = run_job(&mut cluster, &job, chunks).unwrap();
        let sums = sums_from_output(centers.len(), &result.merged_output());
        assert_close(&sums, &cpu_reference(&centers, &points));
        // Per-center partitioning: each rank only holds whole centers.
        for (r, out) in result.outputs.iter().enumerate() {
            for k in &out.keys {
                assert_eq!((k / (DIMS as u32 + 1)) % 8, r as u32);
            }
        }
    }

    #[test]
    fn centers_update_moves_toward_truth() {
        let centers = initial_centers(4, 5);
        let points = generate_points(10_000, 4, 6);
        let sums = cpu_reference(&centers, &points);
        let updated = centers_from_sums(&centers, &sums);
        assert_eq!(updated.len(), 4);
        // Total count equals the number of points.
        let total: f64 = (0..4).map(|c| sums[c * (DIMS + 1) + DIMS]).sum();
        assert_eq!(total, 10_000.0);
    }

    #[test]
    fn fermi_uses_atomics_instead_of_pools() {
        // Both paths must produce identical sums; Fermi should be faster
        // per map because the pool-reduce pass disappears.
        let centers = initial_centers(8, 7);
        let points = generate_points(30_000, 8, 8);
        let job = KmcJob::new(centers.clone());
        let chunks = SliceChunk::split(&points, 4096);

        let mut gt200 = Cluster::accelerator(1, GpuSpec::gt200());
        let r1 = run_job(&mut gt200, &job, chunks.clone()).unwrap();
        let mut fermi = Cluster::accelerator(1, GpuSpec::fermi());
        let r2 = run_job(&mut fermi, &job, chunks).unwrap();
        assert_close(
            &sums_from_output(8, &r1.merged_output()),
            &sums_from_output(8, &r2.merged_output()),
        );
    }

    /// A coordinate from a small palette: a coarse grid, so that centers
    /// coincide and points sit equidistant from several of them, both
    /// zeros, values whose squares overflow, infinities and NaN.
    fn coordinate(rng: &mut SmallRng) -> f32 {
        match rng.gen_range(0..30u32) {
            i @ 0..=19 => (i % 5) as f32 - 2.0,
            20 => -0.0,
            21 | 22 => 0.5,
            23 => 1e30,
            24 => -1e30,
            25 => f32::INFINITY,
            26 => f32::NEG_INFINITY,
            27 => f32::NAN,
            _ => rng.gen_range(-2.0..2.0),
        }
    }

    /// 1 to 40 centers, one of them duplicated, and one step of points.
    fn assignment_case(seed: u64) -> (Vec<Point>, [Point; LANES]) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let k = rng.gen_range(1..=40usize);
        let mut centers: Vec<Point> = (0..k)
            .map(|_| std::array::from_fn(|_| coordinate(&mut rng)))
            .collect();
        let (from, to) = (rng.gen_range(0..k), rng.gen_range(0..k));
        centers[to] = centers[from];
        let points = std::array::from_fn(|_| std::array::from_fn(|_| coordinate(&mut rng)));
        (centers, points)
    }

    /// Every lane of the step kernel holds `scalar`'s index.
    fn lanes_hold(seed: u64, scalar: impl Fn(&[Point], &Point) -> usize) -> bool {
        let (centers, points) = assignment_case(seed);
        let lanes = nearest_centers(&centers, &points);
        (points.iter().zip(lanes)).all(|(p, c)| scalar(&centers, p) == c as usize)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]
        #[test]
        fn every_lane_holds_the_scalar_index(seed in any::<u64>()) {
            prop_assert!(lanes_hold(seed, nearest_center), "seed {seed}");
        }
    }

    #[test]
    fn assignment_cases_tell_a_wrong_tie_break_apart() {
        // Two scalar functions that differ from `nearest_center` only on
        // exact ties: the cases must contain enough of those to fail both.
        fn argmin<'a>(
            centers: impl Iterator<Item = (usize, &'a Point)>,
            p: &Point,
            nearer: fn(f32, f32) -> bool,
        ) -> usize {
            let (mut best, mut best_d) = (0, f32::INFINITY);
            for (c, center) in centers {
                let d = (0..DIMS).fold(0.0f32, |d, dim| {
                    let diff = p[dim] - center[dim];
                    d + diff * diff
                });
                if nearer(d, best_d) {
                    (best, best_d) = (c, d);
                }
            }
            best
        }
        let in_order = |cs: &[Point], p: &Point, nearer| argmin(cs.iter().enumerate(), p, nearer);
        let unmutated = |cs: &[Point], p: &Point| in_order(cs, p, |d, b| d < b);
        let ties_go_up = |cs: &[Point], p: &Point| in_order(cs, p, |d, b| d <= b);
        let reversed =
            |cs: &[Point], p: &Point| argmin(cs.iter().enumerate().rev(), p, |d, b| d < b);
        assert!((0..256).all(|seed| lanes_hold(seed, unmutated)));
        let failures = |scalar: &dyn Fn(&[Point], &Point) -> usize| {
            (0..256).filter(|&seed| !lanes_hold(seed, scalar)).count()
        };
        assert!(failures(&ties_go_up) > 64, "`<=` for `<` goes unnoticed");
        assert!(failures(&reversed) > 64, "reversed centers go unnoticed");
    }

    /// The reference before it took eight points per step, kept verbatim.
    fn scalar_reference(centers: &[Point], points: &[Point]) -> Vec<f64> {
        let mut sums = vec![0.0f64; centers.len() * (DIMS + 1)];
        for p in points {
            let c = nearest_center(centers, p);
            let base = c * (DIMS + 1);
            for dim in 0..DIMS {
                sums[base + dim] += f64::from(p[dim]);
            }
            sums[base + DIMS] += 1.0;
        }
        sums
    }

    fn same_bits(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn reference_equals_the_scalar_loop_bit_for_bit() {
        let centers = initial_centers(16, 3);
        let all = generate_points(4099, 16, 4);
        for n in [0, 7, 8, 9, 4099] {
            let points = &all[..n];
            let (got, want) = (
                cpu_reference(&centers, points),
                scalar_reference(&centers, points),
            );
            assert!(same_bits(&got, &want), "n = {n}");
        }
        // The tie cases: duplicated centers, signed zeros, infinities, NaN.
        for seed in 0..256 {
            let (centers, step) = assignment_case(seed);
            let points: Vec<Point> = step.iter().chain(&step[..3]).copied().collect();
            let (got, want) = (
                cpu_reference(&centers, &points),
                scalar_reference(&centers, &points),
            );
            assert!(same_bits(&got, &want), "seed {seed}");
        }
    }

    /// FNV-1a of the keys' then the values' little-endian encoding: the
    /// pair hash of the build that recorded these digests.
    fn digest(out: &KvSet<u32, f64>) -> u64 {
        let keys = out.keys.iter().flat_map(|k| k.to_le_bytes());
        let bytes: Vec<u8> = keys
            .chain(out.vals.iter().flat_map(|v| v.to_le_bytes()))
            .collect();
        gpmr_core::journal::fnv1a(&bytes)
    }

    #[test]
    fn output_bits_are_the_recorded_ones() {
        // Recorded with the scalar kernel. `f64` sums depend on the order
        // of addition — block by block, chunk by chunk, rank by rank. The
        // chunks split into blocks of 3 001, 2 999, 2 050, 2 049, 1 531
        // and (the last chunk) fewer points: steps and scalar tails both.
        let centers = initial_centers(32, 40);
        let points = generate_points(100_003, 32, 41);
        let job = KmcJob::new(centers);
        for (ranks, chunk_items, expect) in [
            (1, 9001, 0x47ad_3c49_ba95_a5d2u64),
            (8, 4099, 0x13c5_0359_df17_759e),
            (64, 1531, 0x47ad_3c49_ba95_a5d2),
        ] {
            let mut cluster = Cluster::accelerator(ranks, GpuSpec::gt200());
            let chunks = SliceChunk::split(&points, chunk_items);
            let result = run_job(&mut cluster, &job, chunks).unwrap();
            assert_eq!(
                digest(&result.merged_output()),
                expect,
                "{ranks} ranks, chunks of {chunk_items}"
            );
        }
    }

    #[test]
    fn accumulate_counts_match_the_cpu_reference() {
        let centers = initial_centers(32, 42);
        let points = generate_points(3 * POINTS_PER_MAP_BLOCK + 1237, 32, 43);
        let job = KmcJob::new(centers.clone());
        let chunk = SliceChunk::new(0, 0, points.clone());
        let mut gpu = Gpu::new(GpuSpec::gt200());
        let (mut state, t) = job.accumulate_init(&mut gpu, SimTime::ZERO).unwrap();
        job.map_accumulate(&mut gpu, t, &chunk, &mut state).unwrap();
        // Counts are exact whatever the order of the sums.
        let reference = cpu_reference(&centers, &points);
        for c in 0..centers.len() {
            let count = c * (DIMS + 1) + DIMS;
            assert_eq!(state.vals[count], reference[count]);
        }
    }

    #[test]
    #[should_panic(expected = "at least one center")]
    fn empty_centers_rejected() {
        let _ = KmcJob::new(Vec::new());
    }

    #[test]
    fn empty_cluster_keeps_previous_center_not_nan() {
        // Regression: a center that captures no points must survive the
        // update unchanged — a 0/0 here would poison it to NaN forever.
        let old = vec![[0.0f32; DIMS], [100.0; DIMS]];
        // All ten points sit at the origin; center 1 is empty.
        let points = vec![[0.0f32; DIMS]; 10];
        let sums = cpu_reference(&old, &points);
        assert_eq!(sums[(DIMS + 1) + DIMS], 0.0, "cluster 1 is empty");
        let updated = centers_from_sums(&old, &sums);
        assert_eq!(updated[0], [0.0; DIMS]);
        assert_eq!(updated[1], [100.0; DIMS], "empty cluster keeps its center");
        for c in &updated {
            assert!(c.iter().all(|x| x.is_finite()), "no NaN/inf centers");
        }
        // And the iterative driver stays finite end-to-end with an
        // unlucky initial center far outside the data.
        let far = vec![[0.5f32; DIMS], [1e6; DIMS]];
        let updated = centers_from_sums(&far, &cpu_reference(&far, &points));
        assert!(updated.iter().flatten().all(|x| x.is_finite()));
    }
}
