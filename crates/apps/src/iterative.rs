//! Iterative MapReduce drivers.
//!
//! The paper's KMC benchmark runs a single iteration; a full K-Means is
//! "an iterative process; the MapReduce results are new cluster centers,
//! and a full implementation repeats a fixed number of times or until
//! convergence" (§5.3.4). [`KmcRounds`] expresses that loop as a
//! [`RoundJob`] for the core round driver: every iteration is a round
//! over the *same* input chunks ([`gpmr_core::rounds::RoundDecision::Again`]), and when a
//! round finishes quietly and the dataset fits, the driver keeps the
//! points device-resident and skips their re-upload — only the updated
//! centers cross back to the ranks, as a broadcast the clock charges
//! honestly.
//!
//! This replaces the old hand-rolled host loop, which re-charged the full
//! point upload every iteration (dishonest for a deployment that keeps
//! its input resident) and restarted the broadcast at `SimTime::ZERO`
//! instead of at the end of the round it follows.

use gpmr_core::rounds::{run_rounds, RoundJob, RoundStep};
use gpmr_core::{journal::Fnv64, EngineResult, EngineTuning, Journal, KvSet, SliceChunk};
use gpmr_sim_gpu::SimDuration;
use gpmr_sim_net::Cluster;
use gpmr_telemetry::Telemetry;

use crate::kmc::{centers_from_sums, sums_from_output, KmcJob, Point, DIMS};

/// Result of an iterative K-Means run.
#[derive(Clone, Debug)]
pub struct KmeansResult {
    /// Final cluster centers.
    pub centers: Vec<Point>,
    /// Iterations actually executed.
    pub iterations: usize,
    /// Total simulated time (jobs + inter-iteration center broadcasts),
    /// accumulated on one cross-round clock.
    pub total_time: SimDuration,
    /// Total center movement at each iteration (convergence history).
    pub movement: Vec<f64>,
    /// Iterations that ran with the points device-resident (no re-upload).
    pub resident_rounds: usize,
}

/// Euclidean movement between two center sets.
fn total_movement(a: &[Point], b: &[Point]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            (0..DIMS)
                .map(|d| (f64::from(x[d]) - f64::from(y[d])).powi(2))
                .sum::<f64>()
                .sqrt()
        })
        .sum()
}

/// Lloyd's iterations as a [`RoundJob`]: round k maps every point against
/// the current centers ([`KmcJob`]), [`KmcRounds::absorb`] folds the
/// per-center sums into updated centers and stops once total movement
/// drops below `tolerance`.
pub struct KmcRounds {
    centers: Vec<Point>,
    tolerance: f64,
    max_rounds: u32,
    /// Center movement per completed round.
    pub movement: Vec<f64>,
}

impl KmcRounds {
    /// Start from `initial_centers`, iterating until movement falls below
    /// `tolerance` or `max_rounds` rounds have run.
    pub fn new(initial_centers: Vec<Point>, max_rounds: u32, tolerance: f64) -> Self {
        KmcRounds {
            centers: initial_centers,
            tolerance,
            max_rounds,
            movement: Vec::new(),
        }
    }

    /// The current (after a run: final) centers.
    pub fn centers(&self) -> &[Point] {
        &self.centers
    }
}

impl RoundJob for KmcRounds {
    type Job = KmcJob;

    fn max_rounds(&self) -> u32 {
        self.max_rounds
    }

    fn job(&self, _round: u32) -> KmcJob {
        KmcJob::new(self.centers.clone())
    }

    fn control_hash(&self) -> u64 {
        // The centers ARE the control state: a resumed run that would
        // re-derive different centers must diverge at the round boundary.
        let mut h = Fnv64::new();
        for c in &self.centers {
            for x in c.iter().take(DIMS) {
                h.write_u64(u64::from(x.to_bits()));
            }
        }
        h.finish()
    }

    fn absorb(&mut self, _round: u32, outputs: &[KvSet<u32, f64>]) -> RoundStep {
        let mut merged: KvSet<u32, f64> = KvSet::new();
        for o in outputs {
            merged.append(o.clone());
        }
        let sums = sums_from_output(self.centers.len(), &merged);
        let updated = centers_from_sums(&self.centers, &sums);
        let moved = total_movement(&self.centers, &updated);
        self.movement.push(moved);
        self.centers = updated;
        if moved < self.tolerance {
            RoundStep::done()
        } else {
            // The next round's mappers everywhere need the full center
            // set; the update itself happens host-side from the reduce
            // output, so centers are all that crosses the wire.
            RoundStep::again((self.centers.len() * DIMS * 4) as u64)
        }
    }
}

/// Run K-Means to convergence (center movement below `tolerance`) or for
/// `max_iterations`, whichever comes first, on the core round driver.
/// Chunks are built once; after the first quiet round that fits on one
/// device, the points stay GPU-resident and later rounds skip the upload.
///
/// With a write-ahead `journal` the driver brackets every iteration with
/// round records, so an interrupted run resumed against the same journal
/// replays completed rounds and finishes bit-identically (centers,
/// movement history, and the cross-round clock).
pub fn run_kmeans(
    cluster: &mut Cluster,
    points: &[Point],
    initial_centers: Vec<Point>,
    chunk_points: usize,
    max_iterations: usize,
    tolerance: f64,
    journal: Option<&mut Journal>,
) -> EngineResult<KmeansResult> {
    let chunks = SliceChunk::split(points, chunk_points.max(1));
    let mut driver = KmcRounds::new(initial_centers, max_iterations as u32, tolerance);
    let res = run_rounds(
        cluster,
        &mut driver,
        chunks,
        &EngineTuning::default(),
        &Telemetry::disabled(),
        journal,
    )?;
    Ok(KmeansResult {
        centers: driver.centers,
        iterations: res.rounds as usize,
        total_time: res.total_time,
        movement: driver.movement,
        resident_rounds: res.per_round.iter().filter(|r| r.resident).count(),
    })
}

/// Sequential reference K-Means (same update rule) for verification.
pub fn reference_kmeans(
    points: &[Point],
    initial_centers: Vec<Point>,
    max_iterations: usize,
    tolerance: f64,
) -> (Vec<Point>, usize) {
    let mut centers = initial_centers;
    for iter in 0..max_iterations {
        let sums = crate::kmc::cpu_reference(&centers, points);
        let updated = centers_from_sums(&centers, &sums);
        let moved = total_movement(&centers, &updated);
        centers = updated;
        if moved < tolerance {
            return (centers, iter + 1);
        }
    }
    (centers, max_iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmc::{generate_points, initial_centers};
    use gpmr_sim_gpu::GpuSpec;

    #[test]
    fn iterative_kmeans_matches_sequential_reference() {
        let points = generate_points(20_000, 6, 31);
        let init = initial_centers(6, 32);
        let mut cluster = Cluster::accelerator(4, GpuSpec::gt200());
        let gpu_result =
            run_kmeans(&mut cluster, &points, init.clone(), 4096, 10, 1e-6, None).unwrap();
        let (ref_centers, ref_iters) = reference_kmeans(&points, init, 10, 1e-6);

        assert_eq!(gpu_result.iterations, ref_iters);
        for (a, b) in gpu_result.centers.iter().zip(&ref_centers) {
            for d in 0..DIMS {
                assert!(
                    (f64::from(a[d]) - f64::from(b[d])).abs() < 1e-4,
                    "center mismatch"
                );
            }
        }
    }

    #[test]
    fn kmeans_converges_and_tracks_movement() {
        let points = generate_points(10_000, 4, 33);
        let init = initial_centers(4, 34);
        let mut cluster = Cluster::accelerator(2, GpuSpec::gt200());
        let result = run_kmeans(&mut cluster, &points, init, 2048, 20, 1e-4, None).unwrap();
        assert!(result.iterations < 20, "should converge quickly");
        assert_eq!(result.movement.len(), result.iterations);
        // Movement decreases (allowing small non-monotonic wiggles early).
        assert!(result.movement.last().unwrap() < &1e-4);
        assert!(result.total_time.as_secs() > 0.0);
    }

    #[test]
    fn resident_iterations_are_cheaper_than_uploading_ones() {
        // The old driver re-charged the full point upload every iteration.
        // Under the round driver, iterations after the first quiet fitting
        // round skip the upload, so iteration 2+ must cost less than
        // iteration 1 — while still costing more than zero (map, sort,
        // reduce, and the center broadcast are all still charged).
        // Chunks big enough that the upload is on the critical path (at
        // 2048-point chunks the transfer hides entirely behind compute
        // and the saving would be invisible).
        let points = generate_points(400_000, 4, 35);
        let init = initial_centers(4, 36);
        let mut c1 = Cluster::accelerator(2, GpuSpec::gt200());
        let one = run_kmeans(&mut c1, &points, init.clone(), 100_000, 1, 0.0, None).unwrap();
        let mut c2 = Cluster::accelerator(2, GpuSpec::gt200());
        let three = run_kmeans(&mut c2, &points, init, 100_000, 3, 0.0, None).unwrap();
        assert_eq!(one.iterations, 1);
        assert_eq!(three.iterations, 3);
        assert_eq!(one.resident_rounds, 0);
        assert_eq!(three.resident_rounds, 2);
        // Strictly more work than one round, strictly less than three
        // full-upload rounds.
        assert!(three.total_time.as_secs() > one.total_time.as_secs());
        assert!(three.total_time.as_secs() < 3.0 * one.total_time.as_secs());
    }

    #[test]
    fn resident_rounds_do_not_change_results() {
        // Residency is a performance property; the computed centers must
        // be identical to a run where every round re-uploads (tiny
        // chunks on a huge-memory device vs the same points flowing
        // through the reference loop).
        let points = generate_points(12_000, 5, 41);
        let init = initial_centers(5, 42);
        let mut cluster = Cluster::accelerator(4, GpuSpec::fermi());
        let result = run_kmeans(&mut cluster, &points, init.clone(), 1024, 8, 1e-6, None).unwrap();
        let (ref_centers, _) = reference_kmeans(&points, init, 8, 1e-6);
        for (a, b) in result.centers.iter().zip(&ref_centers) {
            for d in 0..DIMS {
                assert!((f64::from(a[d]) - f64::from(b[d])).abs() < 1e-4);
            }
        }
        assert!(result.resident_rounds > 0, "expected resident iterations");
    }
}
