//! Closest pair (1-D) on the round driver — a Goodrich-style
//! constant-round MapReduce geometry kernel, and the exercise for
//! [`PairChunk`]-chained rounds.
//!
//! Two rounds:
//!
//! * **Round 0 — bands.** Points (as `(quantized key, exact coordinate)`
//!   pairs) are range-partitioned into coordinate bands, one per rank;
//!   the engine's radix sort orders each band and reduce scans it once,
//!   emitting three pairs per band: the minimum adjacent gap inside the
//!   band, and the band's extreme coordinates (for gaps that straddle a
//!   band boundary).
//! * **Round 1 — merge.** The per-band candidates are re-chunked
//!   ([`gpmr_core::rounds::RoundDecision::Chain`]) into one rank-tagged
//!   [`PairChunk`] headed for rank 0, whose mapper folds within-band gaps
//!   and cross-boundary gaps into the global answer. This rechunk
//!   *concentrates* data (everything to rank 0), so the driver keeps
//!   [`gpmr_core::rounds::RoundJob::rechunk_preserves_affinity`] at its
//!   `false` default and the merge round honestly pays its one upload.
//!
//! The candidate set is exact, not heuristic: the closest pair is either
//! inside some band (covered by that band's min gap) or straddles a
//! boundary (covered by the neighbouring extremes), because bands tile
//! the coordinate axis in order.

use gpmr_core::rounds::{RoundJob, RoundStep};
use gpmr_core::{derive_splitters, GpmrJob, KvSet, PairChunk, PartitionMode, PipelineConfig};
use gpmr_primitives::Segments;
use gpmr_sim_gpu::{Gpu, LaunchConfig, SimGpuResult, SimTime};

/// Fields emitted per band in round 0, tagged `rank * FIELDS + field` by
/// the rechunk.
const FIELDS: u32 = 3;
const F_GAP: u32 = 0;
const F_MIN: u32 = 1;
const F_MAX: u32 = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Band,
    Merge,
}

/// One pass of the closest-pair computation; built per round by
/// [`CpairRounds`].
#[derive(Clone, Debug)]
pub struct CpairJob {
    phase: Phase,
    splitters: Vec<u64>,
}

impl GpmrJob for CpairJob {
    type Chunk = PairChunk<u32, f32>;
    type Key = u32;
    type Value = f32;

    fn pipeline(&self) -> PipelineConfig {
        PipelineConfig {
            partition: match self.phase {
                Phase::Band => PartitionMode::Range {
                    splitters: self.splitters.clone(),
                },
                Phase::Merge => PartitionMode::None,
            },
            ..PipelineConfig::default()
        }
    }

    fn map(
        &self,
        gpu: &mut Gpu,
        at: SimTime,
        chunk: &Self::Chunk,
    ) -> SimGpuResult<(KvSet<u32, f32>, SimTime)> {
        let n = chunk.pairs.len();
        let cfg = LaunchConfig::for_items(n.max(1), 4096, 256);
        let phase = self.phase;
        let (launch, res) = gpu.launch(at, &cfg, |ctx| {
            let range = ctx.item_range(n);
            ctx.charge_read::<(u32, f32)>(range.len());
            let mut out: KvSet<u32, f32> = KvSet::new();
            match phase {
                // Identity: ship every point into its coordinate band.
                Phase::Band => {
                    for i in range.clone() {
                        out.push(chunk.pairs.keys[i], chunk.pairs.vals[i]);
                    }
                }
                // The whole candidate chunk is in this one map call:
                // fold per-band gaps and cross-boundary gaps directly.
                Phase::Merge => {
                    if ctx.item_range(n).start == 0 {
                        out.push(0, merge_candidates(&chunk.pairs));
                    }
                }
            }
            ctx.charge_write::<(u32, f32)>(out.len());
            ctx.charge_flops(range.len() as u64);
            out
        })?;
        let mut pairs = KvSet::new();
        for p in launch.outputs {
            pairs.append(p);
        }
        Ok((pairs, res.end))
    }

    fn reduce(
        &self,
        gpu: &mut Gpu,
        at: SimTime,
        segs: &Segments<u32>,
        vals: &[f32],
    ) -> SimGpuResult<(KvSet<u32, f32>, SimTime)> {
        if segs.is_empty() {
            return Ok((KvSet::new(), at));
        }
        match self.phase {
            Phase::Band => {
                // One sorted scan over the band. Segments arrive in radix
                // (= coordinate-bucket) order; values inside one bucket
                // are sorted locally, so the concatenation is the band in
                // ascending coordinate order.
                let cfg = LaunchConfig::grid(1, 256);
                let (launch, res) = gpu.launch(at, &cfg, |ctx| {
                    let mut band: Vec<f32> = Vec::new();
                    for s in 0..segs.len() {
                        let r = segs.range(s);
                        ctx.charge_read_uncoalesced::<f32>(r.len());
                        let mut bucket = vals[r].to_vec();
                        bucket.sort_by(f32::total_cmp);
                        band.extend_from_slice(&bucket);
                    }
                    ctx.charge_flops(band.len() as u64);
                    let mut gap = f32::INFINITY;
                    for w in band.windows(2) {
                        gap = gap.min(w[1] - w[0]);
                    }
                    let mut out: KvSet<u32, f32> = KvSet::new();
                    out.push(F_GAP, gap);
                    out.push(F_MIN, band[0]);
                    out.push(F_MAX, *band.last().expect("segs non-empty"));
                    ctx.charge_write::<(u32, f32)>(out.len());
                    out
                })?;
                let mut out = KvSet::new();
                for p in launch.outputs {
                    out.append(p);
                }
                Ok((out, res.end))
            }
            Phase::Merge => {
                // Fold the (single) candidate key's values to their min.
                let cfg = LaunchConfig::grid(1, 256);
                let (launch, res) = gpu.launch(at, &cfg, |ctx| {
                    let mut out: KvSet<u32, f32> = KvSet::new();
                    for s in 0..segs.len() {
                        let r = segs.range(s);
                        ctx.charge_read_uncoalesced::<f32>(r.len());
                        ctx.charge_flops(r.len() as u64);
                        let min = vals[r].iter().copied().fold(f32::INFINITY, f32::min);
                        out.push(segs.keys[s], min);
                    }
                    out
                })?;
                let mut out = KvSet::new();
                for p in launch.outputs {
                    out.append(p);
                }
                Ok((out, res.end))
            }
        }
    }
}

/// Fold a rank-tagged candidate set (`rank * FIELDS + field` keys) into
/// the global minimum gap: band-internal gaps plus the boundary gap
/// between each pair of *consecutive non-empty* bands.
fn merge_candidates(pairs: &KvSet<u32, f32>) -> f32 {
    let mut ranks: Vec<u32> = pairs.keys.iter().map(|k| k / FIELDS).collect();
    ranks.sort_unstable();
    ranks.dedup();
    let field = |rank: u32, f: u32| -> Option<f32> {
        pairs
            .iter()
            .find(|(k, _)| **k == rank * FIELDS + f)
            .map(|(_, v)| *v)
    };
    let mut best = f32::INFINITY;
    for (i, &r) in ranks.iter().enumerate() {
        if let Some(g) = field(r, F_GAP) {
            best = best.min(g);
        }
        if i + 1 < ranks.len() {
            if let (Some(hi), Some(lo)) = (field(r, F_MAX), field(ranks[i + 1], F_MIN)) {
                best = best.min(lo - hi);
            }
        }
    }
    best
}

/// The two-round closest-pair driver.
pub struct CpairRounds {
    splitters: Vec<u64>,
    /// The answer after the run: the minimum gap between any two input
    /// coordinates.
    pub min_gap: Option<f32>,
}

impl CpairRounds {
    /// Derive band splitters for `ranks` bands from a stride-sample of
    /// the coordinates (every `sample_every`-th point, quantized).
    pub fn new(coords: &[f32], ranks: u32, sample_every: usize) -> Self {
        let sample: Vec<u64> = coords
            .iter()
            .step_by(sample_every.max(1))
            .map(|&c| u64::from(quantize(c)))
            .collect();
        CpairRounds {
            splitters: derive_splitters(&sample, ranks),
            min_gap: None,
        }
    }
}

impl RoundJob for CpairRounds {
    type Job = CpairJob;

    fn max_rounds(&self) -> u32 {
        2
    }

    fn job(&self, round: u32) -> CpairJob {
        CpairJob {
            phase: if round == 0 {
                Phase::Band
            } else {
                Phase::Merge
            },
            splitters: self.splitters.clone(),
        }
    }

    fn control_hash(&self) -> u64 {
        let mut h = gpmr_core::journal::Fnv64::new();
        for &s in &self.splitters {
            h.write_u64(s);
        }
        h.write_u64(u64::from(self.min_gap.unwrap_or(0.0).to_bits()));
        h.finish()
    }

    fn absorb(&mut self, round: u32, outputs: &[KvSet<u32, f32>]) -> RoundStep {
        if round == 0 {
            return RoundStep::chain(0);
        }
        for o in outputs {
            for (k, v) in o.iter() {
                if *k == 0 {
                    self.min_gap = Some(*v);
                }
            }
        }
        RoundStep::done()
    }

    fn rechunk(&self, _round: u32, outputs: Vec<KvSet<u32, f32>>) -> Vec<PairChunk<u32, f32>> {
        // Tag every band's candidates with its rank and pack them into a
        // single chunk — chunk 0 dispatches to rank 0, which is exactly
        // where the merge must happen.
        let mut pairs: KvSet<u32, f32> = KvSet::new();
        for (rank, o) in outputs.iter().enumerate() {
            for (k, v) in o.iter() {
                pairs.push(rank as u32 * FIELDS + *k, *v);
            }
        }
        vec![PairChunk::new(0, pairs)]
    }
}

/// Monotone quantization of a non-negative coordinate to a radix key.
fn quantize(c: f32) -> u32 {
    debug_assert!(c >= 0.0, "cpair expects non-negative coordinates");
    c as u32
}

/// Build round-0 input chunks from raw coordinates.
///
/// ```
/// use gpmr_apps::cpair::{cpair_chunks, generate_coords};
/// let coords = generate_coords(1000, 1.0e4, 7);
/// assert_eq!(cpair_chunks(&coords, 256).len(), 4);
/// ```
pub fn cpair_chunks(coords: &[f32], chunk_points: usize) -> Vec<PairChunk<u32, f32>> {
    let pairs: KvSet<u32, f32> = coords.iter().map(|&c| (quantize(c), c)).collect();
    PairChunk::split(&pairs, chunk_points.max(1), 0)
}

/// Sequential reference: sort and scan.
pub fn cpu_reference(coords: &[f32]) -> f32 {
    let mut sorted = coords.to_vec();
    sorted.sort_by(f32::total_cmp);
    let mut best = f32::INFINITY;
    for w in sorted.windows(2) {
        best = best.min(w[1] - w[0]);
    }
    best
}

/// Generate `n` coordinates scattered over `[0, span)`.
pub fn generate_coords(n: usize, span: f32, seed: u64) -> Vec<f32> {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x4350_4152);
    (0..n).map(|_| rng.gen_range(0.0..span)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpmr_core::rounds::run_rounds;
    use gpmr_core::EngineTuning;
    use gpmr_sim_gpu::GpuSpec;
    use gpmr_sim_net::Cluster;
    use gpmr_telemetry::Telemetry;

    fn run_cpair(coords: &[f32], gpus: u32) -> f32 {
        let mut cluster = Cluster::accelerator(gpus, GpuSpec::gt200());
        let mut driver = CpairRounds::new(coords, gpus, 64);
        let res = run_rounds(
            &mut cluster,
            &mut driver,
            cpair_chunks(coords, 16 * 1024),
            &EngineTuning::default(),
            &Telemetry::disabled(),
            None,
        )
        .unwrap();
        assert_eq!(res.rounds, 2);
        assert!(res.converged);
        driver.min_gap.expect("merge round produced an answer")
    }

    #[test]
    fn closest_pair_matches_reference() {
        let coords = generate_coords(50_000, 1.0e6, 11);
        let expected = cpu_reference(&coords);
        assert_eq!(run_cpair(&coords, 4), expected);
    }

    #[test]
    fn closest_pair_single_rank() {
        let coords = generate_coords(5_000, 1.0e4, 13);
        assert_eq!(run_cpair(&coords, 1), cpu_reference(&coords));
    }

    #[test]
    fn closest_pair_with_planted_twins() {
        // Plant two points closer than anything random will produce
        // (coincident at f32 precision — distance exactly zero).
        let mut coords = generate_coords(20_000, 1.0e6, 17);
        coords.push(123_456.25);
        coords.push(123_456.25);
        let expected = cpu_reference(&coords);
        let got = run_cpair(&coords, 8);
        assert_eq!(got, expected);
        assert!(got <= 1e-3);
    }
}
