//! Determinism and recovery properties of the multi-round job driver:
//! the same drive must produce bit-identical outputs and simulated times
//! across repeated runs — for every worker count, both GPU generations,
//! under fault plans, with and without a journal — and a journaled drive
//! interrupted at *any* byte must resume to the identical result.

use gpmr_core::rounds::{RoundJob, RoundStep};
use gpmr_core::{
    run_rounds, EngineResult, EngineTuning, GpmrJob, Journal, KvSet, PipelineConfig, RoundsResult,
    SliceChunk,
};
use gpmr_primitives::Segments;
use gpmr_sim_gpu::{FaultPlan, Gpu, GpuSpec, LaunchConfig, SimGpuResult, SimTime};
use gpmr_sim_net::Cluster;
use gpmr_telemetry::Telemetry;

/// One round of the test drive: histogram `item % KEYS` with a per-round
/// salt mixed in, so every round's output depends on the control state.
#[derive(Clone)]
struct HistJob {
    salt: u32,
}

const KEYS: u32 = 64;

impl GpmrJob for HistJob {
    type Chunk = SliceChunk<u32>;
    type Key = u32;
    type Value = u32;

    fn pipeline(&self) -> PipelineConfig {
        PipelineConfig::default()
    }

    fn map(
        &self,
        gpu: &mut Gpu,
        at: SimTime,
        chunk: &Self::Chunk,
    ) -> SimGpuResult<(KvSet<u32, u32>, SimTime)> {
        let n = chunk.items.len();
        let cfg = LaunchConfig::for_items(n, 4096, 256);
        let salt = self.salt;
        let (launch, res) = gpu.launch(at, &cfg, |ctx| {
            let range = ctx.item_range(n);
            ctx.charge_read::<u32>(range.len());
            let mut out: KvSet<u32, u32> = KvSet::with_capacity(range.len());
            for &x in &chunk.items[range.clone()] {
                out.push(x.wrapping_add(salt) % KEYS, 1);
            }
            ctx.charge_write::<u32>(2 * out.len());
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
        vals: &[u32],
    ) -> SimGpuResult<(KvSet<u32, u32>, SimTime)> {
        if segs.is_empty() {
            return Ok((KvSet::new(), at));
        }
        let cfg = LaunchConfig::for_items(segs.len(), 2048, 256);
        let (launch, res) = gpu.launch(at, &cfg, |ctx| {
            let range = ctx.item_range(segs.len());
            let mut out: KvSet<u32, u32> = KvSet::with_capacity(range.len());
            for s in range {
                let r = segs.range(s);
                ctx.charge_read::<u32>(r.len());
                out.push(segs.keys[s], vals[r].iter().copied().sum());
            }
            ctx.charge_write::<u32>(2 * out.len());
            out
        })?;
        let mut pairs = KvSet::new();
        for p in launch.outputs {
            pairs.append(p);
        }
        Ok((pairs, res.end))
    }
}

/// Drives [`HistJob`] for a fixed number of rounds, folding each round's
/// histogram into the salt (so the control trajectory depends on every
/// previous round's output — any divergence compounds and is caught).
struct HistRounds {
    rounds: u32,
    salt: u32,
}

impl RoundJob for HistRounds {
    type Job = HistJob;

    fn max_rounds(&self) -> u32 {
        self.rounds
    }

    fn job(&self, _round: u32) -> HistJob {
        HistJob { salt: self.salt }
    }

    fn control_hash(&self) -> u64 {
        u64::from(self.salt)
    }

    fn absorb(&mut self, round: u32, outputs: &[KvSet<u32, u32>]) -> RoundStep {
        let mut acc = 0u32;
        for o in outputs {
            for (k, v) in o.iter() {
                acc = acc.wrapping_mul(31).wrapping_add(k.wrapping_add(*v));
            }
        }
        self.salt = acc;
        if round + 1 >= self.rounds {
            RoundStep::done()
        } else {
            RoundStep::again(4)
        }
    }
}

fn input_chunks(n: usize) -> Vec<SliceChunk<u32>> {
    // Deterministic pseudo-random items (no RNG dependency).
    let items: Vec<u32> = (0..n as u32)
        .map(|i| i.wrapping_mul(2_654_435_761).rotate_left(7))
        .collect();
    SliceChunk::split(&items, 4096)
}

/// A result's identity-relevant bits: outputs verbatim plus the exact
/// clock (as bits), round count, and per-round makespans (as bits).
type Fingerprint = (Vec<Vec<(u32, u32)>>, u64, u32, Vec<u64>);

fn fingerprint(r: &RoundsResult<u32, u32>) -> Fingerprint {
    (
        r.outputs
            .iter()
            .map(|o| o.iter().map(|(k, v)| (*k, *v)).collect())
            .collect(),
        r.total_time.as_secs().to_bits(),
        r.rounds,
        r.per_round
            .iter()
            .map(|s| s.timings.total.as_secs().to_bits())
            .collect(),
    )
}

fn try_drive(
    gpus: u32,
    spec: GpuSpec,
    plan: Option<FaultPlan>,
    journal: Option<&mut Journal>,
) -> EngineResult<RoundsResult<u32, u32>> {
    let mut cluster = Cluster::accelerator(gpus, spec);
    cluster.set_fault_plan(plan);
    let mut driver = HistRounds { rounds: 3, salt: 1 };
    run_rounds(
        &mut cluster,
        &mut driver,
        input_chunks(60_000),
        &EngineTuning::default(),
        &Telemetry::disabled(),
        journal,
    )
}

fn drive(gpus: u32, spec: GpuSpec, plan: Option<FaultPlan>) -> RoundsResult<u32, u32> {
    try_drive(gpus, spec, plan, None).expect("drive failed")
}

#[test]
fn round_driver_is_deterministic_across_workers_backends_and_faults() {
    type SpecFn = fn() -> GpuSpec;
    let specs: [(&str, SpecFn); 2] = [("gt200", GpuSpec::gt200), ("fermi", GpuSpec::fermi)];
    for gpus in [1u32, 2, 8] {
        for (name, spec) in specs {
            // Kill one rank mid-drive where there is a rank to spare, and
            // let one join; single-GPU runs only get the fault-free case.
            let mut plans = vec![None];
            if gpus > 1 {
                plans.push(Some(FaultPlan::new().kill(gpus - 1, 2e-4)));
                plans.push(Some(FaultPlan::new().add(gpus - 1, 1e-4)));
            }
            for plan in plans {
                let a = fingerprint(&drive(gpus, spec(), plan.clone()));
                let b = fingerprint(&drive(gpus, spec(), plan.clone()));
                assert_eq!(
                    a, b,
                    "non-deterministic drive: {gpus} x {name}, plan {plan:?}"
                );
            }
        }
    }
}

#[test]
fn journaled_drive_matches_plain_drive() {
    let path = std::env::temp_dir().join("gpmr_rounds_plain_vs_journal.bin");
    let plain = fingerprint(&drive(4, GpuSpec::gt200(), None));
    let mut journal = Journal::create(&path, 1).unwrap();
    let journaled =
        try_drive(4, GpuSpec::gt200(), None, Some(&mut journal)).expect("journaled drive failed");
    assert_eq!(plain, fingerprint(&journaled));
    std::fs::remove_file(&path).ok();
}

/// Interrupt a journaled multi-round drive at an arbitrary byte and
/// resume: the outcome must be bit-identical to the uninterrupted run —
/// outputs, round count, per-round makespans, and the cross-round clock.
#[test]
fn interrupted_drive_resumes_bit_identically_at_any_truncation() {
    let dir = std::env::temp_dir();
    let full_path = dir.join("gpmr_rounds_resume_full.bin");

    let mut journal = Journal::create(&full_path, 1).unwrap();
    let reference = fingerprint(
        &try_drive(4, GpuSpec::gt200(), None, Some(&mut journal)).expect("reference drive failed"),
    );
    drop(journal);
    let bytes = std::fs::read(&full_path).unwrap();
    assert!(bytes.len() > 64, "journal suspiciously small");

    // Cut points from almost-nothing to almost-complete, deliberately
    // *not* aligned to record boundaries: resume must trim the torn tail
    // and re-execute from the last consistent round.
    for fraction in [0.05, 0.3, 0.55, 0.8, 0.97] {
        let cut = ((bytes.len() as f64 * fraction) as usize).max(1);
        let trunc_path = dir.join(format!("gpmr_rounds_resume_{cut}.bin"));
        std::fs::write(&trunc_path, &bytes[..cut]).unwrap();

        let mut journal = Journal::resume(&trunc_path, 1).unwrap();
        let resumed = try_drive(4, GpuSpec::gt200(), None, Some(&mut journal))
            .unwrap_or_else(|e| panic!("resume at byte {cut} failed: {e}"));
        assert_eq!(
            reference,
            fingerprint(&resumed),
            "resume at byte {cut} diverged"
        );
        drop(journal);
        std::fs::remove_file(&trunc_path).ok();
    }
    std::fs::remove_file(&full_path).ok();
}

/// MM's shape: a stateless two-round drive whose second round runs over
/// the first round's outputs ([`RoundStep::chain`]) with no control state
/// to broadcast.
struct ChainRounds;

impl RoundJob for ChainRounds {
    type Job = HistJob;

    fn max_rounds(&self) -> u32 {
        2
    }

    fn job(&self, _round: u32) -> HistJob {
        HistJob { salt: 0 }
    }

    fn absorb(&mut self, round: u32, _outputs: &[KvSet<u32, u32>]) -> RoundStep {
        if round == 0 {
            RoundStep::chain(0)
        } else {
            RoundStep::done()
        }
    }

    fn rechunk(&self, _round: u32, outputs: Vec<KvSet<u32, u32>>) -> Vec<SliceChunk<u32>> {
        (0u32..)
            .zip(outputs)
            .map(|(id, o)| SliceChunk::new(id, 0, o.keys))
            .collect()
    }
}

/// Only an `Again` round runs resident: a chained round's chunks are new,
/// so it pays its uploads even when the round before was quiet and its
/// chunks fit on one device — and with nothing broadcast, the drive's
/// clock is exactly its two passes.
#[test]
fn a_quiet_fitting_chained_round_pays_its_uploads() {
    let (tuning, tel) = (EngineTuning::default(), Telemetry::disabled());
    let mut cluster = Cluster::accelerator(2, GpuSpec::gt200());
    let chained = run_rounds(
        &mut cluster,
        &mut ChainRounds,
        input_chunks(20_000),
        &tuning,
        &tel,
        None,
    )
    .expect("chained drive failed");
    assert_eq!(chained.rounds, 2);
    let first = &chained.per_round[0].timings;
    let quiet =
        first.chunks_stolen + first.chunks_requeued == 0 && first.gpus_lost + first.gpus_added == 0;
    assert!(quiet, "round 0 must be quiet: {first:?}");
    assert!(
        !chained.per_round[1].resident,
        "a chained round ran resident"
    );
    let passes = chained.per_round[0].timings.total + chained.per_round[1].timings.total;
    assert_eq!(
        chained.total_time.as_secs().to_bits(),
        passes.as_secs().to_bits()
    );

    // The same input re-run by `Again` does fit and run resident.
    let mut again = HistRounds { rounds: 2, salt: 1 };
    let mut cluster = Cluster::accelerator(2, GpuSpec::gt200());
    let repeated = run_rounds(
        &mut cluster,
        &mut again,
        input_chunks(20_000),
        &tuning,
        &tel,
        None,
    )
    .expect("repeated drive failed");
    assert!(repeated.per_round[1].resident, "an Again round re-uploaded");
}
