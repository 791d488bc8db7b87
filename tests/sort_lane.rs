//! The reducer side's sort lane. When two or more reducers of a job each
//! received at least 2^17 pairs (the engine's `SORT_LANE_MIN_PAIRS`), the
//! calling thread sorts the first inbox and `gpmr_sim_gpu::lane::join`'s
//! helper runs the radix sort's host sweeps for the others, ahead of the
//! calling thread, which makes every simulated charge and runs each
//! rank's segments and reduce. A panic on the helper surfaces as its own
//! panic, not as the caller's wait for a rank that never comes (the
//! join's rule: the helper's payload wins). None of that may show in a
//! result: these SIO runs are big enough to turn the lane on, and their
//! outputs, timing bits, journal bytes and recordings must be the ones
//! the engine wrote while every rank sorted on the calling thread.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use gpmr::apps::sio::{count_map, generate_integers, sio_chunks, sum_reduce};
use gpmr::core::journal::{fnv1a, scan_bytes, Journal, JournalRecord};
use gpmr::core::{run_job, run_job_with, EngineTuning, JobTimings, Pod, RunOpts, SliceChunk};
use gpmr::prelude::*;
use gpmr::primitives::RadixKey;
use gpmr::sim_gpu::{FaultPlan, SimGpuResult};
use gpmr::telemetry::{export, Telemetry};

/// Pairs from which a reducer's sort counts toward the lane's gate.
const LANE_PAIRS: u64 = 1 << 17;

/// Unique scratch path per test (tests run concurrently in one binary).
fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gpmr_sort_lane_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}.gpj"))
}

/// One lane-sized SIO run, journaled to `journal` and recorded.
struct Case {
    gpus: u32,
    n: usize,
    plan: Option<FaultPlan>,
    spec: GpuSpec,
}

/// What a run leaves: its outputs, timings, journal bytes and JSONL
/// recording.
struct Ran {
    outputs: Vec<KvSet<u32, u32>>,
    timings: JobTimings,
    journal: Vec<u8>,
    recording: String,
    /// Bytes each rank's device sent to the host.
    d2h: Vec<u64>,
}

impl Case {
    fn run(&self, journal: &mut Journal, path: &PathBuf) -> Ran {
        let mut cluster = Cluster::accelerator(self.gpus, self.spec.clone());
        cluster.set_fault_plan(self.plan.clone());
        let data = generate_integers(self.n, 42);
        let tel = Telemetry::enabled();
        let opts = RunOpts {
            tuning: EngineTuning::default(),
            tel: tel.clone(),
            journal: Some(journal),
        };
        let chunks = sio_chunks(&data, 64 << 10);
        let result = run_job_with(&mut cluster, &SioJob::default(), chunks, opts).unwrap();
        let snap = tel.snapshot();
        Ran {
            outputs: result.outputs,
            timings: result.timings,
            journal: std::fs::read(path).unwrap(),
            recording: export::to_jsonl(&snap),
            d2h: (0..self.gpus)
                .map(|r| snap.metrics.counter(&format!("gpu.rank{r}.d2h_bytes")))
                .collect(),
        }
    }

    fn fresh(&self, name: &str) -> Ran {
        let path = tmp(name);
        let mut journal = Journal::create(&path, 1).unwrap();
        self.run(&mut journal, &path)
    }
}

impl Ran {
    /// `[outputs, timing bits, journal bytes, recording]`, each FNV-1a.
    fn digests(&self) -> [u64; 4] {
        // Each rank's output as the pair hash of the build that recorded
        // these pins hashed it: FNV-1a of its keys, then its values.
        let mut out = Vec::new();
        for o in &self.outputs {
            let bytes: Vec<u8> = o
                .keys
                .iter()
                .chain(&o.vals)
                .flat_map(|x| x.to_le_bytes())
                .collect();
            out.extend(fnv1a(&bytes).to_le_bytes());
        }
        let t = &self.timings;
        let mut bits = vec![t.total.as_secs().to_bits()];
        for s in &t.per_rank {
            bits.extend(
                [s.map, s.bin, s.sort, s.reduce, s.scheduler].map(|d| d.as_secs().to_bits()),
            );
        }
        bits.extend(t.chunks_per_rank.iter().map(|&c| u64::from(c)));
        bits.extend([t.pairs_emitted, t.pairs_shuffled]);
        bits.extend(
            [
                t.chunks_stolen,
                t.gpus_lost,
                t.gpus_added,
                t.chunks_requeued,
                t.transfer_retries,
                t.stalls_injected,
            ]
            .map(u64::from),
        );
        let bits: Vec<u8> = bits.iter().flat_map(|b| b.to_le_bytes()).collect();
        [
            fnv1a(&out),
            fnv1a(&bits),
            fnv1a(&self.journal),
            fnv1a(self.recording.as_bytes()),
        ]
    }

    /// How many ranks sorted at least [`LANE_PAIRS`] pairs.
    fn lane_sorts(&self) -> usize {
        scan_bytes(&self.journal)
            .0
            .iter()
            .filter(|r| matches!(r, JournalRecord::BinSorted { pairs, .. } if *pairs >= LANE_PAIRS))
            .count()
    }
}

/// The cases: fault-free on 2 and 3 GPUs; rank 1 lost after its map
/// work, so that rank 2's GPU sorts and reduces two ranks; every transfer
/// from rank 1 to rank 0 failing twice; a third GPU joining mid-job, a
/// rank with no inbox; and devices of 2 MiB, on which each rank's sort
/// runs out of core.
fn cases() -> [(&'static str, Case); 6] {
    let case = |gpus, n, plan| Case {
        gpus,
        n,
        plan,
        spec: GpuSpec::gt200(),
    };
    [
        ("two", case(2, 300_000, None)),
        ("three", case(3, 450_000, None)),
        (
            "takeover",
            case(3, 450_000, Some(FaultPlan::new().kill(1, KILL_AFTER_MAP_S))),
        ),
        (
            "xfail",
            case(
                2,
                300_000,
                Some(FaultPlan::new().transfer_fail(Some(1), Some(0), 0.0, f64::INFINITY, 2)),
            ),
        ),
        (
            "elastic",
            case(3, 300_000, Some(FaultPlan::new().add(2, 2e-4))),
        ),
        (
            "spill",
            Case {
                spec: GpuSpec::gt200().with_mem_capacity(2 << 20),
                ..case(2, 300_000, None)
            },
        ),
    ]
}

/// After rank 1's last map chunk, before its sort: the loss is found at
/// the Sort stage.
const KILL_AFTER_MAP_S: f64 = 1.6e-3;

/// `[outputs, timing bits, journal bytes, recording]` of each case, in
/// [`cases`] order, recorded at 1ff80b8, the last commit whose ranks all
/// sorted on the calling thread. The journal bytes were re-recorded when
/// the journal's content hashes moved from FNV-1a to XXH64.
#[rustfmt::skip]
const PINS: [[u64; 4]; 6] = [
    [0x7cd1_b226_b3b2_608d, 0xff1d_43cb_3d11_9288, 0x8486_6da2_b012_2931, 0x4a24_71d2_e438_13f7],
    [0xb6b3_0d2d_516b_6354, 0x2d41_e2b6_0ff7_1d90, 0xf9b9_e7d2_f46e_d0b4, 0xcbb3_0cb8_5c5d_28f6],
    [0xb6b3_0d2d_516b_6354, 0xc7a3_dc00_efaf_7ac0, 0xfb8b_8218_d0ac_abaf, 0x1deb_86bf_5296_f73c],
    [0x7cd1_b226_b3b2_608d, 0xb614_5197_5368_9389, 0x9b3e_a6a3_a18a_ae52, 0x0e65_3f1b_287b_3343],
    [0xbae9_aae9_d19c_da34, 0x7192_f7e1_cfaa_d94e, 0x5d8b_f23d_2795_34ff, 0xed67_a9ce_6b9d_fd4a],
    [0x7cd1_b226_b3b2_608d, 0x2ae8_db48_2e29_690e, 0x47b0_b259_3f02_e7d9, 0x81de_ebb7_8084_c4fa],
];

#[test]
fn lane_sized_runs_match_the_runs_recorded_before_the_lane() {
    let mut failed = Vec::new();
    let mut in_core_d2h = Vec::new();
    for ((name, case), pins) in cases().into_iter().zip(PINS) {
        let ran = case.fresh(name);
        if name == "two" {
            in_core_d2h = ran.d2h.clone();
        }
        assert!(ran.lane_sorts() >= 2, "{name}: the lane must be on");
        let t = &ran.timings;
        match name {
            "takeover" => {
                assert_eq!(
                    (t.gpus_lost, t.chunks_requeued),
                    (1, 0),
                    "{name}: lost after map"
                );
                assert!(ran.recording.contains("GPU lost before sort"), "{name}");
            }
            "xfail" => assert!(t.transfer_retries > 0, "{name}: the failures must land"),
            "elastic" => assert_eq!(t.gpus_added, 1, "{name}: the add must land"),
            "spill" => {
                // Each arena went down and back up once before its sort, at
                // its size before the sort: the one difference from the
                // in-core run of the same job.
                for (r, in_core) in in_core_d2h.iter().enumerate() {
                    let arena = 8 * pairs_sorted(&ran, r as u32);
                    assert_eq!(ran.d2h[r], in_core + arena, "{name}: rank {r}");
                }
            }
            _ => {}
        }
        if ran.digests() != pins {
            failed.push(format!("{name}: {:#x?}", ran.digests()));
        }
    }
    assert!(failed.is_empty(), "{}", failed.join("\n"));
}

/// The pairs rank `r` sorted, by its `BinSorted` record.
fn pairs_sorted(ran: &Ran, r: u32) -> u64 {
    scan_bytes(&ran.journal)
        .0
        .iter()
        .find_map(|rec| match rec {
            JournalRecord::BinSorted { rank, pairs, .. } if *rank == r => Some(*pairs),
            _ => None,
        })
        .unwrap_or(0)
}

#[test]
fn an_elastic_run_cut_mid_sort_resumes_to_the_same_bytes() {
    let (name, case) = cases().into_iter().find(|(n, _)| *n == "elastic").unwrap();
    let path = tmp("elastic_resume");
    let mut journal = Journal::create(&path, 1).unwrap();
    let reference = case.run(&mut journal, &path);
    drop(journal);
    // Cut just after the first rank's sort: the resumed run replays the
    // map stage and the first sort, and writes the rest.
    let (records, offsets) = scan_bytes(&reference.journal);
    let first_sort = records
        .iter()
        .position(|r| matches!(r, JournalRecord::BinSorted { .. }))
        .expect("a rank sorted");
    std::fs::write(
        &path,
        &reference.journal[..offsets[first_sort + 1] as usize],
    )
    .unwrap();
    let mut journal = Journal::resume(&path, 1).unwrap();
    let resumed = case.run(&mut journal, &path);
    assert_eq!(journal.replayed(), first_sort as u64 + 1, "{name}");
    drop(journal);
    assert_eq!(resumed.outputs, reference.outputs, "{name}");
    assert_eq!(resumed.timings, reference.timings, "{name}");
    assert_eq!(resumed.journal, reference.journal, "{name}");
}

thread_local! {
    /// Set on the thread a test runs its job from.
    static CALLER: Cell<bool> = const { Cell::new(false) };
}

/// A SIO key that refuses to be sorted anywhere but on the thread that
/// ran the job: only the lane's helper reads it elsewhere.
#[derive(Clone, Copy, PartialEq)]
struct Tripwire(u32);

impl RadixKey for Tripwire {
    const BITS: u32 = 32;
    fn radix(self) -> u64 {
        assert!(
            CALLER.with(Cell::get),
            "tripwire: a key read off the calling thread"
        );
        u64::from(self.0)
    }
}

impl Pod for Tripwire {
    const SIZE: usize = 4;
    fn write_le(&self, out: &mut Vec<u8>) {
        self.0.write_le(out);
    }
    fn read_le(src: &[u8]) -> Self {
        Tripwire(u32::read_le(src))
    }
}

/// SIO over [`Tripwire`] keys.
struct TripwireJob;

impl GpmrJob for TripwireJob {
    type Chunk = SliceChunk<u32>;
    type Key = Tripwire;
    type Value = u32;

    fn map(
        &self,
        gpu: &mut Gpu,
        at: SimTime,
        chunk: &SliceChunk<u32>,
    ) -> SimGpuResult<(KvSet<Tripwire, u32>, SimTime)> {
        count_map(gpu, at, chunk.items.iter().map(|&k| Tripwire(k)).collect())
    }

    fn reduce(
        &self,
        gpu: &mut Gpu,
        at: SimTime,
        segs: &Segments<Tripwire>,
        vals: &[u32],
    ) -> SimGpuResult<(KvSet<Tripwire, u32>, SimTime)> {
        sum_reduce(gpu, at, segs, vals)
    }
}

#[test]
fn a_panic_on_the_sort_lane_surfaces_as_a_panic() {
    CALLER.with(|c| c.set(true));
    let run = |n: usize| {
        let mut cluster = Cluster::accelerator(2, GpuSpec::gt200());
        let chunks = sio_chunks(&generate_integers(n, 42), 64 << 10);
        catch_unwind(AssertUnwindSafe(|| {
            run_job(&mut cluster, &TripwireJob, chunks)
        }))
    };
    // Below the gate every key is read on this thread.
    let small = run(20_000).expect("no key leaves the calling thread");
    assert_eq!(small.unwrap().timings.pairs_shuffled, 20_000);
    // At the gate the helper sorts, trips, and the job panics with its
    // message rather than waiting for a rank that never comes.
    let panic = run(300_000)
        .err()
        .expect("the helper's panic reaches the caller");
    let msg = (panic.downcast_ref::<&str>().copied())
        .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
        .unwrap_or_default();
    assert!(msg.contains("off the calling thread"), "{msg}");
}
