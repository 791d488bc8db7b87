//! Crash-point / replay matrix for the write-ahead job journal.
//!
//! The contract under test: a `gpmr` run journaled to disk and killed at
//! **any** point — after any record, or mid-record through a torn write —
//! resumes to a job that finishes **bit-identically** to the
//! uninterrupted run: same outputs, same simulated timings, and the same
//! final journal bytes. Resume is verified deterministic replay: the
//! engine re-executes from scratch while the journal checks every
//! would-be record against the stored prefix, so a journal written by a
//! *different* job (other data, other cluster shape) aborts with a typed
//! divergence error instead of silently replaying garbage. Any bytes at
//! all — flipped, cut, duplicated or spliced — open as a valid record
//! prefix plus a torn tail, never a panic.

use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use gpmr::core::journal::{fnv1a, scan_bytes, Journal, JournalError, JournalRecord};
use gpmr::core::{run_job_journaled, run_rounds, EngineError, EngineTuning, JobTimings, RunOpts};
use gpmr::prelude::*;
use gpmr::sim_gpu::FaultPlan;
use gpmr::telemetry::Telemetry;
use gpmr_apps::iterative::KmcRounds;
use gpmr_apps::kmc::{generate_points, initial_centers};
use gpmr_apps::mm::run_mm;
use gpmr_apps::sio::{self, sio_chunks, SioMode};
use gpmr_apps::text::{chunk_text, generate_text};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const DATA_N: usize = 12_000;
const DATA_SEED: u64 = 7;

/// Unique scratch path per test (tests run concurrently in one binary).
fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gpmr_ckpt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}.gpj"))
}

fn cluster(ranks: u32, plan: &Option<FaultPlan>) -> Cluster {
    let mut cl = Cluster::accelerator(ranks, GpuSpec::gt200());
    cl.set_fault_plan(plan.clone());
    cl
}

fn tuning(gpu_direct: bool) -> EngineTuning {
    EngineTuning {
        gpu_direct,
        ..EngineTuning::default()
    }
}

/// One journaled SIO run (integer-exact, so outputs are bit-comparable).
fn run_with_journal(
    ranks: u32,
    gpu_direct: bool,
    plan: &Option<FaultPlan>,
    seed: u64,
    journal: &mut Journal,
) -> Result<(Vec<KvSet<u32, u32>>, JobTimings), EngineError> {
    let data = sio::generate_integers(DATA_N, seed);
    let mut cl = cluster(ranks, plan);
    let result = run_job_journaled(
        &mut cl,
        &SioJob::default(),
        sio_chunks(&data, 2 * 1024),
        &tuning(gpu_direct),
        &Telemetry::disabled(),
        journal,
    )?;
    Ok((result.outputs, result.timings))
}

/// An MM drive's product bits and clock bits.
type MmBits = (Vec<u32>, u64);

/// One journaled MM drive — order 96 in 2-tile slabs on 2 ranks, rank 1
/// lost at 1 ms of each round.
fn run_mm_with_journal(journal: &mut Journal) -> MmBits {
    let (a, b) = (Matrix::random(96, 40), Matrix::random(96, 41));
    let mut cl = cluster(2, &Some(FaultPlan::new().kill(1, 1e-3)));
    let opts = RunOpts {
        journal: Some(journal),
        ..RunOpts::default()
    };
    let result = run_mm(&mut cl, &a, &b, 2, 2, 2, opts).expect("journaled mm drive");
    let lost = (result.phase1.gpus_lost, result.phase2.gpus_lost);
    assert_eq!(lost, (1, 1), "the kill must land in both rounds");
    let bits = result.c.data.iter().map(|x| x.to_bits()).collect();
    (bits, result.total_time.as_secs().to_bits())
}

/// Everything an uninterrupted journaled run leaves behind.
struct Reference {
    outputs: Vec<KvSet<u32, u32>>,
    timings: JobTimings,
    bytes: Vec<u8>,
    /// Byte offset of each record boundary, `[0, .., bytes.len()]`.
    offsets: Vec<u64>,
}

fn record_reference(
    path: &PathBuf,
    ranks: u32,
    gpu_direct: bool,
    plan: &Option<FaultPlan>,
    every: u32,
) -> Reference {
    let mut journal = Journal::create(path, every).expect("create journal");
    let (outputs, timings) =
        run_with_journal(ranks, gpu_direct, plan, DATA_SEED, &mut journal).expect("reference run");
    drop(journal);
    let bytes = std::fs::read(path).unwrap();
    let (records, offsets) = scan_bytes(&bytes);
    assert!(
        matches!(records.first(), Some(JournalRecord::JobStart { .. })),
        "journal must open with JobStart"
    );
    assert!(
        matches!(records.last(), Some(JournalRecord::JobEnd { .. })),
        "journal must close with JobEnd"
    );
    assert_eq!(
        *offsets.last().unwrap() as usize,
        bytes.len(),
        "reference journal has no torn tail"
    );
    Reference {
        outputs,
        timings,
        bytes,
        offsets,
    }
}

/// Crash the reference journal at byte `cut`, resume, and assert the
/// finished job is bit-identical to the uninterrupted run — outputs,
/// timings, and the re-grown journal bytes.
fn crash_and_resume(
    path: &PathBuf,
    reference: &Reference,
    cut: usize,
    ranks: u32,
    gd: bool,
    plan: &Option<FaultPlan>,
) {
    std::fs::write(path, &reference.bytes[..cut]).unwrap();
    let mut journal = Journal::resume(path, 1).expect("resume after crash");
    let (outputs, timings) =
        run_with_journal(ranks, gd, plan, DATA_SEED, &mut journal).expect("resumed run completes");
    let replayed = journal.replayed();
    drop(journal);
    assert_eq!(
        outputs, reference.outputs,
        "outputs diverged resuming from byte {cut}"
    );
    assert_eq!(
        timings, reference.timings,
        "timings diverged resuming from byte {cut}"
    );
    assert_eq!(
        std::fs::read(path).unwrap(),
        reference.bytes,
        "re-grown journal differs after a crash at byte {cut}"
    );
    assert!(
        (replayed as usize) < reference.offsets.len(),
        "replayed more records than the journal holds"
    );
}

#[test]
fn resume_from_every_record_boundary_is_bit_identical() {
    // Canonical config: 2 ranks, host-staged transfers, a mid-job kill so
    // the journal carries the full record vocabulary (loss, requeue,
    // steal, dispatch, commit, bins).
    let path = tmp("every_boundary");
    let plan = Some(FaultPlan::new().kill(1, 5e-4));
    let reference = record_reference(&path, 2, false, &plan, 1);
    assert!(
        reference.timings.gpus_lost == 1,
        "the kill must land mid-job for this matrix to mean anything"
    );
    for (i, &off) in reference.offsets.iter().enumerate() {
        std::fs::write(&path, &reference.bytes[..off as usize]).unwrap();
        let mut journal = Journal::resume(&path, 1).expect("resume");
        let (outputs, timings) = run_with_journal(2, false, &plan, DATA_SEED, &mut journal)
            .unwrap_or_else(|e| panic!("resume from record boundary {i} failed: {e}"));
        assert_eq!(
            journal.replayed(),
            i as u64,
            "replay length at boundary {i}"
        );
        assert_eq!(journal.torn_bytes(), 0, "boundary cut has no torn bytes");
        drop(journal);
        assert_eq!(
            outputs, reference.outputs,
            "outputs diverged at boundary {i}"
        );
        assert_eq!(
            timings, reference.timings,
            "timings diverged at boundary {i}"
        );
        assert_eq!(
            std::fs::read(&path).unwrap(),
            reference.bytes,
            "journal bytes diverged at boundary {i}"
        );
    }
}

#[test]
fn crash_point_matrix_across_ranks_and_transfer_modes() {
    // {1, 2, 8} ranks x {host-staged, GPU-direct} x {fault-free, killed}.
    // Boundaries are sampled (ends, thirds, halves) — the exhaustive walk
    // lives in `resume_from_every_record_boundary_is_bit_identical`.
    for ranks in [1u32, 2, 8] {
        for gd in [false, true] {
            let plans: Vec<Option<FaultPlan>> = if ranks >= 2 {
                vec![None, Some(FaultPlan::new().kill(1, 3e-4))]
            } else {
                vec![None]
            };
            for (pi, plan) in plans.iter().enumerate() {
                let path = tmp(&format!("matrix_r{ranks}_gd{gd}_p{pi}"));
                let reference = record_reference(&path, ranks, gd, plan, 1);
                let n = reference.offsets.len();
                let picks = [0, 1, n / 3, n / 2, 2 * n / 3, n - 2, n - 1];
                for &i in picks.iter().filter(|&&i| i < n) {
                    crash_and_resume(
                        &path,
                        &reference,
                        reference.offsets[i] as usize,
                        ranks,
                        gd,
                        plan,
                    );
                }
            }
        }
    }
}

#[test]
fn elastic_add_plans_resume_bit_identically() {
    // A journaled job on a 3-GPU cluster where the third GPU joins
    // mid-run: the GpuAdded and Steal records replay like any others.
    let path = tmp("elastic_resume");
    let plan = Some(FaultPlan::new().add(2, 2e-4));
    let reference = record_reference(&path, 3, false, &plan, 1);
    assert_eq!(reference.timings.gpus_added, 1, "the add must land");
    let n = reference.offsets.len();
    for &i in &[1, n / 2, n - 2] {
        crash_and_resume(
            &path,
            &reference,
            reference.offsets[i] as usize,
            3,
            false,
            &plan,
        );
    }
}

#[test]
fn buffered_checkpoints_lose_only_unflushed_records() {
    // checkpoint-every 8 buffers non-barrier records: a crash loses at
    // most the buffered tail, and resume still converges to the same
    // final journal (the reference, written with the same cadence).
    let path = tmp("buffered");
    let reference = record_reference(&path, 2, false, &None, 8);
    let every1 = {
        let path1 = tmp("buffered_every1");
        record_reference(&path1, 2, false, &None, 1)
    };
    // Flush cadence never changes the records, outputs, or timings —
    // only when they hit the disk.
    assert_eq!(reference.bytes, every1.bytes);
    assert_eq!(reference.outputs, every1.outputs);
    assert_eq!(reference.timings, every1.timings);
    let n = reference.offsets.len();
    for &i in &[n / 4, n / 2, n - 2] {
        std::fs::write(&path, &reference.bytes[..reference.offsets[i] as usize]).unwrap();
        let mut journal = Journal::resume(&path, 8).expect("resume");
        let (outputs, timings) =
            run_with_journal(2, false, &None, DATA_SEED, &mut journal).expect("resumed run");
        drop(journal);
        assert_eq!(outputs, reference.outputs);
        assert_eq!(timings, reference.timings);
        assert_eq!(std::fs::read(&path).unwrap(), reference.bytes);
    }
}

#[test]
fn resuming_someone_elses_journal_diverges_with_a_typed_error() {
    let path = tmp("diverge");
    let plan = None;
    let reference = record_reference(&path, 2, false, &plan, 1);
    assert!(!reference.bytes.is_empty());

    // Same journal, different cluster shape: the JobStart fingerprint
    // catches it on record 0.
    let mut journal = Journal::resume(&path, 1).unwrap();
    let err = run_with_journal(4, false, &plan, DATA_SEED, &mut journal)
        .expect_err("a 4-rank resume of a 2-rank journal must diverge");
    assert!(
        matches!(
            err,
            EngineError::Journal(JournalError::Diverged { index: 0, .. })
        ),
        "{err}"
    );

    // Same shape, different input data: ditto.
    let mut journal = Journal::resume(&path, 1).unwrap();
    let err = run_with_journal(2, false, &plan, DATA_SEED + 1, &mut journal)
        .expect_err("a resume over different data must diverge");
    assert!(
        matches!(
            err,
            EngineError::Journal(JournalError::Diverged { index: 0, .. })
        ),
        "{err}"
    );

    // GPU-direct reshapes the schedule: fingerprint divergence again.
    let mut journal = Journal::resume(&path, 1).unwrap();
    let err = run_with_journal(2, true, &plan, DATA_SEED, &mut journal)
        .expect_err("a resume under a different transfer mode must diverge");
    assert!(
        matches!(err, EngineError::Journal(JournalError::Diverged { .. })),
        "{err}"
    );

    // Same job, but one mid-journal `BinReduced` holds another content
    // hash in a valid frame: resume refuses at that record with a typed
    // error, neither replaying past it nor trimming it as a torn tail.
    let (mut records, _) = scan_bytes(&reference.bytes);
    let index = records
        .iter()
        .position(|r| matches!(r, JournalRecord::BinReduced { .. }))
        .expect("a reducer commits its output");
    assert!(index + 1 < records.len(), "the record is mid-journal");
    let ours = records[index];
    let JournalRecord::BinReduced { hash, .. } = &mut records[index] else {
        unreachable!()
    };
    *hash ^= 1;
    let mut journal = Journal::create(&path, 1).unwrap();
    for rec in &records {
        journal.record(rec).unwrap();
    }
    drop(journal);
    let written = std::fs::read(&path).unwrap();

    let mut journal = Journal::resume(&path, 1).unwrap();
    assert_eq!(journal.torn_bytes(), 0, "every frame is valid");
    assert_eq!(journal.replay_len(), records.len() as u64);
    let err = run_with_journal(2, false, &plan, DATA_SEED, &mut journal)
        .expect_err("a foreign content hash must diverge");
    assert_eq!(journal.replayed(), index as u64);
    drop(journal);
    match err {
        EngineError::Journal(JournalError::Diverged {
            index: at,
            expected,
            got,
        }) => {
            assert_eq!(at, index as u64);
            assert_eq!((expected, got), (records[index], ours));
        }
        other => panic!("expected divergence at record {index}, got {other}"),
    }
    assert_eq!(
        std::fs::read(&path).unwrap(),
        written,
        "a refused resume writes nothing"
    );
}

#[test]
fn corrupt_byte_mid_journal_self_heals_by_truncating_there() {
    // A flipped byte fails the frame checksum: everything from that frame
    // on is a torn tail. Resume replays the intact prefix and re-appends
    // the rest, converging on the reference bytes.
    let path = tmp("tamper");
    let reference = record_reference(&path, 2, false, &None, 1);
    let mut tampered = reference.bytes.clone();
    let mid = tampered.len() / 2;
    tampered[mid] ^= 0x5a;
    std::fs::write(&path, &tampered).unwrap();

    let mut journal = Journal::resume(&path, 1).expect("tampered journal still resumes");
    let (outputs, timings) =
        run_with_journal(2, false, &None, DATA_SEED, &mut journal).expect("resumed run");
    let replayed = journal.replayed();
    drop(journal);
    assert!(
        (replayed as usize) < reference.offsets.len() - 1,
        "corruption must shorten the replay prefix"
    );
    assert_eq!(outputs, reference.outputs);
    assert_eq!(timings, reference.timings);
    assert_eq!(std::fs::read(&path).unwrap(), reference.bytes);
}

#[test]
fn resume_on_an_empty_journal_is_a_fresh_run() {
    let path = tmp("empty");
    let reference = record_reference(&path, 2, false, &None, 1);
    std::fs::write(&path, b"").unwrap();
    let mut journal = Journal::resume(&path, 1).expect("empty journal resumes");
    let (outputs, timings) =
        run_with_journal(2, false, &None, DATA_SEED, &mut journal).expect("fresh run");
    assert_eq!(journal.replayed(), 0);
    drop(journal);
    assert_eq!(outputs, reference.outputs);
    assert_eq!(timings, reference.timings);
    assert_eq!(std::fs::read(&path).unwrap(), reference.bytes);
}

/// Byte length and FNV-1a of the journal `record` writes to a fresh file.
fn journal_digest(name: &str, record: impl FnOnce(&mut Journal)) -> (usize, u64) {
    let path = tmp(name);
    let mut journal = Journal::create(&path, 1).expect("create journal");
    record(&mut journal);
    drop(journal);
    let bytes = std::fs::read(&path).unwrap();
    (bytes.len(), fnv1a(&bytes))
}

#[test]
fn journal_bytes_match_the_build_that_introduced_the_format() {
    // Every other test here proves resumed == uninterrupted *within* a
    // build. This one pins the bytes themselves — recorded on the commit
    // before the engine became a staged `Run`, and re-recorded when the
    // format's content hashes moved from FNV-1a to XXH64 (decoded, the
    // earlier journals agree with these in every tag and every field but
    // the hashes) — so a journal written by an earlier build of the same
    // format still verify-replays: one small fixed job per map mode on 4
    // ranks, with a kill (GpuLost/Requeue), an elastic add
    // (GpuAdded/Steal) and a 3-round drive (RoundStart/RoundEnd).
    let tuning = EngineTuning::default();
    let tel = Telemetry::disabled();
    let data = sio::generate_integers(DATA_N, DATA_SEED);
    let sio_cases = [
        (
            "golden_sio_plain_kill",
            SioMode::Plain,
            Some(FaultPlan::new().kill(1, 3e-4)),
            (2137, 0x7a36_60b8_1cb6_f59f),
        ),
        (
            "golden_sio_partial_reduce",
            SioMode::PartialReduce,
            None,
            (1946, 0x7819_7666_dcdf_d282),
        ),
        (
            "golden_sio_combine",
            SioMode::Combine,
            None,
            (1946, 0x0666_fd83_d415_b4e3),
        ),
        (
            "golden_sio_plain_elastic",
            SioMode::Plain,
            Some(FaultPlan::new().add(3, 2e-4)),
            (1980, 0x6e7d_dfbb_393a_8d9d),
        ),
    ];
    for (name, mode, plan, expect) in sio_cases {
        let got = journal_digest(name, |journal| {
            run_job_journaled(
                &mut cluster(4, &plan),
                &SioJob::with_mode(mode),
                sio_chunks(&data, 2 * 1024),
                &tuning,
                &tel,
                journal,
            )
            .expect("golden sio run");
        });
        assert_eq!(got, expect, "{name}: journal (len, fnv1a) drifted");
    }

    let got = journal_digest("golden_wo_accumulate_kill", |journal| {
        let dict = Arc::new(Dictionary::generate(300, 11));
        let text = generate_text(&dict, 120_000, 12);
        run_job_journaled(
            &mut cluster(4, &Some(FaultPlan::new().kill(2, 1.5e-3))),
            &WoJob::new(dict, 4),
            chunk_text(&text, 8 * 1024),
            &tuning,
            &tel,
            journal,
        )
        .expect("golden wo run");
    });
    assert_eq!(got, (1387, 0x7cb9_3d4a_9295_cf92), "wo accumulate + kill");

    let got = journal_digest("golden_kmeans_3_rounds", |journal| {
        let points = generate_points(8_000, 4, 33);
        let mut driver = KmcRounds::new(initial_centers(4, 34), 3, 0.0);
        let res = run_rounds(
            &mut cluster(4, &None),
            &mut driver,
            SliceChunk::split(&points, 1024),
            &tuning,
            &tel,
            Some(journal),
        )
        .expect("golden kmeans drive");
        assert_eq!(res.rounds, 3);
    });
    assert_eq!(got, (2844, 0x610e_f822_1960_36c1), "kmeans, 3 rounds");

    // Recorded when MM moved onto the round driver.
    let got = journal_digest("golden_mm_2_rounds", |journal| {
        run_mm_with_journal(journal);
    });
    assert_eq!(got, (2664, 0xbba5_e6d5_a3ea_d6cc), "mm, 2 rounds");
}

/// Shared reference for the proptest below (recording it once keeps the
/// 32 cases cheap). The fault plan exercises loss/requeue records too.
fn torn_reference() -> &'static (PathBuf, Reference) {
    static REF: OnceLock<(PathBuf, Reference)> = OnceLock::new();
    REF.get_or_init(|| {
        let path = tmp("torn_prop_ref");
        let plan = Some(FaultPlan::new().kill(1, 5e-4));
        let reference = record_reference(&path, 2, false, &plan, 1);
        (path, reference)
    })
}

/// The MM drive's product and clock bits and journal bytes, for the same
/// proptest.
fn torn_mm_reference() -> &'static (MmBits, Vec<u8>) {
    static REF: OnceLock<(MmBits, Vec<u8>)> = OnceLock::new();
    REF.get_or_init(|| {
        let path = tmp("torn_prop_mm_ref");
        let mut journal = Journal::create(&path, 1).expect("create journal");
        let run = run_mm_with_journal(&mut journal);
        drop(journal);
        (run, std::fs::read(&path).unwrap())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Truncating the journal at ANY byte offset — record boundaries and
    /// torn mid-record writes alike — must resume to a bit-identical job.
    #[test]
    fn torn_writes_at_any_byte_offset_self_heal(cut_sel in any::<u64>()) {
        let (_, reference) = torn_reference();
        let plan = Some(FaultPlan::new().kill(1, 5e-4));
        let cut = (cut_sel % reference.bytes.len() as u64) as usize;
        // Each case gets its own file: proptest cases share the process.
        let path = tmp(&format!("torn_prop_{cut}"));
        std::fs::write(&path, &reference.bytes[..cut]).unwrap();

        let mut journal = Journal::resume(&path, 1).expect("torn journal resumes");
        let at_boundary = reference.offsets.iter().any(|&o| o as usize == cut);
        prop_assert_eq!(
            journal.torn_bytes() > 0,
            !at_boundary,
            "torn byte accounting wrong for cut {}", cut
        );
        let (outputs, timings) =
            run_with_journal(2, false, &plan, DATA_SEED, &mut journal).expect("resumed run");
        drop(journal);
        prop_assert_eq!(&outputs, &reference.outputs, "outputs diverged at cut {}", cut);
        prop_assert_eq!(&timings, &reference.timings, "timings diverged at cut {}", cut);
        prop_assert_eq!(
            &std::fs::read(&path).unwrap(),
            &reference.bytes,
            "journal bytes diverged at cut {}", cut
        );
        std::fs::remove_file(&path).ok();

        // The same for MM's two-round drive, cut at the same fraction.
        let (mm_run, mm_bytes) = torn_mm_reference();
        let cut = (cut_sel % mm_bytes.len() as u64) as usize;
        let path = tmp(&format!("torn_prop_mm_{cut}"));
        std::fs::write(&path, &mm_bytes[..cut]).unwrap();
        let mut journal = Journal::resume(&path, 1).expect("torn mm journal resumes");
        let resumed = run_mm_with_journal(&mut journal);
        drop(journal);
        prop_assert_eq!(&resumed, mm_run, "mm product or clock diverged at cut {}", cut);
        prop_assert_eq!(&std::fs::read(&path).unwrap(), mm_bytes, "mm journal diverged at cut {}", cut);
        std::fs::remove_file(&path).ok();
    }
}

/// One record of every kind, in tag order.
fn every_record_kind() -> Vec<JournalRecord> {
    use JournalRecord::*;
    #[rustfmt::skip]
    let records = vec![
        JobStart { fingerprint: 0xdead_beef, n_chunks: 4, ranks: 3, reducers: 2 },
        ChunkDispatch { chunk_id: 0, rank: 0 },
        ChunkCommit { chunk_id: 0, rank: 0, pairs: 17, hash: 42 },
        Steal { chunk_id: 3, victim: 1, thief: 2 },
        Requeue { chunk_id: 1, from: 1, to: 2 },
        GpuLost { rank: 1 },
        GpuAdded { rank: 2 },
        BinSorted { rank: 0, pairs: 17, unique: 5, hash: 7 },
        BinReduced { rank: 0, pairs: 5, hash: 9 },
        JobEnd { output_hash: 11, makespan_bits: 2.5f64.to_bits() },
        RoundStart { round: 3, control_hash: 0xc0ff_ee00 },
        RoundEnd { round: 3, output_hash: 13, clock_bits: 7.25f64.to_bits() },
    ];
    records
}

/// `payload` framed as the journal frames a record: length, FNV-1a, bytes.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut f = (payload.len() as u32).to_le_bytes().to_vec();
    f.extend(fnv1a(payload).to_le_bytes());
    f.extend(payload);
    f
}

/// The reader's contract on any bytes: `scan_bytes` stops at a frame
/// boundary, what it accepts re-records to exactly the bytes before that
/// boundary, and `Journal::resume` trims exactly the rest. Returns the
/// valid prefix length.
fn check_reader(path: &PathBuf, bytes: &[u8]) -> usize {
    let (records, offsets) = scan_bytes(bytes);
    assert_eq!((offsets.len(), offsets[0]), (records.len() + 1, 0));
    for w in offsets.windows(2) {
        let at = w[0] as usize;
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        assert_eq!(
            w[1],
            w[0] + 12 + u64::from(len),
            "offset {at} is not a frame boundary"
        );
    }
    let valid = *offsets.last().unwrap() as usize;
    let mut journal = Journal::create(path, 1).unwrap();
    for rec in &records {
        journal.record(rec).unwrap();
    }
    drop(journal);
    assert_eq!(std::fs::read(path).unwrap(), &bytes[..valid]);
    std::fs::write(path, bytes).unwrap();
    let journal = Journal::resume(path, 1).expect("any bytes resume");
    assert_eq!(journal.torn_bytes(), (bytes.len() - valid) as u64);
    valid
}

/// One to three seeded mutations of `base`, whose frames start at `offsets`.
fn mutate(rng: &mut SmallRng, base: &[u8], offsets: &[u64]) -> Vec<u8> {
    let mut b = base.to_vec();
    let frame_at = |rng: &mut SmallRng, k: usize| offsets[rng.gen_range(0..k)] as usize;
    for _ in 0..rng.gen_range(1..=3) {
        match rng.gen_range(0..5) {
            0 if !b.is_empty() => {
                let i = rng.gen_range(0..b.len());
                b[i] ^= rng.gen_range(1..=255u8);
            }
            1 => b.truncate(rng.gen_range(0..=b.len())),
            2 => {
                let at = frame_at(rng, offsets.len() - 1);
                let len = if rng.gen_bool(0.5) { 0 } else { u32::MAX };
                if at + 4 <= b.len() {
                    b[at..at + 4].copy_from_slice(&len.to_le_bytes());
                }
            }
            3 => {
                let k = rng.gen_range(0..offsets.len() - 1);
                let dup = base[offsets[k] as usize..offsets[k + 1] as usize].to_vec();
                let at = frame_at(rng, offsets.len()).min(b.len());
                b.splice(at..at, dup);
            }
            _ => {
                let garbage: Vec<u8> = (0..rng.gen_range(1..=64))
                    .map(|_| rng.gen_range(0..=255u8))
                    .collect();
                let at = rng.gen_range(0..=b.len());
                b.splice(at..at, garbage);
            }
        }
    }
    b
}

#[test]
fn the_journal_reader_takes_any_bytes() {
    // Seeded mutations of two bases — a recorded job's journal and one
    // record of every kind — then hand-framed records the codec refuses.
    let path = tmp("reader_fuzz");
    let mut kinds = Journal::create(&path, 1).unwrap();
    for rec in &every_record_kind() {
        kinds.record(rec).unwrap();
    }
    drop(kinds);
    let kinds = std::fs::read(&path).unwrap();
    assert_eq!(scan_bytes(&kinds).0, every_record_kind());
    let recorded = &torn_reference().1;
    let mut inputs = 0;
    for (base, seed) in [(&recorded.bytes, 1), (&kinds, 2)] {
        let offsets = scan_bytes(base).1;
        assert_eq!(check_reader(&path, base), base.len());
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..300 {
            check_reader(&path, &mutate(&mut rng, base, &offsets));
            inputs += 1;
        }
        // A checksummed frame whose tag is unknown or whose payload is one
        // byte short or long ends the valid prefix where it starts.
        for k in 0..offsets.len() - 1 {
            let (at, end) = (offsets[k] as usize, offsets[k + 1] as usize);
            let payload = &base[at + 12..end];
            let mut bad: Vec<Vec<u8>> = [0u8, 13, 255]
                .iter()
                .map(|&tag| [&[tag], &payload[1..]].concat())
                .collect();
            bad.push(payload[..payload.len() - 1].to_vec());
            bad.push([payload, &[0]].concat());
            for p in bad {
                let bytes = [&base[..at], &frame(&p), &base[end..]].concat();
                assert_eq!(check_reader(&path, &bytes), at, "frame {k}, payload {p:?}");
                inputs += 1;
            }
        }
    }
    assert!(inputs >= 512, "{inputs} inputs");
    std::fs::remove_file(&path).ok();
}
