//! Seeded byte mutations of what the text readers read: the JSON reader
//! (`telemetry::json::parse`), a perf baseline set
//! (`BaselineSet::from_json`, from `BENCH_PR6.json`), a recording
//! (`export::snapshot_from_jsonl`, from a 2-GPU SIO run recorded here) and
//! a workload script (`service::parse`, from the three in `workloads/`).
//! Every mutant must read as `Ok` or as a typed `Err` that says something;
//! none may panic. The mutations follow `checkpoint_resume.rs::mutate`:
//! a flipped byte, a cut, a hostile token at a random byte, a copied
//! frame (here the text between two separators) and random bytes.

use std::fmt::Display;
use std::panic::{catch_unwind, AssertUnwindSafe};

use gpmr::core::{run_job_instrumented, EngineTuning};
use gpmr::prelude::*;
use gpmr::service;
use gpmr::telemetry::baseline::BaselineSet;
use gpmr::telemetry::{export, json, Telemetry};
use gpmr_apps::sio::{generate_integers, sio_chunks};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Values at the edges of what the grammars read.
const HOSTILE: &[&str] = &[
    "0",
    "-1",
    "-0",
    "1e309",
    "-1e309",
    "NaN",
    "inf",
    "18446744073709551616",
    "4294967296",
    "\"",
    "\\",
    "\\u",
    "\\ud800",
    "[",
    "]",
    "{",
    "}",
    ",",
    ":",
    "=",
    "#",
    "null",
    "true",
    "\n",
];

/// The offsets at which a frame of `base` starts: 0, every byte after a
/// separator (newline, comma, brace or bracket), and the end.
fn frames(base: &[u8]) -> Vec<usize> {
    let mut at = vec![0];
    let after = |i: usize| matches!(base[i - 1], b'\n' | b',' | b'{' | b'[');
    at.extend((1..base.len()).filter(|&i| after(i)));
    at.push(base.len());
    at
}

/// One to three mutations of `base`, read back as text (invalid UTF-8
/// becomes U+FFFD, which the readers must take too).
fn mutate(rng: &mut SmallRng, base: &[u8], frames: &[usize]) -> String {
    let mut b = base.to_vec();
    for _ in 0..rng.gen_range(1..=3) {
        match rng.gen_range(0..5) {
            0 if !b.is_empty() => {
                let i = rng.gen_range(0..b.len());
                b[i] ^= rng.gen_range(1..=255u8);
            }
            1 => b.truncate(rng.gen_range(0..=b.len())),
            2 => {
                let token = HOSTILE[rng.gen_range(0..HOSTILE.len())].as_bytes();
                let at = rng.gen_range(0..=b.len());
                b.splice(at..at, token.iter().copied());
            }
            3 => {
                let k = rng.gen_range(0..frames.len() - 1);
                let dup = base[frames[k]..frames[k + 1]].to_vec();
                let at = frames[rng.gen_range(0..frames.len())].min(b.len());
                b.splice(at..at, dup);
            }
            _ => {
                let garbage: Vec<u8> = (0..rng.gen_range(1..=16))
                    .map(|_| rng.gen_range(0..=255u8))
                    .collect();
                let at = rng.gen_range(0..=b.len());
                b.splice(at..at, garbage);
            }
        }
    }
    String::from_utf8_lossy(&b).into_owned()
}

/// Read each of `bases` and `n` seeded mutants of each with `read`: every
/// base must read, every mutant read or fail with a message, and some
/// mutants must fail (so the mutations reach the reader's checks).
fn survives<T, E: Display>(
    seed: u64,
    bases: &[String],
    n: usize,
    read: impl Fn(&str) -> Result<T, E>,
) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let (mut refused, mut panicked) = (0, Vec::new());
    for base in bases {
        if let Err(e) = read(base) {
            panic!("a base does not read: {e}");
        }
        let frames = frames(base.as_bytes());
        for _ in 0..n {
            let text = mutate(&mut rng, base.as_bytes(), &frames);
            match catch_unwind(AssertUnwindSafe(|| {
                read(&text).err().map(|e| e.to_string())
            })) {
                Ok(None) => {}
                Ok(Some(msg)) => {
                    assert!(!msg.is_empty(), "an empty error for {text:?}");
                    refused += 1;
                }
                Err(_) => panicked.push(text),
            }
        }
    }
    let total = n * bases.len();
    assert!(
        panicked.is_empty(),
        "{} of {total} mutants panicked, first: {:?}",
        panicked.len(),
        panicked[0]
    );
    assert!(refused > 0, "none of {total} mutants was refused");
}

fn bench_pr6() -> String {
    std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_PR6.json")).unwrap()
}

/// The recording of a 2-GPU SIO run.
fn recording() -> String {
    let data = generate_integers(20_000, 5);
    let mut cluster = Cluster::accelerator(2, GpuSpec::gt200());
    let tel = Telemetry::enabled();
    let job = SioJob::default();
    let chunks = sio_chunks(&data, 16 * 1024);
    run_job_instrumented(&mut cluster, &job, chunks, &EngineTuning::default(), &tel)
        .expect("the SIO run finishes");
    export::to_jsonl(&tel.snapshot())
}

#[test]
fn the_json_reader_survives_mutated_documents() {
    // A baseline set and every eighth line of a recording, each a JSON
    // document.
    let mut bases = vec![bench_pr6()];
    bases.extend(recording().lines().step_by(8).map(str::to_string));
    survives(1, &bases, 12_000 / bases.len(), json::parse);
}

#[test]
fn a_baseline_set_survives_mutation() {
    survives(2, &[bench_pr6()], 5_000, BaselineSet::from_json);
}

#[test]
fn a_recording_survives_mutation() {
    survives(3, &[recording()], 1_000, export::snapshot_from_jsonl);
}

#[test]
fn a_workload_script_survives_mutation() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/workloads");
    let bases: Vec<String> = ["service_demo", "slo_overload", "slo_overload_batch"]
        .iter()
        .map(|w| std::fs::read_to_string(format!("{dir}/{w}.wl")).unwrap())
        .collect();
    survives(4, &bases, 4_000, service::parse);
}
