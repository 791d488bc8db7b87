//! Stepping is invisible: a [`Run`] stepped to any increasing instants
//! and then finished computes exactly what one `run_job_with` call does —
//! the outputs, the makespan's bits, every `JobTimings` field, the
//! telemetry recording and the journal's bytes — for the four engine apps
//! and the job service's batched SIO job, with and without faults.

use std::fmt::Debug;
use std::sync::Arc;

use gpmr::apps::kmc::{generate_points, initial_centers};
use gpmr::apps::lr::generate_samples;
use gpmr::apps::sio::{generate_integers, sio_chunks};
use gpmr::apps::text::{chunk_text, generate_text};
use gpmr::core::{run_job_with, Journal, Run, RunOpts};
use gpmr::prelude::*;
use gpmr::service::batch::tag_chunks;
use gpmr::service::SioBatchJob;
use gpmr::sim_gpu::FaultPlan;
use gpmr::telemetry::{export, Telemetry};
use proptest::prelude::*;

/// What a run leaves behind: its result, its recording as JSONL, and the
/// bytes of its journal.
type Record<J> = (
    JobResult<<J as GpmrJob>::Key, <J as GpmrJob>::Value>,
    String,
    Vec<u8>,
);

/// Run `job` over `chunks` on a fresh 4-GPU cluster under `plan`, in one
/// call or stepped to each of `steps` (seconds) before finishing.
fn record<J: GpmrJob>(
    job: &J,
    chunks: Vec<J::Chunk>,
    plan: &str,
    steps: Option<&[f64]>,
) -> Record<J> {
    let mut cluster = Cluster::accelerator(4, GpuSpec::gt200());
    cluster.set_fault_plan(Some(FaultPlan::parse(plan).expect("plan parses")));
    let tel = Telemetry::enabled();
    let name = format!(
        "gpmr_stepping_{}_{}.gpj",
        std::process::id(),
        steps.is_some()
    );
    let path = std::env::temp_dir().join(name);
    let mut journal = Journal::create(&path, 4).expect("journal file");
    let mut opts = RunOpts {
        tel: tel.clone(),
        journal: Some(&mut journal),
        ..RunOpts::default()
    };
    let result = match steps {
        None => run_job_with(&mut cluster, job, chunks, opts),
        Some(steps) => {
            let mut run = Run::new(&mut cluster, job, chunks, &mut opts).expect("run starts");
            for &t in steps {
                let (journal, at) = (opts.journal.as_deref_mut(), SimTime::from_secs(t));
                run.step_until(&mut cluster, job, journal, at)
                    .expect("steps");
            }
            run.finish(&mut cluster, job, opts.journal)
        }
    }
    .expect("run finishes");
    drop(journal);
    let bytes = std::fs::read(&path).expect("journal written");
    std::fs::remove_file(&path).expect("journal removed");
    (result, export::to_jsonl(&tel.snapshot()), bytes)
}

/// Stepping `job` to `fracs` of its makespan changes nothing it computes.
fn stepping_is_invisible<J: GpmrJob>(job: &J, chunks: Vec<J::Chunk>, plan: &str, fracs: &[f64])
where
    J::Chunk: Clone,
    KvSet<J::Key, J::Value>: PartialEq + Debug,
{
    let (once, once_tel, once_journal) = record(job, chunks.clone(), plan, None);
    let makespan = once.timings.total.as_secs();
    let mut steps: Vec<f64> = fracs.iter().map(|f| f * makespan).collect();
    steps.sort_by(f64::total_cmp);
    let (stepped, stepped_tel, stepped_journal) = record(job, chunks, plan, Some(&steps));
    assert_eq!(stepped.outputs, once.outputs, "outputs, steps {steps:?}");
    assert_eq!(
        stepped.timings.total.as_secs().to_bits(),
        makespan.to_bits(),
        "makespan, steps {steps:?}"
    );
    assert_eq!(stepped.timings, once.timings, "timings, steps {steps:?}");
    assert!(stepped_tel == once_tel, "recording, steps {steps:?}");
    assert!(stepped_journal == once_journal, "journal, steps {steps:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn a_stepped_run_computes_what_one_call_computes(
        fracs in prop::collection::vec(0.0f64..1.2, 0..10),
        seed in 0u64..1_000,
    ) {
        // SIO, fault-free and losing a GPU while another stalls.
        let ints = generate_integers(30_000, seed);
        for plan in ["", "kill:1@9e-4;stall:2@6e-4+3e-4"] {
            stepping_is_invisible(&SioJob::default(), sio_chunks(&ints, 8 * 1024), plan, &fracs);
        }
        // WO, in accumulate mode.
        let dict = Arc::new(Dictionary::generate(256, seed));
        let text = generate_text(&dict, 60_000, seed);
        let wo = WoJob::new(Arc::clone(&dict), 4);
        stepping_is_invisible(&wo, chunk_text(&text, 8 * 1024), "", &fracs);
        // KMC and LR, whose reducers fold `f64` sums.
        let points = generate_points(8_000, 4, seed);
        let kmc = KmcJob::new(initial_centers(4, seed));
        stepping_is_invisible(&kmc, SliceChunk::split(&points, 1_024), "", &fracs);
        let samples = generate_samples(8_000, 2.0, 1.0, seed);
        stepping_is_invisible(&LrJob, SliceChunk::split(&samples, 1_024), "", &fracs);
        // The job service's batched SIO pass over two members.
        let mut batch = tag_chunks(0, 0, sio_chunks(&ints[..12_000], 8 * 1024));
        let first = batch.len() as u32;
        batch.extend(tag_chunks(1, first, sio_chunks(&ints[12_000..], 8 * 1024)));
        stepping_is_invisible(&SioBatchJob, batch, "", &fracs);
    }
}
