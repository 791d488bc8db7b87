//! Multi-tenant job-service suite: the acceptance workload (cancel, GPU
//! kill, batching, budget starvation, deadline miss, typed rejections),
//! bit-identity of every service-completed output against a standalone
//! `run_job` run, quota/fairness properties under arbitrary submission
//! interleavings, and a seeded chaos test mixing kills, stalls, journals,
//! deadlines, and cancels.

use std::sync::Arc;

use gpmr::apps::sio::{generate_integers, sio_chunks};
use gpmr::apps::text::{chunk_text, generate_text, Dictionary};
use gpmr::apps::{SioJob, WoJob};
use gpmr::core::{run_job, run_job_instrumented, JobResult, KvSet};
use gpmr::service::{
    run, run_script, Action, JobId, JobKind, JobService, JobSpec, JobStatus, ObsConfig,
    RejectReason, ServiceConfig, TenantConfig, Workload, DICT_CACHE_ENTRIES, MAX_DICT_WORDS,
    MAX_SIO_INTEGERS, MAX_WO_BYTES,
};
use gpmr::sim_gpu::{FaultPlan, GpuSpec};
use gpmr::sim_net::Cluster;
use gpmr::telemetry::{AlertRule, Telemetry};
use proptest::prelude::*;

const DEMO: &str = include_str!("../workloads/service_demo.wl");

/// Run a spec exactly as a standalone `run_job` user would: fresh
/// cluster, same deterministic input (a freshly built dictionary), same
/// fault plan.
fn standalone_result(spec: &JobSpec, gpus: u32) -> JobResult<u32, u32> {
    let mut cluster = Cluster::accelerator(gpus, GpuSpec::gt200());
    let mut plan: Option<FaultPlan> = None;
    if let Some((rank, at_s)) = spec.kill {
        plan = Some(plan.unwrap_or_default().kill(rank, at_s));
    }
    if let Some((rank, at_s, dur_s)) = spec.stall {
        plan = Some(plan.unwrap_or_default().stall(rank, at_s, dur_s));
    }
    cluster.set_fault_plan(plan);
    match spec.kind {
        JobKind::Sio { n, seed, chunk_kb } => {
            let data = generate_integers(n, seed);
            let chunks = sio_chunks(&data, chunk_kb * 1024);
            run_job(&mut cluster, &SioJob::default(), chunks).expect("standalone sio")
        }
        JobKind::Wo {
            bytes,
            dict_words,
            seed,
            chunk_kb,
        } => {
            let dict = Arc::new(Dictionary::generate(dict_words, seed));
            let text = generate_text(&dict, bytes, seed.wrapping_add(1));
            let chunks = chunk_text(&text, chunk_kb * 1024);
            run_job(&mut cluster, &WoJob::new(dict, gpus), chunks).expect("standalone wo")
        }
    }
}

fn standalone_outputs(spec: &JobSpec, gpus: u32) -> Vec<KvSet<u32, u32>> {
    standalone_result(spec, gpus).outputs
}

/// How many chunks a spec's input splits into.
fn chunk_count(spec: &JobSpec) -> u32 {
    match spec.kind {
        JobKind::Sio { n, seed, chunk_kb } => {
            sio_chunks(&generate_integers(n, seed), chunk_kb * 1024).len() as u32
        }
        JobKind::Wo {
            bytes,
            dict_words,
            seed,
            chunk_kb,
        } => {
            let dict = Dictionary::generate(dict_words, seed);
            let text = generate_text(&dict, bytes, seed.wrapping_add(1));
            chunk_text(&text, chunk_kb * 1024).len() as u32
        }
    }
}

/// Assert a service job's stored outputs equal a standalone run's,
/// per-rank and bit-for-bit.
fn assert_outputs_match_standalone(svc: &JobService, id: JobId, gpus: u32) {
    let spec = svc.spec(id).expect("known job").clone();
    let standalone = standalone_outputs(&spec, gpus);
    let service = svc.outputs(id).expect("completed job has outputs");
    assert_eq!(
        service,
        &standalone[..],
        "{id} service outputs differ from standalone run_job"
    );
}

// --- the acceptance workload ---------------------------------------------

#[test]
fn demo_workload_hits_every_service_feature() {
    let (svc, report) =
        run_script(DEMO, ServiceConfig::default(), Telemetry::enabled()).expect("script runs");

    // job1: explicit mid-flight cancel, with the engine's conservation
    // accounting (committed + released covers the whole 15-chunk input).
    let s1 = svc.poll(JobId(1)).expect("job1");
    let JobStatus::Cancelled {
        chunks_committed,
        chunks_released,
        ..
    } = s1
    else {
        panic!("job1 should be cancelled, got {s1:?}");
    };
    assert_eq!(
        chunks_committed + chunks_released,
        chunk_count(svc.spec(JobId(1)).unwrap()),
        "cancel must account for every chunk"
    );
    assert!(
        chunks_released > 0,
        "a mid-flight cancel releases queued chunks"
    );

    // job3 + job4: batched into ONE cluster pass, visible in telemetry.
    for id in [JobId(3), JobId(4)] {
        let s = svc.poll(id).expect("batched job");
        assert!(
            matches!(s, JobStatus::Completed { batched: true, .. }),
            "{id} should complete batched, got {s:?}"
        );
    }
    let stats = svc.stats();
    assert_eq!(stats.batches_formed, 1);
    assert_eq!(stats.batched_jobs, 2);
    assert_eq!(svc.telemetry().counter("service.batches_formed").get(), 1);
    assert_eq!(svc.telemetry().counter("service.batched_jobs").get(), 2);

    // job5: bob's budget is exhausted by job2, so his queued job is
    // never dispatched — queued, not run, not rejected.
    assert_eq!(svc.poll(JobId(5)).expect("job5"), JobStatus::Queued);
    assert!(
        svc.tenant_spent("bob").unwrap() >= 0.005,
        "bob must actually be over budget"
    );

    // job6: missed its deadline mid-flight — the typed error carries the
    // deadline instant and conservation accounting.
    let s6 = svc.poll(JobId(6)).expect("job6");
    let JobStatus::DeadlineMissed {
        deadline_s,
        chunks_committed,
        chunks_released,
    } = s6
    else {
        panic!("job6 should be deadline-missed, got {s6:?}");
    };
    assert!((deadline_s - 0.0026).abs() < 1e-12);
    assert_eq!(
        chunks_committed + chunks_released,
        chunk_count(svc.spec(JobId(6)).unwrap())
    );

    // job7: lost GPU 1 mid-job and recovered to completion.
    assert!(matches!(
        svc.poll(JobId(7)).expect("job7"),
        JobStatus::Completed { .. }
    ));

    // Typed admission rejections.
    assert!(matches!(
        svc.poll(JobId(9)).expect("job9"),
        JobStatus::Rejected(RejectReason::UnknownTenant)
    ));
    assert!(matches!(
        svc.poll(JobId(10)).expect("job10"),
        JobStatus::Rejected(RejectReason::MemoryExceeded { .. })
    ));

    // Every completed job's outputs — including both batch members and
    // the kill-recovered job — are bit-identical to standalone runs.
    let mut completed = 0;
    for id in svc.job_ids().collect::<Vec<_>>() {
        if matches!(svc.poll(id), Ok(JobStatus::Completed { .. })) {
            assert_outputs_match_standalone(&svc, id, 4);
            completed += 1;
        }
    }
    assert!(completed >= 5, "demo should complete at least 5 jobs");

    // The report names every job.
    for id in svc.job_ids().collect::<Vec<_>>() {
        assert!(
            report.iter().any(|l| l.starts_with(&id.to_string())),
            "report missing a line for {id}"
        );
    }
}

// --- targeted behaviors --------------------------------------------------

#[test]
fn batching_requires_a_busy_pool_and_merges_compatible_jobs() {
    let cfg = ServiceConfig {
        engines: 1,
        ..ServiceConfig::default()
    };
    let mut svc = JobService::new(
        cfg,
        vec![TenantConfig::unlimited("t")],
        Telemetry::disabled(),
    );
    let blocker = svc.submit(JobSpec::new(
        "t",
        JobKind::Sio {
            n: 30_000,
            seed: 1,
            chunk_kb: 16,
        },
    ));
    let mut small = |seed| {
        let mut s = JobSpec::new(
            "t",
            JobKind::Sio {
                n: 5_000,
                seed,
                chunk_kb: 8,
            },
        );
        s.batchable = true;
        svc.submit(s)
    };
    let a = small(2);
    let b = small(3);
    let c = small(4);
    svc.drain();
    assert!(matches!(
        svc.poll(blocker).unwrap(),
        JobStatus::Completed { batched: false, .. }
    ));
    for id in [a, b, c] {
        assert!(
            matches!(
                svc.poll(id).unwrap(),
                JobStatus::Completed { batched: true, .. }
            ),
            "{id} should have batched"
        );
        assert_outputs_match_standalone(&svc, id, 4);
    }
    assert_eq!(svc.stats().batches_formed, 1);
    assert_eq!(svc.stats().batched_jobs, 3);
    assert_eq!(svc.stats().cluster_passes, 2, "blocker + one shared pass");
}

#[test]
fn concurrency_cap_queues_but_eventually_runs() {
    let mut svc = JobService::new(
        ServiceConfig::default(),
        vec![TenantConfig {
            name: "capped".into(),
            max_concurrent: 1,
            gpu_seconds: f64::INFINITY,
            mem_share: 1.0,
        }],
        Telemetry::disabled(),
    );
    let kind = JobKind::Sio {
        n: 10_000,
        seed: 5,
        chunk_kb: 16,
    };
    let first = svc.submit(JobSpec::new("capped", kind));
    let second = svc.submit(JobSpec::new("capped", kind));
    assert!(matches!(
        svc.poll(first).unwrap(),
        JobStatus::Running { .. }
    ));
    assert_eq!(
        svc.poll(second).unwrap(),
        JobStatus::Queued,
        "cap 1 means the second job waits even with a free engine"
    );
    svc.drain();
    let JobStatus::Completed { wait_s, .. } = svc.poll(second).unwrap() else {
        panic!("second job should complete once the cap frees");
    };
    assert!(wait_s > 0.0, "the capped job must have waited");
}

#[test]
fn queue_full_rejects_with_depth() {
    let cfg = ServiceConfig {
        engines: 1,
        max_queue_depth: 2,
        ..ServiceConfig::default()
    };
    let mut svc = JobService::new(
        cfg,
        vec![TenantConfig {
            name: "t".into(),
            max_concurrent: 1,
            gpu_seconds: f64::INFINITY,
            mem_share: 1.0,
        }],
        Telemetry::disabled(),
    );
    let kind = JobKind::Sio {
        n: 5_000,
        seed: 1,
        chunk_kb: 16,
    };
    let _running = svc.submit(JobSpec::new("t", kind));
    let _q1 = svc.submit(JobSpec::new("t", kind));
    let _q2 = svc.submit(JobSpec::new("t", kind));
    let over = svc.submit(JobSpec::new("t", kind));
    assert!(matches!(
        svc.poll(over).unwrap(),
        JobStatus::Rejected(RejectReason::QueueFull { depth: 2, max: 2 })
    ));
}

#[test]
fn empty_dictionary_is_rejected_not_dispatched() {
    // A `dict_words: 0` spec built through the API (the workload parser
    // refuses it earlier) must not reach the text generator, where it
    // used to panic the service and every tenant on it.
    let mut svc = JobService::new(
        ServiceConfig::default(),
        vec![TenantConfig::unlimited("t")],
        Telemetry::disabled(),
    );
    let empty = svc.submit(JobSpec::new(
        "t",
        JobKind::Wo {
            bytes: 4096,
            dict_words: 0,
            seed: 1,
            chunk_kb: 16,
        },
    ));
    let fine = svc.submit(JobSpec::new(
        "t",
        JobKind::Wo {
            bytes: 4096,
            dict_words: 1,
            seed: 1,
            chunk_kb: 16,
        },
    ));
    svc.drain();
    assert_eq!(
        svc.poll(empty).unwrap(),
        JobStatus::Rejected(RejectReason::EmptyDictionary)
    );
    assert!(matches!(
        svc.poll(fine).unwrap(),
        JobStatus::Completed { .. }
    ));
}

#[test]
fn oversized_generated_inputs_are_rejected_not_allocated() {
    // `dict=18446744073709551615` used to reach `HashSet::with_capacity`
    // ("Hash table capacity overflow") and `n=4000000000000000000`
    // `Vec::with_capacity` ("capacity overflow"): one tenant's line took
    // the process, and every other tenant's jobs, down with it.
    let huge_n = 4_000_000_000_000_000_000usize;
    let oversized = [
        (
            JobKind::Sio {
                n: huge_n,
                seed: 1,
                chunk_kb: 16,
            },
            ("n", huge_n, MAX_SIO_INTEGERS),
        ),
        (
            JobKind::Wo {
                bytes: 4096,
                dict_words: usize::MAX,
                seed: 1,
                chunk_kb: 16,
            },
            ("dict", usize::MAX, MAX_DICT_WORDS),
        ),
        (
            JobKind::Wo {
                bytes: usize::MAX,
                dict_words: 64,
                seed: 1,
                chunk_kb: 16,
            },
            ("bytes", usize::MAX, MAX_WO_BYTES),
        ),
    ];
    let mut svc = JobService::new(
        ServiceConfig::default(),
        vec![TenantConfig::unlimited("t")],
        Telemetry::disabled(),
    );
    let refused: Vec<JobId> = oversized
        .iter()
        .map(|(kind, _)| svc.submit(JobSpec::new("t", *kind)))
        .collect();
    let fine = svc.submit(JobSpec::new(
        "t",
        JobKind::Sio {
            n: 2_000,
            seed: 1,
            chunk_kb: 4,
        },
    ));
    svc.drain();
    for (id, (_, (field, value, max))) in refused.iter().zip(&oversized) {
        assert_eq!(
            svc.poll(*id).unwrap(),
            JobStatus::Rejected(RejectReason::InputTooLarge {
                field,
                value: *value as u64,
                max: *max as u64,
            })
        );
    }
    assert!(matches!(
        svc.poll(fine).unwrap(),
        JobStatus::Completed { .. }
    ));
    // The bounds themselves are admissible (not run here: a gibibyte).
    for kind in [
        JobKind::Sio {
            n: MAX_SIO_INTEGERS,
            seed: 1,
            chunk_kb: 16,
        },
        JobKind::Wo {
            bytes: MAX_WO_BYTES,
            dict_words: MAX_DICT_WORDS,
            seed: 1,
            chunk_kb: 16,
        },
    ] {
        assert_eq!(kind.input_too_large(), None);
    }

    // A script is refused whole, with the offending line.
    let script = "tenant t\n\
                  at 0 submit t sio n=100\n\
                  at 0 submit t wo bytes=4096 dict=18446744073709551615 seed=1\n";
    let e = run_script(script, ServiceConfig::default(), Telemetry::disabled())
        .err()
        .expect("oversized dict is a parse error");
    assert_eq!(e.line, 3);
    assert!(e.to_string().contains("dict=18446744073709551615"), "{e}");
}

#[test]
fn text_seed_wraps_at_the_largest_seed() {
    // The text generator is seeded with `seed + 1`; at `u64::MAX` that
    // overflowed (a panic in debug builds). It wraps, and the service
    // computes what a stand-alone run over the same inputs computes.
    let mut svc = JobService::new(
        ServiceConfig::default(),
        vec![TenantConfig::unlimited("t")],
        Telemetry::disabled(),
    );
    let id = svc.submit(JobSpec::new(
        "t",
        JobKind::Wo {
            bytes: 16_384,
            dict_words: 128,
            seed: u64::MAX,
            chunk_kb: 8,
        },
    ));
    svc.drain();
    assert!(matches!(svc.poll(id).unwrap(), JobStatus::Completed { .. }));
    assert_outputs_match_standalone(&svc, id, 4);
}

#[test]
fn dictionary_cache_evicts_rebuilds_and_never_mis_shares() {
    // More distinct (dict, seed) pairs than the cache holds, visited
    // twice in the same order: a least-recently-used cache misses every
    // time, so each dictionary is evicted and rebuilt. Pairs share a
    // size or a seed with a neighbour, so a dictionary handed to the
    // wrong job changes that job's output. Some jobs journal, one is
    // cancelled mid-flight.
    let distinct = DICT_CACHE_ENTRIES + 5;
    let kind_of = |i: usize| JobKind::Wo {
        bytes: 8_192,
        dict_words: 64 + 16 * (i % 3),
        seed: (i / 2) as u64,
        chunk_kb: 4,
    };
    let kinds: Vec<JobKind> = (0..distinct).map(kind_of).collect();
    let pairs: std::collections::BTreeSet<(usize, u64)> =
        (0..distinct).map(|i| (i % 3, (i / 2) as u64)).collect();
    assert_eq!(pairs.len(), distinct, "the pairs are distinct");
    let run = |kinds: &[JobKind]| {
        let mut svc = JobService::new(
            ServiceConfig::default(),
            vec![TenantConfig::unlimited("t")],
            Telemetry::disabled(),
        );
        let mut ids = Vec::new();
        for (j, kind) in kinds.iter().enumerate() {
            svc.advance_to(j as f64 * 0.002);
            let mut spec = JobSpec::new("t", *kind);
            spec.journal = j % 7 == 3;
            ids.push(svc.submit(spec));
        }
        svc.drain();
        (svc, ids)
    };

    let twice: Vec<JobKind> = kinds.iter().chain(&kinds).copied().collect();
    let (svc, ids) = run(&twice);
    assert_eq!(
        svc.stats().dictionaries_built,
        2 * distinct as u64,
        "every dictionary was evicted before its second use"
    );
    for &id in &ids {
        let spec = svc.spec(id).unwrap().clone();
        // Cold reference: a stand-alone run over a freshly built dictionary.
        let cold = standalone_result(&spec, 4);
        let JobStatus::Completed {
            started_s,
            finished_s,
            ..
        } = svc.poll(id).unwrap()
        else {
            panic!("{id} did not complete");
        };
        assert_eq!(svc.outputs(id).unwrap(), &cold.outputs[..], "{id} outputs");
        assert_eq!(
            finished_s,
            started_s + cold.timings.total.as_secs(),
            "{id} simulated time"
        );
    }

    // Within capacity nothing is rebuilt: the second visit, and the job
    // cancelled mid-flight, are hits.
    let few: Vec<JobKind> = kinds[..4].iter().chain(&kinds[..4]).copied().collect();
    let (mut svc, ids) = run(&few);
    assert_eq!(svc.stats().dictionaries_built, 4);
    let victim = svc.submit(JobSpec::new("t", kinds[0]));
    svc.advance_to(svc.now() + 0.0002);
    svc.cancel(victim).expect("running job cancels");
    assert!(matches!(
        svc.poll(victim).unwrap(),
        JobStatus::Cancelled { chunks_released, .. } if chunks_released > 0
    ));
    assert_eq!(svc.stats().dictionaries_built, 4);
    for (a, b) in ids[..4].iter().zip(&ids[4..]) {
        assert_eq!(svc.outputs(*a), svc.outputs(*b));
    }
}

#[test]
fn cancel_semantics_cover_queued_running_and_terminal() {
    let mut svc = JobService::new(
        ServiceConfig {
            engines: 1,
            ..ServiceConfig::default()
        },
        vec![TenantConfig::unlimited("t")],
        Telemetry::disabled(),
    );
    let kind = JobKind::Sio {
        n: 20_000,
        seed: 9,
        chunk_kb: 8,
    };
    let running = svc.submit(JobSpec::new("t", kind));
    let queued = svc.submit(JobSpec::new("t", kind));
    // Queued cancel: removed without ever touching an engine.
    svc.cancel(queued).expect("queued cancel");
    assert!(matches!(
        svc.poll(queued).unwrap(),
        JobStatus::Cancelled {
            chunks_committed: 0,
            chunks_released: 0,
            ..
        }
    ));
    // Running cancel mid-flight: conservation holds.
    svc.advance_to(0.0004);
    svc.cancel(running).expect("running cancel");
    let JobStatus::Cancelled {
        chunks_committed,
        chunks_released,
        ..
    } = svc.poll(running).unwrap()
    else {
        panic!("running job should be cancelled");
    };
    assert_eq!(
        chunks_committed + chunks_released,
        chunk_count(svc.spec(running).unwrap())
    );
    // Terminal jobs cannot be cancelled again.
    assert!(svc.cancel(running).is_err());
    assert!(svc.cancel(JobId(999)).is_err());
    // The tenant's concurrency slot was released.
    assert_eq!(svc.tenant_running("t"), Some(0));
}

// --- quotas and fairness under arbitrary interleavings -------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Under any interleaving of tenant submissions (and cancels), no
    /// tenant ever exceeds its concurrency quota, budget-gated dispatch
    /// never runs a job for an exhausted tenant, and every admitted job
    /// eventually reaches a terminal state — or stays queued only
    /// because its tenant's budget is spent.
    #[test]
    fn quotas_hold_under_any_interleaving(
        ops in prop::collection::vec(
            (0u8..4, 0u64..1_000, 1usize..5, 0u8..8),
            1..14,
        ),
    ) {
        let caps = [1u32, 2, 3];
        let budgets = [f64::INFINITY, 0.004, f64::INFINITY];
        let tenants: Vec<TenantConfig> = (0..3)
            .map(|i| TenantConfig {
                name: format!("t{i}"),
                max_concurrent: caps[i],
                gpu_seconds: budgets[i],
                mem_share: 1.0,
            })
            .collect();
        let mut svc = JobService::new(
            ServiceConfig { engines: 2, ..ServiceConfig::default() },
            tenants,
            Telemetry::disabled(),
        );
        let mut t = 0.0;
        let mut submitted: Vec<JobId> = Vec::new();
        let check_caps = |svc: &JobService| {
            for (i, cap) in caps.iter().enumerate() {
                let running = svc.tenant_running(&format!("t{i}")).unwrap();
                prop_assert!(
                    running <= *cap,
                    "tenant t{i} runs {running} > cap {cap}"
                );
            }
            Ok(())
        };
        for (tenant_sel, seed, size, action) in ops {
            t += 0.0002;
            svc.advance_to(t);
            check_caps(&svc)?;
            if action < 6 || submitted.is_empty() {
                let mut spec = JobSpec::new(
                    format!("t{}", tenant_sel % 3),
                    JobKind::Sio { n: size * 1500, seed, chunk_kb: 4 },
                );
                spec.priority = u32::from(action);
                spec.batchable = action % 2 == 0;
                if action == 5 {
                    spec.deadline_s = Some(0.0005);
                }
                submitted.push(svc.submit(spec));
            } else {
                let victim = submitted[(seed as usize) % submitted.len()];
                let _ = svc.cancel(victim); // terminal jobs legitimately refuse
            }
            check_caps(&svc)?;
        }
        svc.drain();
        check_caps(&svc)?;
        for id in submitted {
            let status = svc.poll(id).unwrap();
            match status {
                JobStatus::Completed { .. }
                | JobStatus::Cancelled { .. }
                | JobStatus::DeadlineMissed { .. }
                | JobStatus::Rejected(_) => {}
                JobStatus::Queued => {
                    let tenant = &svc.spec(id).unwrap().tenant;
                    let spent = svc.tenant_spent(tenant).unwrap();
                    let budget = budgets[tenant[1..].parse::<usize>().unwrap()];
                    prop_assert!(
                        spent >= budget,
                        "{id} still queued but tenant {tenant} has budget \
                         ({spent} < {budget})"
                    );
                }
                other => prop_assert!(false, "{id} in non-terminal state {other:?}"),
            }
        }
    }
}

// --- seeded chaos: kills + stalls + journals + deadlines + cancels -------

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// Nine jobs over three tenants, one every 0.3 ms, mixing kills, stalls,
/// journals, batching, deadlines and cancels of earlier jobs, drawn from
/// `chaos_seed`.
fn chaos_workload(chaos_seed: u64) -> Workload {
    let mut rng = chaos_seed;
    let tenants = vec![
        TenantConfig {
            name: "a".into(),
            max_concurrent: 2,
            gpu_seconds: f64::INFINITY,
            mem_share: 1.0,
        },
        TenantConfig {
            name: "b".into(),
            max_concurrent: 1,
            gpu_seconds: f64::INFINITY,
            mem_share: 1.0,
        },
        TenantConfig::unlimited("c"),
    ];
    let names = ["a", "b", "c"];
    let mut events = Vec::new();
    for i in 0..9 {
        let at = i as f64 * 0.0003;
        let kind = if lcg(&mut rng).is_multiple_of(3) {
            JobKind::Wo {
                bytes: 16_384 + (lcg(&mut rng) % 3) as usize * 8_192,
                dict_words: 128,
                seed: lcg(&mut rng),
                chunk_kb: 8,
            }
        } else {
            JobKind::Sio {
                n: 4_000 + (lcg(&mut rng) % 5) as usize * 2_000,
                seed: lcg(&mut rng),
                chunk_kb: 4,
            }
        };
        let mut spec = JobSpec::new(names[(lcg(&mut rng) % 3) as usize], kind);
        match lcg(&mut rng) % 5 {
            0 => spec.kill = Some(((lcg(&mut rng) % 4) as u32, 0.0002)),
            1 => spec.stall = Some(((lcg(&mut rng) % 4) as u32, 0.0001, 0.0004)),
            2 => spec.journal = true,
            3 => spec.batchable = true,
            _ => {}
        }
        if lcg(&mut rng).is_multiple_of(4) {
            spec.deadline_s = Some(0.0004 + (lcg(&mut rng) % 20) as f64 * 0.0002);
        }
        events.push((at, Action::Submit(spec)));
        if lcg(&mut rng).is_multiple_of(3) {
            let victim = (lcg(&mut rng) as usize) % (i + 1);
            events.push((at, Action::Cancel(JobId(victim as u64 + 1).to_string())));
        }
    }
    Workload { tenants, events }
}

#[test]
fn seeded_chaos_preserves_per_job_outputs() {
    for chaos_seed in [1u64, 7, 42] {
        let cfg = ServiceConfig {
            engines: 2,
            ..ServiceConfig::default()
        };
        let (svc, _) = run(&chaos_workload(chaos_seed), cfg, Telemetry::disabled());
        let ids: Vec<JobId> = svc.job_ids().collect();
        let mut completed = 0;
        for &id in &ids {
            match svc.poll(id).expect("known job") {
                JobStatus::Completed { .. } => {
                    // Per-job output invariance: multi-tenancy, faults in
                    // neighbor jobs, batching, and journaling must never
                    // change what a job computes.
                    assert_outputs_match_standalone(&svc, id, 4);
                    completed += 1;
                }
                JobStatus::Cancelled {
                    chunks_committed,
                    chunks_released,
                    at_s,
                } => {
                    let spec = svc.spec(id).unwrap();
                    // Conservation only when the job ran fault-free and
                    // was stopped mid-flight.
                    if spec.kill.is_none()
                        && spec.stall.is_none()
                        && chunks_committed + chunks_released > 0
                    {
                        assert_eq!(
                            chunks_committed + chunks_released,
                            chunk_count(spec),
                            "seed {chaos_seed}: {id} cancelled at {at_s} leaks chunks"
                        );
                    }
                }
                JobStatus::DeadlineMissed {
                    chunks_committed,
                    chunks_released,
                    ..
                } => {
                    let spec = svc.spec(id).unwrap();
                    if spec.kill.is_none()
                        && spec.stall.is_none()
                        && chunks_committed + chunks_released > 0
                    {
                        assert_eq!(
                            chunks_committed + chunks_released,
                            chunk_count(spec),
                            "seed {chaos_seed}: {id} deadline-missed leaks chunks"
                        );
                    }
                }
                JobStatus::Queued | JobStatus::Running { .. } => {
                    panic!("seed {chaos_seed}: {id} never reached a terminal state")
                }
                JobStatus::Failed { .. } | JobStatus::Rejected(_) => {}
            }
        }
        assert!(
            completed >= 3,
            "seed {chaos_seed}: chaos should still complete jobs (got {completed})"
        );
        // The chaos run is itself deterministic: replaying the same seed
        // gives the same statuses.
        let mut words: Vec<String> = Vec::new();
        for &id in &ids {
            words.push(svc.poll(id).unwrap().word().to_string());
        }
        assert_eq!(words.len(), ids.len());
    }
}

// --- polling granularity -------------------------------------------------

/// Everything a caller can observe of a service driven through `wl`: each
/// action's outcome, every job's status and outputs, the tallies, the SLO
/// report, the alerts and the postmortem documents. With `poll_s`, the
/// clock is also advanced every `poll_s` seconds before `until_s`, between
/// and after the script's actions, before the drain. Returns the drained
/// clock too.
fn observe(wl: &Workload, poll_s: Option<f64>, until_s: f64) -> (f64, Vec<String>) {
    let cfg = ServiceConfig {
        obs: ObsConfig {
            alerts: AlertRule::parse_list("misses: sum(service.deadline_missed) > 0").unwrap(),
            flight_capacity: 4096,
            ..ObsConfig::default()
        },
        ..ServiceConfig::default()
    };
    let mut svc = JobService::new(cfg, wl.tenants.clone(), Telemetry::enabled());
    let mut polled = 0.0;
    let mut poll_to = |svc: &mut JobService, t: f64| {
        while let Some(step) = poll_s.filter(|_| polled < t) {
            svc.advance_to(polled);
            polled += step;
        }
    };
    let mut seen = Vec::new();
    for (t, action) in &wl.events {
        poll_to(&mut svc, *t);
        svc.advance_to(*t);
        seen.push(match action {
            Action::Submit(spec) => {
                let id = svc.submit(spec.clone());
                format!("{:?}", svc.poll(id))
            }
            Action::Cancel(name) => format!("{:?}", svc.cancel(JobId::parse(name).unwrap())),
        });
    }
    poll_to(&mut svc, until_s);
    let drained_s = svc.drain();
    for id in svc.job_ids() {
        let status = svc.poll(id).unwrap();
        seen.push(format!("{id} {status:?} {:?}", svc.outputs(id)));
    }
    seen.push(format!("{:?}", svc.stats()));
    seen.push(svc.slo_report().render_text());
    seen.push(format!("{:?}", svc.alerts()));
    for pm in svc.postmortems() {
        let mut doc = Vec::new();
        pm.write_trace(&mut doc).unwrap();
        seen.push(format!(
            "{} {}",
            pm.file_name(),
            String::from_utf8(doc).unwrap()
        ));
    }
    (drained_s, seen)
}

/// Passes step only as far as the clock is asked to go, so how often a
/// caller polls changes nothing a caller sees: the demo workload and the
/// chaos mixes, with an extra `advance_to` every 50 µs of simulated time,
/// report the same statuses, outputs, tallies, alerts and postmortems.
#[test]
fn polling_granularity_changes_nothing_observable() {
    let demo = gpmr::service::parse(DEMO).expect("demo parses");
    for wl in [
        demo,
        chaos_workload(1),
        chaos_workload(7),
        chaos_workload(42),
    ] {
        let (drained_s, plain) = observe(&wl, None, 0.0);
        let (polled_drained_s, polled) = observe(&wl, Some(50e-6), drained_s);
        assert_eq!(polled_drained_s, drained_s);
        assert_eq!(plain.len(), polled.len());
        for (a, b) in plain.iter().zip(&polled) {
            assert!(a == b, "polling moved an observation:\n{a}\n---\n{b}");
        }
    }
}

/// A job that loses its only GPU fails at the loss, not at dispatch, and
/// holds its slot until then: the job queued behind it starts at that
/// instant, however the clock gets there.
#[test]
fn a_job_fails_when_its_last_gpu_is_lost() {
    let kind = JobKind::Sio {
        n: 200_000,
        seed: 3,
        chunk_kb: 16,
    };
    let mut doomed = JobSpec::new("t", kind);
    doomed.kill = Some((0, 0.001));
    // When the engine meets the loss, alone on a one-GPU cluster.
    let mut cluster = Cluster::accelerator(1, GpuSpec::gt200());
    cluster.set_fault_plan(Some(FaultPlan::new().kill(0, 0.001)));
    let tel = Telemetry::enabled();
    let chunks = sio_chunks(&generate_integers(200_000, 3), 16 * 1024);
    let tuning = gpmr::core::EngineTuning::default();
    let err = run_job_instrumented(&mut cluster, &SioJob::default(), chunks, &tuning, &tel);
    assert!(err.is_err(), "the only GPU is lost");
    let lost_s = tel.snapshot().spans_of("GpuLost").next().unwrap().start_s;
    assert!(lost_s >= 0.001, "{lost_s}");

    for poll_s in [None, Some(50e-6)] {
        let cfg = ServiceConfig {
            gpus: 1,
            engines: 1,
            ..ServiceConfig::default()
        };
        let mut svc = JobService::new(
            cfg,
            vec![TenantConfig::unlimited("t")],
            Telemetry::disabled(),
        );
        let failing = svc.submit(doomed.clone());
        let behind = svc.submit(JobSpec::new("t", kind));
        if let Some(step) = poll_s {
            for i in 0..200 {
                svc.advance_to(f64::from(i) * step);
                let failed = matches!(svc.poll(failing), Ok(JobStatus::Failed { .. }));
                assert_eq!(
                    failed,
                    f64::from(i) * step >= lost_s,
                    "{poll_s:?} at step {i}"
                );
            }
        }
        svc.drain();
        let JobStatus::Failed { error } = svc.poll(failing).unwrap() else {
            panic!("{:?}", svc.poll(failing));
        };
        assert!(error.contains("lost"), "{error}");
        let JobStatus::Completed {
            started_s, wait_s, ..
        } = svc.poll(behind).unwrap()
        else {
            panic!("{:?}", svc.poll(behind));
        };
        assert_eq!(started_s, lost_s, "{poll_s:?}");
        assert_eq!(wait_s, lost_s, "{poll_s:?}");
        assert_eq!(svc.stats().failed, 1);
    }
}

/// A job with no input has a zero makespan: it completes, and frees its
/// slot, at its dispatch instant, even when the clock is advanced past
/// that instant before the end of job setup.
#[test]
fn an_empty_job_completes_where_it_starts() {
    let cfg = ServiceConfig {
        engines: 1,
        ..ServiceConfig::default()
    };
    let mut svc = JobService::new(
        cfg,
        vec![TenantConfig::unlimited("t")],
        Telemetry::disabled(),
    );
    let kind = |n| JobKind::Sio {
        n,
        seed: 1,
        chunk_kb: 16,
    };
    let empty = svc.submit(JobSpec::new("t", kind(0)));
    let behind = svc.submit(JobSpec::new("t", kind(4_000)));
    svc.advance_to(1e-4);
    assert!(matches!(
        svc.poll(empty).unwrap(),
        JobStatus::Completed {
            started_s: 0.0,
            finished_s: 0.0,
            ..
        }
    ));
    assert!(matches!(
        svc.poll(behind).unwrap(),
        JobStatus::Running { started_s: 0.0 }
    ));
}
