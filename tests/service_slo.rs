//! SLO observability suite: the terminal-rate partition invariant over
//! arbitrary workloads, Little's-law agreement between the sampled
//! queue-depth series and the measured queue waits at the EXPERIMENTS.md
//! overload point, flight-recorder postmortem validity (including the
//! triggering job's span), alert determinism, and bit-identical reports
//! across repeated runs.

use gpmr::service::{
    run_script, JobKind, JobService, JobSpec, JobStatus, ObsConfig, ServiceConfig, SloPolicy,
    TenantConfig,
};
use gpmr::telemetry::export::validate_perfetto;
use gpmr::telemetry::{AlertRule, Telemetry};
use proptest::prelude::*;

const DEMO: &str = include_str!("../workloads/service_demo.wl");

fn obs_full() -> ObsConfig {
    ObsConfig {
        alerts: AlertRule::parse_list(
            "misses: sum(service.deadline_missed) > 0; \
             deep: last(service.queue_depth) > 8 for 0.0005",
        )
        .expect("rules parse"),
        flight_capacity: 1024,
        ..ObsConfig::default()
    }
}

// --- Little's law at the M/D/c overload point (EXPERIMENTS.md) -----------

/// The ρ = 4.26 row of the queue-wait table: 16 identical SIO jobs
/// (`n=40000`, solo makespan 1.706 ms on 4 GPUs) at 200 µs inter-arrival
/// into a 2-engine pool. The queue-depth series is sampled at every
/// event boundary, so its step integral must equal the sum of queue
/// waits exactly (Little's law over a deterministic sample path), and
/// the mean wait must land on the published 4.571 ms.
#[test]
fn queue_depth_series_integrates_to_measured_waits() {
    let mut svc = JobService::new(
        ServiceConfig::default(),
        vec![TenantConfig::unlimited("t")],
        Telemetry::enabled(),
    );
    let mut ids = Vec::new();
    for i in 0..16 {
        svc.advance_to(i as f64 * 200e-6);
        ids.push(svc.submit(JobSpec::new(
            "t",
            JobKind::Sio {
                n: 40_000,
                seed: 11,
                chunk_kb: 16,
            },
        )));
    }
    svc.drain();

    let mut wait_sum = 0.0;
    let mut max_wait: f64 = 0.0;
    for &id in &ids {
        let JobStatus::Completed { wait_s, .. } = svc.poll(id).expect("known job") else {
            panic!("{id} did not complete");
        };
        wait_sum += wait_s;
        max_wait = max_wait.max(wait_s);
    }
    let mean_wait = wait_sum / ids.len() as f64;
    assert!(
        (mean_wait - 4.571e-3).abs() < 0.15 * 4.571e-3,
        "mean wait {mean_wait:.6} drifted from the published 4.571 ms"
    );
    assert!(
        (max_wait - 9.143e-3).abs() < 0.15 * 9.143e-3,
        "max wait {max_wait:.6} drifted from the published 9.143 ms"
    );

    // Integrate the sampled step series. Samples are emitted at every
    // queue transition, so between consecutive samples the depth is
    // constant and the integral is exact.
    let snap = svc.telemetry().snapshot();
    let samples: Vec<_> = snap
        .samples
        .iter()
        .filter(|s| s.series == "service.queue_depth")
        .collect();
    assert!(!samples.is_empty(), "queue depth was never sampled");
    let mut integral = 0.0;
    for pair in samples.windows(2) {
        assert!(
            pair[1].ts_s >= pair[0].ts_s,
            "samples must be in time order"
        );
        integral += pair[0].value * (pair[1].ts_s - pair[0].ts_s);
    }
    assert!(
        samples.last().unwrap().value == 0.0,
        "queue must be empty after drain"
    );
    assert!(
        (integral - wait_sum).abs() < 1e-9,
        "∫depth dt = {integral:.9} but Σ waits = {wait_sum:.9}"
    );
}

// --- flight recorder -----------------------------------------------------

#[test]
fn deadline_miss_dumps_a_valid_postmortem_with_the_jobs_span() {
    let mut svc = JobService::new(
        ServiceConfig {
            obs: obs_full(),
            ..ServiceConfig::default()
        },
        vec![TenantConfig::unlimited("t")],
        Telemetry::enabled(),
    );
    let mut spec = JobSpec::new(
        "t",
        JobKind::Sio {
            n: 40_000,
            seed: 3,
            chunk_kb: 16,
        },
    );
    spec.deadline_s = Some(0.0005); // well under the ~1.7 ms makespan
    let id = svc.submit(spec);
    svc.drain();
    assert!(matches!(
        svc.poll(id).unwrap(),
        JobStatus::DeadlineMissed { .. }
    ));

    let pms = svc.postmortems();
    assert!(!pms.is_empty(), "a missed deadline must dump a postmortem");
    let pm = pms
        .iter()
        .find(|p| p.reason == "deadline-missed")
        .expect("deadline-missed dump");
    assert_eq!(pm.subject, id.to_string());
    let stats = validate_perfetto(&pm.trace_json()).expect("postmortem is Perfetto-valid");
    assert!(stats.complete_events > 0);
    assert!(
        pm.trace_json().contains(&format!("\"{id}\"")),
        "postmortem must contain the triggering job's span"
    );

    // The stable file name round-trips the trigger.
    assert!(pm.file_name().contains("deadline-missed"));
    assert!(pm.file_name().contains(&id.to_string()));
}

#[test]
fn alerts_fire_deterministically_on_the_demo_workload() {
    let run_once = || {
        let (svc, lines) = run_script(
            DEMO,
            ServiceConfig {
                obs: obs_full(),
                ..ServiceConfig::default()
            },
            Telemetry::enabled(),
        )
        .expect("script runs");
        let alerts: Vec<String> = svc
            .alerts()
            .iter()
            .map(|a| format!("{}@{:.9}={}", a.rule, a.at_s, a.value))
            .collect();
        let traces: Vec<(String, String)> = svc
            .postmortems()
            .iter()
            .map(|p| (p.file_name(), p.trace_json()))
            .collect();
        (svc.slo_report().to_json(), alerts, traces, lines)
    };
    let (json_a, alerts_a, traces_a, lines_a) = run_once();
    let (json_b, alerts_b, traces_b, lines_b) = run_once();

    // The demo misses a deadline, so the miss alert must have fired, and
    // everything observable is bit-identical across runs.
    assert!(
        alerts_a.iter().any(|a| a.starts_with("misses")),
        "{alerts_a:?}"
    );
    assert_eq!(json_a, json_b, "SLO report JSON must be bit-identical");
    assert_eq!(alerts_a, alerts_b, "alert sequence must be bit-identical");
    assert_eq!(traces_a, traces_b, "flight traces must be bit-identical");
    assert_eq!(lines_a, lines_b, "report lines must be bit-identical");

    let (svc, _) = run_script(
        DEMO,
        ServiceConfig {
            obs: obs_full(),
            ..ServiceConfig::default()
        },
        Telemetry::enabled(),
    )
    .unwrap();
    // Cancel, deadline miss, GPU loss, and the alert all dump.
    let reasons: Vec<&str> = svc
        .postmortems()
        .iter()
        .map(|p| p.reason.as_str())
        .collect();
    for want in ["cancelled", "deadline-missed", "gpu-lost", "alert"] {
        assert!(reasons.contains(&want), "missing {want} dump: {reasons:?}");
    }
    for pm in svc.postmortems() {
        validate_perfetto(&pm.trace_json()).unwrap_or_else(|e| panic!("{}: {e}", pm.file_name()));
    }
}

// --- the terminal-rate partition, under arbitrary workloads --------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whatever mix of submissions, cancels, deadlines, and rejections a
    /// workload produces, each tenant's terminal outcomes partition:
    /// hit + miss + cancel + fail rates sum to exactly 1 (and terminal
    /// counts reconcile with polled statuses).
    #[test]
    fn slo_rates_partition_over_arbitrary_workloads(
        ops in prop::collection::vec(
            (0u8..3, 0u64..1_000, 1usize..5, 0u8..8),
            1..14,
        ),
    ) {
        let tenants: Vec<TenantConfig> = (0..3)
            .map(|i| TenantConfig {
                name: format!("t{i}"),
                max_concurrent: 2 + i as u32,
                gpu_seconds: if i == 1 { 0.004 } else { f64::INFINITY },
                mem_share: 1.0,
            })
            .collect();
        let mut svc = JobService::new(
            ServiceConfig {
                engines: 2,
                max_queue_depth: 6,
                obs: ObsConfig {
                    slo: SloPolicy { deadline_target: 0.9 },
                    ..ObsConfig::default()
                },
                ..ServiceConfig::default()
            },
            tenants,
            Telemetry::disabled(),
        );
        let mut t = 0.0;
        let mut ids = Vec::new();
        for (tenant_sel, seed, size, action) in ops {
            t += 0.0002;
            svc.advance_to(t);
            if action < 6 || ids.is_empty() {
                let mut spec = JobSpec::new(
                    format!("t{}", tenant_sel % 3),
                    JobKind::Sio { n: size * 1500, seed, chunk_kb: 4 },
                );
                spec.batchable = action % 2 == 0;
                if action == 5 {
                    spec.deadline_s = Some(0.0005);
                }
                ids.push(svc.submit(spec));
            } else {
                let victim = ids[(seed as usize) % ids.len()];
                let _ = svc.cancel(victim);
            }
        }
        svc.drain();

        let report = svc.slo_report();
        let mut terminal_total = 0u64;
        for tslo in &report.tenants {
            let n = tslo.terminal();
            terminal_total += n;
            if n > 0 {
                let sum = tslo.hit_rate()
                    + tslo.miss_rate()
                    + tslo.cancel_rate()
                    + tslo.fail_rate();
                prop_assert!(
                    (sum - 1.0).abs() < 1e-12,
                    "tenant {} rates sum to {sum}",
                    tslo.tenant
                );
                prop_assert!(tslo.gpu_seconds >= 0.0);
            }
            prop_assert_eq!(
                n,
                tslo.completed + tslo.cancelled + tslo.deadline_missed + tslo.failed
            );
            prop_assert!(tslo.submitted >= tslo.rejected + n);
        }
        // Terminal counts reconcile against polled statuses (queued
        // budget-starved jobs are the only non-terminal leftovers).
        let mut polled_terminal = 0u64;
        let mut polled_rejected = 0u64;
        for &id in &ids {
            match svc.poll(id).unwrap() {
                JobStatus::Completed { .. }
                | JobStatus::Cancelled { .. }
                | JobStatus::DeadlineMissed { .. }
                | JobStatus::Failed { .. } => polled_terminal += 1,
                JobStatus::Rejected(_) => polled_rejected += 1,
                JobStatus::Queued | JobStatus::Running { .. } => {}
            }
        }
        prop_assert_eq!(terminal_total, polled_terminal);
        prop_assert_eq!(
            report.tenants.iter().map(|t| t.rejected).sum::<u64>(),
            polled_rejected
        );
    }
}
