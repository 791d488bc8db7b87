//! Service-level SLO observability end to end: run a deliberately
//! overloaded multi-tenant job service with alert rules and the flight
//! recorder armed, then print the per-tenant SLO report, the alerts
//! that fired, and the Prometheus exposition — and write each
//! postmortem trace to disk for https://ui.perfetto.dev
//!
//! Run with: `cargo run --release --example slo_observability`

use gpmr::service::{
    render_prometheus, JobKind, JobService, JobSpec, ObsConfig, ServiceConfig, SloPolicy,
    TenantConfig,
};
use gpmr::telemetry::export::validate_perfetto;
use gpmr::telemetry::{AlertRule, Telemetry};

fn main() {
    // Two tenants; alice is allowed two concurrent jobs, bob is capped
    // at one so his work queues behind alice's under load.
    let tenants = vec![
        TenantConfig::unlimited("alice"),
        TenantConfig {
            max_concurrent: 1,
            ..TenantConfig::unlimited("bob")
        },
    ];

    // Observability: a 95% deadline-hit objective, two declarative
    // alert rules evaluated at every event boundary, and a flight
    // recorder that dumps the newest 1024 spans and samples as a
    // postmortem trace on every incident.
    let cfg = ServiceConfig {
        obs: ObsConfig {
            alerts: AlertRule::parse_list(
                "misses: sum(service.deadline_missed) > 0; \
                 deep: last(service.queue_depth) > 4 for 0.0005",
            )
            .expect("rules parse"),
            flight_capacity: 1024,
            slo: SloPolicy {
                deadline_target: 0.95,
            },
        },
        ..ServiceConfig::default()
    };
    let mut svc = JobService::new(cfg, tenants, Telemetry::enabled());

    // 2x overload: 12 identical SIO jobs at 200 µs inter-arrival, with
    // one impossible deadline so the error budget takes a hit.
    for i in 0..12 {
        svc.advance_to(i as f64 * 200e-6);
        let mut spec = JobSpec::new(
            if i % 2 == 0 { "alice" } else { "bob" },
            JobKind::Sio {
                n: 40_000,
                seed: 11 + i,
                chunk_kb: 16,
            },
        );
        if i == 5 {
            spec.deadline_s = Some(0.0005); // well under the ~1.7 ms makespan
        }
        svc.submit(spec);
    }
    svc.drain();

    // The per-tenant SLO report: hit/miss/cancel/fail rates partition
    // to 1, wait percentiles are exact order statistics, and budget
    // burn compares the miss rate against the 5% error budget.
    println!("{}", svc.slo_report().render_text());

    println!("alerts fired:");
    for a in svc.alerts() {
        println!(
            "  {} at t={:.6}s value={} (> {})",
            a.rule, a.at_s, a.value, a.threshold
        );
    }

    // Every incident (the deadline miss and the alert breaches) left a
    // Perfetto-valid postmortem of the service's recording.
    std::fs::create_dir_all("target/postmortems").expect("mkdir");
    for pm in svc.postmortems() {
        let trace = pm.trace_json();
        validate_perfetto(&trace).expect("postmortem must validate");
        let path = format!("target/postmortems/{}", pm.file_name());
        std::fs::write(&path, trace).expect("write postmortem");
        println!("postmortem: {path}");
    }

    // The same accounting, scrape-ready.
    let snap = svc.telemetry().snapshot();
    println!("\n--- prometheus exposition (excerpt) ---");
    for line in render_prometheus(&snap.metrics, Some(&svc.slo_report()))
        .lines()
        .filter(|l| l.contains("slo_") || l.contains("deadline"))
    {
        println!("{line}");
    }
}
