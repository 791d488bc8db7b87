//! Per-tenant SLO accounting: deadline hit rates, queue-wait and
//! end-to-end latency percentiles, GPU-seconds burn, and a configurable
//! error-budget policy.
//!
//! The accountant keeps exact per-tenant outcome counts and the full
//! (virtual-time) wait/latency samples, so report quantiles are exact
//! order statistics, not histogram estimates — the service is the serial
//! fast path the ISSUE's quantile contract refers to. Rates are defined
//! over *terminal dispatched* outcomes: for every tenant,
//! `hit + miss + cancel + fail == 1` exactly (rejected submissions never
//! enter the race and are reported separately).
//!
//! [`render_prometheus`] renders a registry snapshot (plus the SLO view)
//! in the Prometheus text exposition format for scrape-style export.

use std::fmt::Write as _;

use gpmr_telemetry::json::Value;
use gpmr_telemetry::MetricsSnapshot;

use crate::spec::JobStatus;

/// Error-budget policy for deadline SLOs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SloPolicy {
    /// Target fraction of terminal jobs that must complete (the SLO);
    /// `1 - deadline_target` is the error budget.
    pub deadline_target: f64,
}

impl Default for SloPolicy {
    fn default() -> Self {
        SloPolicy {
            deadline_target: 0.95,
        }
    }
}

/// Exact `q`-quantile of a sorted sample set (linear interpolation
/// between order statistics). `None` for empty samples or non-finite `q`.
fn exact_quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() || !q.is_finite() {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// One tenant's running SLO tallies.
#[derive(Clone, Debug, Default)]
pub struct TenantSlo {
    /// Tenant name.
    pub tenant: String,
    /// Submissions seen (admitted or rejected).
    pub submitted: u64,
    /// Submissions rejected at admission.
    pub rejected: u64,
    /// Terminal outcomes by class.
    pub completed: u64,
    /// Jobs cancelled before completing.
    pub cancelled: u64,
    /// Jobs stopped by their deadline.
    pub deadline_missed: u64,
    /// Jobs whose engine pass failed.
    pub failed: u64,
    /// GPU-seconds charged to the tenant.
    pub gpu_seconds: f64,
    /// Queue waits of terminal jobs, kept sorted.
    waits: Vec<f64>,
    /// Submit→terminal latencies, kept sorted.
    e2e: Vec<f64>,
}

impl TenantSlo {
    /// Terminal outcomes so far (the rate denominator).
    pub fn terminal(&self) -> u64 {
        self.completed + self.cancelled + self.deadline_missed + self.failed
    }

    fn rate(&self, n: u64) -> f64 {
        let d = self.terminal();
        if d == 0 {
            0.0
        } else {
            n as f64 / d as f64
        }
    }

    /// Fraction of terminal jobs that completed.
    pub fn hit_rate(&self) -> f64 {
        self.rate(self.completed)
    }

    /// Fraction of terminal jobs stopped by their deadline.
    pub fn miss_rate(&self) -> f64 {
        self.rate(self.deadline_missed)
    }

    /// Fraction of terminal jobs cancelled.
    pub fn cancel_rate(&self) -> f64 {
        self.rate(self.cancelled)
    }

    /// Fraction of terminal jobs that failed.
    pub fn fail_rate(&self) -> f64 {
        self.rate(self.failed)
    }

    /// Exact queue-wait quantile over terminal jobs.
    pub fn wait_quantile(&self, q: f64) -> Option<f64> {
        exact_quantile(&self.waits, q)
    }

    /// Exact submit→terminal latency quantile.
    pub fn e2e_quantile(&self, q: f64) -> Option<f64> {
        exact_quantile(&self.e2e, q)
    }

    /// Fraction of the error budget burned: non-hit rate over the
    /// allowance `1 - deadline_target`. Infinite when the policy allows
    /// no errors but some occurred; ≥ 1 means the budget is spent.
    pub fn budget_burn(&self, policy: &SloPolicy) -> f64 {
        let errors = 1.0 - self.hit_rate();
        let allowance = 1.0 - policy.deadline_target.clamp(0.0, 1.0);
        if self.terminal() == 0 || errors <= 0.0 {
            0.0
        } else if allowance <= 0.0 {
            f64::INFINITY
        } else {
            errors / allowance
        }
    }
}

/// Accumulates per-tenant SLO tallies as the service runs. Indexed by
/// tenant track (submission order of the tenant set).
#[derive(Clone, Debug)]
pub struct SloAccountant {
    policy: SloPolicy,
    tenants: Vec<TenantSlo>,
}

impl SloAccountant {
    /// An accountant for the named tenants under `policy`.
    pub fn new(policy: SloPolicy, names: &[String]) -> SloAccountant {
        SloAccountant {
            policy,
            tenants: names
                .iter()
                .map(|n| TenantSlo {
                    tenant: n.clone(),
                    ..TenantSlo::default()
                })
                .collect(),
        }
    }

    /// A tenant's tallies, by index.
    pub fn tenant(&self, ix: usize) -> Option<&TenantSlo> {
        self.tenants.get(ix)
    }

    /// Record a submission outcome for tenant `ix`.
    pub fn record_submit(&mut self, ix: usize, admitted: bool) {
        if let Some(t) = self.tenants.get_mut(ix) {
            t.submitted += 1;
            if !admitted {
                t.rejected += 1;
            }
        }
    }

    /// Record a terminal outcome for tenant `ix`. `started_s` is the
    /// dispatch instant when the job ran (None when it never left the
    /// queue — its whole life counts as queue wait).
    pub fn record_terminal(
        &mut self,
        ix: usize,
        status: &JobStatus,
        submit_s: f64,
        started_s: Option<f64>,
        end_s: f64,
        gpu_seconds: f64,
    ) {
        let Some(t) = self.tenants.get_mut(ix) else {
            return;
        };
        match status {
            JobStatus::Completed { .. } => t.completed += 1,
            JobStatus::Cancelled { .. } => t.cancelled += 1,
            JobStatus::DeadlineMissed { .. } => t.deadline_missed += 1,
            JobStatus::Failed { .. } => t.failed += 1,
            _ => return,
        }
        t.gpu_seconds += gpu_seconds;
        let wait = (started_s.unwrap_or(end_s) - submit_s).max(0.0);
        let e2e = (end_s - submit_s).max(0.0);
        let ins = |v: &mut Vec<f64>, x: f64| {
            let pos = v.partition_point(|&y| y <= x);
            v.insert(pos, x);
        };
        ins(&mut t.waits, wait);
        ins(&mut t.e2e, e2e);
    }

    /// Snapshot the current SLO state as of `at_s`.
    pub fn report(&self, at_s: f64) -> SloReport {
        SloReport {
            at_s,
            policy: self.policy,
            tenants: self.tenants.clone(),
        }
    }
}

/// A point-in-time SLO report across every tenant.
#[derive(Clone, Debug)]
pub struct SloReport {
    /// The service clock when the report was taken.
    pub at_s: f64,
    /// The policy the burn figures are computed against.
    pub policy: SloPolicy,
    /// Per-tenant tallies, in track order.
    pub tenants: Vec<TenantSlo>,
}

fn opt_s(v: Option<f64>) -> String {
    v.map_or_else(|| "-".to_string(), |v| format!("{v:.6}"))
}

impl SloReport {
    /// Stable one-line-per-tenant text render (what `gpmr serve` prints
    /// and its `--slo-out` writes by default).
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "slo report at={:.6} target={:.4}\n",
            self.at_s, self.policy.deadline_target
        );
        for t in &self.tenants {
            let burn = t.budget_burn(&self.policy);
            let _ = writeln!(
                out,
                "slo tenant {} terminal={} hit={:.4} miss={:.4} cancel={:.4} fail={:.4} \
                 rejected={} wait_p50={} wait_p95={} wait_p99={} e2e_p99={} gpu_s={:.6} \
                 burn={:.4} budget={}",
                t.tenant,
                t.terminal(),
                t.hit_rate(),
                t.miss_rate(),
                t.cancel_rate(),
                t.fail_rate(),
                t.rejected,
                opt_s(t.wait_quantile(0.50)),
                opt_s(t.wait_quantile(0.95)),
                opt_s(t.wait_quantile(0.99)),
                opt_s(t.e2e_quantile(0.99)),
                t.gpu_seconds,
                burn,
                if burn > 1.0 { "violated" } else { "ok" },
            );
        }
        out
    }

    /// Stable JSON form.
    pub fn to_value(&self) -> Value {
        let tenants = self
            .tenants
            .iter()
            .map(|t| {
                let mut fields = vec![
                    ("tenant".into(), Value::str(t.tenant.clone())),
                    ("submitted".into(), Value::Num(t.submitted as f64)),
                    ("rejected".into(), Value::Num(t.rejected as f64)),
                    ("completed".into(), Value::Num(t.completed as f64)),
                    ("cancelled".into(), Value::Num(t.cancelled as f64)),
                    (
                        "deadline_missed".into(),
                        Value::Num(t.deadline_missed as f64),
                    ),
                    ("failed".into(), Value::Num(t.failed as f64)),
                    ("hit_rate".into(), Value::Num(t.hit_rate())),
                    ("miss_rate".into(), Value::Num(t.miss_rate())),
                    ("cancel_rate".into(), Value::Num(t.cancel_rate())),
                    ("fail_rate".into(), Value::Num(t.fail_rate())),
                    ("gpu_seconds".into(), Value::Num(t.gpu_seconds)),
                    (
                        "budget_burn".into(),
                        Value::Num(t.budget_burn(&self.policy)),
                    ),
                ];
                for (label, q) in [
                    ("wait_p50", 0.50),
                    ("wait_p95", 0.95),
                    ("wait_p99", 0.99),
                    ("e2e_p50", 0.50),
                    ("e2e_p99", 0.99),
                ] {
                    let v = if label.starts_with("wait") {
                        t.wait_quantile(q)
                    } else {
                        t.e2e_quantile(q)
                    };
                    if let Some(v) = v {
                        fields.push((label.into(), Value::Num(v)));
                    }
                }
                Value::Obj(fields)
            })
            .collect();
        Value::Obj(vec![
            ("at_s".into(), Value::Num(self.at_s)),
            (
                "deadline_target".into(),
                Value::Num(self.policy.deadline_target),
            ),
            ("tenants".into(), Value::Arr(tenants)),
        ])
    }

    /// Rendered JSON text.
    pub fn to_json(&self) -> String {
        self.to_value().render()
    }

    /// Self-contained HTML report (no external assets).
    pub fn render_html(&self) -> String {
        let mut rows = String::new();
        for t in &self.tenants {
            let burn = t.budget_burn(&self.policy);
            let _ = writeln!(
                rows,
                "<tr class=\"{}\"><td>{}</td><td>{}</td><td>{:.2}%</td>\
                 <td>{:.2}%</td><td>{:.2}%</td><td>{}</td><td>{}</td><td>{}</td>\
                 <td>{:.6}</td><td>{:.2}</td></tr>",
                if burn > 1.0 { "bad" } else { "ok" },
                t.tenant,
                t.terminal(),
                t.hit_rate() * 100.0,
                t.miss_rate() * 100.0,
                t.cancel_rate() * 100.0,
                opt_s(t.wait_quantile(0.50)),
                opt_s(t.wait_quantile(0.95)),
                opt_s(t.wait_quantile(0.99)),
                t.gpu_seconds,
                burn,
            );
        }
        format!(
            "<!doctype html>\n<html><head><meta charset=\"utf-8\">\
             <title>gpmr SLO report</title>\n<style>\n\
             body{{font:14px system-ui,sans-serif;margin:2em}}\n\
             table{{border-collapse:collapse}}\n\
             td,th{{border:1px solid #ccc;padding:4px 10px;text-align:right}}\n\
             th{{background:#f0f0f0}}td:first-child{{text-align:left}}\n\
             tr.bad td{{background:#ffe5e5}}\n</style></head><body>\n\
             <h1>gpmr SLO report</h1>\n\
             <p>at {:.6}s &middot; deadline target {:.2}%</p>\n\
             <table>\n<tr><th>tenant</th><th>terminal</th><th>hit</th>\
             <th>miss</th><th>cancel</th><th>wait p50 (s)</th>\
             <th>wait p95 (s)</th><th>wait p99 (s)</th><th>gpu-s</th>\
             <th>budget burn</th></tr>\n{}</table>\n</body></html>\n",
            self.at_s,
            self.policy.deadline_target * 100.0,
            rows
        )
    }
}

fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 5);
    out.push_str("gpmr_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn prom_num(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".into()
    } else if v == f64::NEG_INFINITY {
        "-Inf".into()
    } else {
        format!("{v}")
    }
}

/// Render a metrics snapshot (and, when given, an SLO report) in the
/// Prometheus text exposition format: counters and gauges as-is,
/// histograms as cumulative `_bucket{le=...}` series plus `_sum` and
/// `_count`, SLO figures as labeled gauges.
pub fn render_prometheus(snap: &MetricsSnapshot, slo: Option<&SloReport>) -> String {
    let mut out = String::new();
    for (name, &v) in &snap.counters {
        let n = prom_name(name);
        let _ = writeln!(out, "# TYPE {n} counter");
        let _ = writeln!(out, "{n} {v}");
    }
    for (name, &v) in &snap.gauges {
        let n = prom_name(name);
        let _ = writeln!(out, "# TYPE {n} gauge");
        let _ = writeln!(out, "{n} {}", prom_num(v));
    }
    for (name, h) in &snap.histograms {
        let n = prom_name(name);
        let _ = writeln!(out, "# TYPE {n} histogram");
        let mut cum = 0u64;
        for (bound, &count) in h.bounds.iter().zip(&h.counts) {
            cum += count;
            let _ = writeln!(out, "{n}_bucket{{le=\"{}\"}} {cum}", prom_num(*bound));
        }
        let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {}", h.count);
        let _ = writeln!(out, "{n}_sum {}", prom_num(h.sum));
        let _ = writeln!(out, "{n}_count {}", h.count);
    }
    if let Some(report) = slo {
        type TenantGauge = fn(&TenantSlo, &SloPolicy) -> f64;
        let series: &[(&str, TenantGauge)] = &[
            ("gpmr_slo_hit_rate", |t, _| t.hit_rate()),
            ("gpmr_slo_miss_rate", |t, _| t.miss_rate()),
            ("gpmr_slo_cancel_rate", |t, _| t.cancel_rate()),
            ("gpmr_slo_budget_burn", |t, p| t.budget_burn(p)),
            ("gpmr_slo_gpu_seconds", |t, _| t.gpu_seconds),
        ];
        for (name, f) in series {
            let _ = writeln!(out, "# TYPE {name} gauge");
            for t in &report.tenants {
                let _ = writeln!(
                    out,
                    "{name}{{tenant=\"{}\"}} {}",
                    t.tenant,
                    prom_num(f(t, &report.policy))
                );
            }
        }
        let name = "gpmr_slo_wait_seconds";
        let _ = writeln!(out, "# TYPE {name} gauge");
        for t in &report.tenants {
            for (label, q) in [("0.5", 0.50), ("0.95", 0.95), ("0.99", 0.99)] {
                if let Some(v) = t.wait_quantile(q) {
                    let _ = writeln!(
                        out,
                        "{name}{{tenant=\"{}\",quantile=\"{label}\"}} {}",
                        t.tenant,
                        prom_num(v)
                    );
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpmr_telemetry::Registry;

    fn status_completed() -> JobStatus {
        JobStatus::Completed {
            started_s: 0.0,
            finished_s: 1.0,
            wait_s: 0.0,
            batched: false,
        }
    }

    #[test]
    fn rates_partition_terminal_outcomes() {
        let mut acc = SloAccountant::new(SloPolicy::default(), &["a".to_string()]);
        acc.record_submit(0, true);
        acc.record_submit(0, true);
        acc.record_submit(0, true);
        acc.record_submit(0, false);
        acc.record_terminal(0, &status_completed(), 0.0, Some(0.1), 1.0, 0.4);
        acc.record_terminal(
            0,
            &JobStatus::Cancelled {
                at_s: 0.5,
                chunks_committed: 0,
                chunks_released: 2,
            },
            0.0,
            None,
            0.5,
            0.0,
        );
        acc.record_terminal(
            0,
            &JobStatus::DeadlineMissed {
                deadline_s: 0.3,
                chunks_committed: 1,
                chunks_released: 1,
            },
            0.0,
            Some(0.05),
            0.3,
            0.2,
        );
        let t = acc.tenant(0).unwrap();
        assert_eq!(t.terminal(), 3);
        assert_eq!(t.rejected, 1);
        let sum = t.hit_rate() + t.miss_rate() + t.cancel_rate() + t.fail_rate();
        assert_eq!(sum, 1.0, "rates must partition terminal outcomes");
        assert!((t.gpu_seconds - 0.6).abs() < 1e-12);
    }

    #[test]
    fn quantiles_are_exact_order_statistics() {
        let mut acc = SloAccountant::new(SloPolicy::default(), &["a".to_string()]);
        // Waits 0.1, 0.2, 0.3, 0.4 (inserted out of order).
        for (submit, start) in [(0.0, 0.3), (0.0, 0.1), (0.0, 0.4), (0.0, 0.2)] {
            acc.record_terminal(0, &status_completed(), submit, Some(start), 1.0, 0.0);
        }
        let t = acc.tenant(0).unwrap();
        assert!((t.wait_quantile(0.0).unwrap() - 0.1).abs() < 1e-12);
        assert!((t.wait_quantile(1.0).unwrap() - 0.4).abs() < 1e-12);
        assert!((t.wait_quantile(0.5).unwrap() - 0.25).abs() < 1e-12);
        assert_eq!(t.wait_quantile(f64::NAN), None);
        assert_eq!(exact_quantile(&[], 0.5), None);
    }

    #[test]
    fn budget_burn_tracks_policy() {
        let mut acc = SloAccountant::new(
            SloPolicy {
                deadline_target: 0.9,
            },
            &["a".to_string()],
        );
        for _ in 0..8 {
            acc.record_terminal(0, &status_completed(), 0.0, Some(0.0), 1.0, 0.0);
        }
        acc.record_terminal(
            0,
            &JobStatus::DeadlineMissed {
                deadline_s: 0.5,
                chunks_committed: 0,
                chunks_released: 0,
            },
            0.0,
            None,
            0.5,
            0.0,
        );
        acc.record_terminal(
            0,
            &JobStatus::Failed {
                error: "boom".into(),
            },
            0.0,
            None,
            0.5,
            0.0,
        );
        let t = acc.tenant(0).unwrap();
        // 2 of 10 missed against a 10% allowance: budget exactly spent ×2.
        assert!((t.budget_burn(&acc.policy) - 2.0).abs() < 1e-12);
        let report = acc.report(1.0);
        assert!(report.render_text().contains("budget=violated"));
        let zero_allow = SloPolicy {
            deadline_target: 1.0,
        };
        assert_eq!(t.budget_burn(&zero_allow), f64::INFINITY);
    }

    #[test]
    fn report_renders_text_json_and_html() {
        let mut acc = SloAccountant::new(SloPolicy::default(), &["a".into(), "b".into()]);
        acc.record_terminal(0, &status_completed(), 0.0, Some(0.25), 1.0, 0.5);
        let report = acc.report(2.0);
        let text = report.render_text();
        assert!(text.contains("slo tenant a "));
        assert!(text.contains("wait_p50=0.250000"));
        assert!(text.contains("slo tenant b terminal=0"));
        let json = report.to_json();
        let v = gpmr_telemetry::json::parse(&json).expect("valid JSON");
        let tenants = v.get("tenants").and_then(Value::as_arr).unwrap();
        assert_eq!(tenants.len(), 2);
        assert_eq!(
            tenants[0].get("hit_rate").and_then(Value::as_f64),
            Some(1.0)
        );
        let html = report.render_html();
        assert!(html.starts_with("<!doctype html>"));
        assert!(html.contains("<td>a</td>"));
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let reg = Registry::new();
        reg.counter("service.jobs_completed").add(3);
        reg.gauge("service.queue_depth").set(2.0);
        let h = reg.histogram("service.queue_wait_s", &[0.001, 0.01]);
        h.observe(0.0005);
        h.observe(0.005);
        h.observe(5.0);
        let mut acc = SloAccountant::new(SloPolicy::default(), &["a".to_string()]);
        acc.record_terminal(0, &status_completed(), 0.0, Some(0.1), 1.0, 0.25);
        let text = render_prometheus(&reg.snapshot(), Some(&acc.report(1.0)));
        assert!(text.contains("# TYPE gpmr_service_jobs_completed counter"));
        assert!(text.contains("gpmr_service_jobs_completed 3"));
        assert!(text.contains("# TYPE gpmr_service_queue_depth gauge"));
        assert!(text.contains("gpmr_service_queue_wait_s_bucket{le=\"0.001\"} 1"));
        assert!(text.contains("gpmr_service_queue_wait_s_bucket{le=\"0.01\"} 2"));
        assert!(text.contains("gpmr_service_queue_wait_s_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("gpmr_service_queue_wait_s_count 3"));
        assert!(text.contains("gpmr_slo_hit_rate{tenant=\"a\"} 1"));
        assert!(text.contains("gpmr_slo_wait_seconds{tenant=\"a\",quantile=\"0.5\"} 0.1"));
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (_, value) = line.rsplit_once(' ').expect("name value");
            assert!(
                value == "+Inf" || value.parse::<f64>().is_ok(),
                "bad value in {line:?}"
            );
        }
    }
}
