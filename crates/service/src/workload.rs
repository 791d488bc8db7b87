//! Scripted multi-tenant workloads: a tiny line-oriented language for
//! driving a [`JobService`] deterministically, used by `gpmr serve` and
//! the multi-tenant test suite.
//!
//! ```text
//! # tenants first: name plus optional quota keys
//! tenant alice max_concurrent=2 gpu_seconds=1.5 mem_share=0.5
//! tenant bob
//!
//! # timed actions (seconds are service/simulated time)
//! at 0.000 submit alice sio n=20000 seed=1 chunk_kb=16 batch
//! at 0.001 submit alice sio n=20000 seed=2 chunk_kb=16 batch
//! at 0.002 submit bob   wo  bytes=65536 dict=512 seed=3 chunk_kb=16 deadline=0.004
//! at 0.003 submit bob   sio n=40000 seed=4 chunk_kb=16 kill=1@0.0005 priority=2
//! at 0.004 cancel job3
//! ```
//!
//! Flags: `batch` opts a job into small-job batching, `journal` runs it
//! through the write-ahead journal, `kill=R@T` fail-stops GPU `R` at `T`
//! seconds into the job, `stall=R@T+D` freezes it for `D` seconds,
//! `deadline=D` cancels it `D` seconds after submission if unfinished,
//! `priority=P` orders the queue.
//!
//! Every time is read by the rule the fault-plan and alert grammars share
//! ([`gpmr_telemetry::parse_secs`]): finite and non-negative.
//! `gpu_seconds` may be `inf` (unlimited) but not NaN or negative, and
//! `mem_share` lies in `[0, 1]`. Anything else is refused, naming the
//! line.

use std::fmt;

use gpmr_telemetry::{parse_secs, Telemetry};

use crate::service::{JobService, ServiceConfig};
use crate::spec::{JobId, JobKind, JobSpec, JobStatus, TenantConfig};

/// A parsed workload: tenants plus timed actions in file order.
#[derive(Clone, Debug, PartialEq)]
pub struct Workload {
    /// Tenant declarations, in file order (order fixes telemetry tracks).
    pub tenants: Vec<TenantConfig>,
    /// Timed actions; ties in time preserve file order.
    pub events: Vec<(f64, Action)>,
}

/// One timed action in a workload script.
#[derive(Clone, Debug, PartialEq)]
pub enum Action {
    /// Submit a job.
    Submit(JobSpec),
    /// Cancel a job by its `job{N}` name.
    Cancel(String),
}

/// A parse failure, with its 1-based script line.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadError {
    /// 1-based line number in the script.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "workload line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for WorkloadError {}

fn err(line: usize, message: impl Into<String>) -> WorkloadError {
    WorkloadError {
        line,
        message: message.into(),
    }
}

fn parse_num<T: std::str::FromStr>(line: usize, key: &str, val: &str) -> Result<T, WorkloadError> {
    val.parse()
        .map_err(|_| err(line, format!("bad value for {key}: {val:?}")))
}

/// A time in seconds, by the fault-plan grammar's rule.
fn parse_time(line: usize, key: &str, val: &str) -> Result<f64, WorkloadError> {
    let want = "want finite seconds >= 0";
    parse_secs(val).ok_or_else(|| err(line, format!("bad time for {key}: {val:?} ({want})")))
}

/// Parse a workload script. Comments (`#`) and blank lines are ignored.
pub fn parse(text: &str) -> Result<Workload, WorkloadError> {
    let mut tenants: Vec<TenantConfig> = Vec::new();
    let mut events = Vec::new();
    for (ix, raw) in text.lines().enumerate() {
        let lineno = ix + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let toks: Vec<&str> = line.split_whitespace().collect();
        match toks[0] {
            "tenant" => {
                let name = *toks
                    .get(1)
                    .ok_or_else(|| err(lineno, "tenant needs a name"))?;
                let mut cfg = TenantConfig::unlimited(name);
                for tok in &toks[2..] {
                    let (k, v) = tok
                        .split_once('=')
                        .ok_or_else(|| err(lineno, format!("expected key=value, got {tok:?}")))?;
                    match k {
                        "max_concurrent" => cfg.max_concurrent = parse_num(lineno, k, v)?,
                        "gpu_seconds" => cfg.gpu_seconds = parse_num(lineno, k, v)?,
                        "mem_share" => cfg.mem_share = parse_num(lineno, k, v)?,
                        _ => return Err(err(lineno, format!("unknown tenant key {k:?}"))),
                    }
                }
                let (budget, share) = (cfg.gpu_seconds, cfg.mem_share);
                if budget.is_nan() || budget < 0.0 || !(0.0..=1.0).contains(&share) {
                    let want = "want gpu_seconds >= 0 (inf: unlimited) and mem_share in [0, 1]";
                    let got = format!("gpu_seconds={budget} mem_share={share}");
                    return Err(err(lineno, format!("{got}: {want}")));
                }
                tenants.push(cfg);
            }
            "at" => {
                let t = parse_time(
                    lineno,
                    "at",
                    toks.get(1).ok_or_else(|| err(lineno, "at needs a time"))?,
                )?;
                match toks.get(2) {
                    Some(&"submit") => {
                        let spec = parse_submit(lineno, &toks[3..])?;
                        events.push((t, Action::Submit(spec)));
                    }
                    Some(&"cancel") => {
                        let name = *toks
                            .get(3)
                            .ok_or_else(|| err(lineno, "cancel needs a job name"))?;
                        events.push((t, Action::Cancel(name.to_string())));
                    }
                    other => {
                        return Err(err(lineno, format!("unknown action {other:?}")));
                    }
                }
            }
            other => return Err(err(lineno, format!("unknown directive {other:?}"))),
        }
    }
    Ok(Workload { tenants, events })
}

fn parse_submit(lineno: usize, toks: &[&str]) -> Result<JobSpec, WorkloadError> {
    let tenant = *toks
        .first()
        .ok_or_else(|| err(lineno, "submit needs a tenant"))?;
    let kind_name = *toks
        .get(1)
        .ok_or_else(|| err(lineno, "submit needs a kind (sio|wo)"))?;
    let mut n = None;
    let mut bytes = None;
    let mut dict = 512usize;
    let mut seed = 0u64;
    let mut chunk_kb = 16usize;
    let mut priority = 0u32;
    let mut deadline = None;
    let mut batch = false;
    let mut journal = false;
    let mut kill = None;
    let mut stall = None;
    for tok in &toks[2..] {
        match *tok {
            "batch" => {
                batch = true;
                continue;
            }
            "journal" => {
                journal = true;
                continue;
            }
            _ => {}
        }
        let (k, v) = tok
            .split_once('=')
            .ok_or_else(|| err(lineno, format!("expected key=value, got {tok:?}")))?;
        match k {
            "n" => n = Some(parse_num(lineno, k, v)?),
            "bytes" => bytes = Some(parse_num(lineno, k, v)?),
            "dict" => {
                dict = parse_num(lineno, k, v)?;
                if dict == 0 {
                    return Err(err(lineno, "dict must be at least 1 word"));
                }
            }
            "seed" => seed = parse_num(lineno, k, v)?,
            "chunk_kb" => chunk_kb = parse_num(lineno, k, v)?,
            "priority" => priority = parse_num(lineno, k, v)?,
            "deadline" => deadline = Some(parse_time(lineno, k, v)?),
            "kill" => {
                let (r, at) = v
                    .split_once('@')
                    .ok_or_else(|| err(lineno, format!("kill needs rank@time, got {v:?}")))?;
                kill = Some((
                    parse_num(lineno, "kill rank", r)?,
                    parse_time(lineno, "kill time", at)?,
                ));
            }
            "stall" => {
                let (r, rest) = v
                    .split_once('@')
                    .ok_or_else(|| err(lineno, format!("stall needs rank@time+dur, got {v:?}")))?;
                let (at, dur) = rest
                    .split_once('+')
                    .ok_or_else(|| err(lineno, format!("stall needs rank@time+dur, got {v:?}")))?;
                stall = Some((
                    parse_num(lineno, "stall rank", r)?,
                    parse_time(lineno, "stall time", at)?,
                    parse_time(lineno, "stall duration", dur)?,
                ));
            }
            _ => return Err(err(lineno, format!("unknown submit key {k:?}"))),
        }
    }
    let kind = match kind_name {
        "sio" => JobKind::Sio {
            n: n.ok_or_else(|| err(lineno, "sio needs n=..."))?,
            seed,
            chunk_kb,
        },
        "wo" => JobKind::Wo {
            bytes: bytes.ok_or_else(|| err(lineno, "wo needs bytes=..."))?,
            dict_words: dict,
            seed,
            chunk_kb,
        },
        other => return Err(err(lineno, format!("unknown job kind {other:?}"))),
    };
    if let Some(too_large) = kind.input_too_large() {
        return Err(err(lineno, too_large.to_string()));
    }
    let mut spec = JobSpec::new(tenant, kind);
    spec.priority = priority;
    spec.deadline_s = deadline;
    spec.batchable = batch;
    spec.kill = kill;
    spec.stall = stall;
    spec.journal = journal;
    Ok(spec)
}

/// Run a parsed workload against a fresh service and render a
/// deterministic plain-text report (one line per action outcome and per
/// job, then tenant and service summaries).
pub fn run(wl: &Workload, cfg: ServiceConfig, tel: Telemetry) -> (JobService, Vec<String>) {
    let mut svc = JobService::new(cfg, wl.tenants.clone(), tel);
    let mut order: Vec<usize> = (0..wl.events.len()).collect();
    // Stable by time: ties keep file order.
    order.sort_by(|&a, &b| {
        wl.events[a]
            .0
            .partial_cmp(&wl.events[b].0)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut lines = Vec::new();
    for ix in order {
        let (t, action) = &wl.events[ix];
        svc.advance_to(*t);
        match action {
            Action::Submit(spec) => {
                let id = svc.submit(spec.clone());
                lines.push(format!(
                    "at {t:.6} submit {} {} -> {id} {}",
                    spec.tenant,
                    spec.kind.name(),
                    svc.poll(id).expect("just submitted").word()
                ));
            }
            Action::Cancel(name) => {
                let outcome = match JobId::parse(name) {
                    Some(id) => match svc.cancel(id) {
                        Ok(()) => "cancelled".to_string(),
                        Err(e) => e.to_string(),
                    },
                    None => format!("bad job name {name:?}"),
                };
                lines.push(format!("at {t:.6} cancel {name} -> {outcome}"));
            }
        }
    }
    let final_t = svc.drain();
    for id in svc.job_ids().collect::<Vec<_>>() {
        lines.push(job_line(&svc, id));
    }
    for t in &wl.tenants {
        lines.push(format!(
            "tenant {} spent={:.6} running={}",
            t.name,
            svc.tenant_spent(&t.name).unwrap_or(0.0),
            svc.tenant_running(&t.name).unwrap_or(0),
        ));
    }
    let by_word = |word: &str| {
        svc.job_ids()
            .filter(|&id| svc.poll(id).map(|s| s.word() == word).unwrap_or(false))
            .count()
    };
    let stats = svc.stats();
    lines.push(format!(
        "service passes={} batches={} batched_jobs={} completed={} cancelled={} deadline_missed={} failed={} rejected={} queued={} final_t={:.6}",
        stats.cluster_passes,
        stats.batches_formed,
        stats.batched_jobs,
        by_word("completed"),
        by_word("cancelled"),
        by_word("deadline-missed"),
        by_word("failed"),
        by_word("rejected"),
        svc.queue_depth(),
        final_t,
    ));
    for line in svc.slo_report().render_text().lines() {
        lines.push(line.to_string());
    }
    for a in svc.alerts() {
        lines.push(format!(
            "alert fired rule={} at={:.6} value={} threshold={}",
            a.rule, a.at_s, a.value, a.threshold
        ));
    }
    for pm in svc.postmortems() {
        lines.push(format!(
            "flight {} reason={} at={:.6}",
            pm.file_name(),
            pm.reason,
            pm.at_s
        ));
    }
    (svc, lines)
}

fn job_line(svc: &JobService, id: JobId) -> String {
    let spec = svc.spec(id).expect("known job");
    let status = svc.poll(id).expect("known job");
    let mut line = format!(
        "{id} tenant={} kind={} submit={:.6} status={}",
        spec.tenant,
        spec.kind.name(),
        svc.submitted_at(id).unwrap_or(0.0),
        status.word(),
    );
    match status {
        JobStatus::Completed {
            started_s,
            finished_s,
            wait_s,
            batched,
        } => {
            let pairs: usize = svc
                .outputs(id)
                .map(|o| o.iter().map(|k| k.len()).sum())
                .unwrap_or(0);
            line.push_str(&format!(
                " start={started_s:.6} finish={finished_s:.6} wait={wait_s:.6} batched={} pairs={pairs}",
                if batched { "yes" } else { "no" },
            ));
        }
        JobStatus::Cancelled {
            at_s,
            chunks_committed,
            chunks_released,
        } => {
            line.push_str(&format!(
                " at={at_s:.6} committed={chunks_committed} released={chunks_released}"
            ));
        }
        JobStatus::DeadlineMissed {
            deadline_s,
            chunks_committed,
            chunks_released,
        } => {
            line.push_str(&format!(
                " deadline={deadline_s:.6} committed={chunks_committed} released={chunks_released}"
            ));
        }
        JobStatus::Failed { error } => line.push_str(&format!(" error={error:?}")),
        JobStatus::Rejected(reason) => line.push_str(&format!(" reason=\"{reason}\"")),
        JobStatus::Queued | JobStatus::Running { .. } => {}
    }
    line
}

/// Parse and run a script in one step.
pub fn run_script(
    text: &str,
    cfg: ServiceConfig,
    tel: Telemetry,
) -> Result<(JobService, Vec<String>), WorkloadError> {
    let wl = parse(text)?;
    Ok(run(&wl, cfg, tel))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_tenants_actions_and_flags() {
        let wl = parse(
            "# demo\n\
             tenant a max_concurrent=2 gpu_seconds=1.5 mem_share=0.5\n\
             tenant b\n\
             at 0.0 submit a sio n=100 seed=1 chunk_kb=8 batch priority=3\n\
             at 0.1 submit b wo bytes=4096 dict=64 seed=2 chunk_kb=16 kill=1@0.05 deadline=0.2\n\
             at 0.2 cancel job1 # trailing comment\n",
        )
        .expect("parses");
        assert_eq!(wl.tenants.len(), 2);
        assert_eq!(wl.tenants[0].max_concurrent, 2);
        assert_eq!(wl.tenants[1].max_concurrent, u32::MAX);
        assert_eq!(wl.events.len(), 3);
        let Action::Submit(s0) = &wl.events[0].1 else {
            panic!("expected submit");
        };
        assert!(s0.batchable);
        assert_eq!(s0.priority, 3);
        let Action::Submit(s1) = &wl.events[1].1 else {
            panic!("expected submit");
        };
        assert_eq!(s1.kill, Some((1, 0.05)));
        assert_eq!(s1.deadline_s, Some(0.2));
        assert_eq!(wl.events[2].1, Action::Cancel("job1".to_string()));
    }

    #[test]
    fn rejects_malformed_lines_with_line_numbers() {
        assert_eq!(parse("bogus directive").unwrap_err().line, 1);
        assert_eq!(
            parse("tenant a\nat x submit a sio n=1").unwrap_err().line,
            2
        );
        assert!(parse("at 0 submit a sio seed=1")
            .unwrap_err()
            .message
            .contains("n="));
    }

    #[test]
    fn rejects_an_empty_dictionary_with_the_line() {
        // `dict=0` used to parse and then panic the whole service in the
        // text generator once the job was dispatched.
        let e = parse("tenant a\nat 0 submit a wo bytes=4096 dict=0 seed=1").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("dict"), "{e}");
        assert!(parse("tenant a\nat 0 submit a wo bytes=4096 dict=1").is_ok());
    }

    #[test]
    fn rejects_oversized_generated_inputs_with_the_line() {
        // Each of these lengths sizes an allocation once the job is
        // dispatched; the first two used to abort `gpmr serve` there.
        for (line, field) in [
            ("wo bytes=4096 dict=18446744073709551615 seed=1", "dict="),
            ("sio n=4000000000000000000 seed=1", "n="),
            ("wo bytes=4000000000000000000 dict=64", "bytes="),
        ] {
            let e = parse(&format!("tenant a\n\nat 0 submit a {line}")).unwrap_err();
            assert_eq!(e.line, 3, "{e}");
            assert!(e.message.contains("too large"), "{e}");
            assert!(e.message.contains(field), "{e}");
        }
        let at_the_bound = format!(
            "tenant a\nat 0 submit a sio n={}\nat 0 submit a wo bytes={} dict={}",
            crate::spec::MAX_SIO_INTEGERS,
            crate::spec::MAX_WO_BYTES,
            crate::spec::MAX_DICT_WORDS
        );
        assert_eq!(parse(&at_the_bound).unwrap().events.len(), 2);
    }
}
