//! Subcommand implementations. All output goes through the returned
//! `String` so commands are unit-testable without capturing stdout.

use std::ops::Bound::{Excluded, Included};
use std::sync::Arc;

use gpmr_apps::datasets::second_seed;
use gpmr_apps::table::{self, dictionary_words, AppInput, AppOutput};
use gpmr_apps::text::Dictionary;
use gpmr_apps::{kmc, lr, Benchmark};
use gpmr_bench::harness::chunk_bytes_tuned;
use gpmr_bench::perf as perfsuite;
use gpmr_bench::{paper, DEFAULT_SCALE};
use gpmr_core::{EngineError, EngineTuning, JobTimings, Journal, RunOpts};
use gpmr_service::{render_prometheus, SloReport};
use gpmr_sim_gpu::{FaultPlan, GpuSpec, PcieLink};
use gpmr_sim_net::{Cluster, CpuSpec, Nic, Topology};
use gpmr_telemetry::analyze;
use gpmr_telemetry::baseline::{diff_sets, BaselineSet, Verdict};
use gpmr_telemetry::{export, Telemetry, TelemetrySnapshot};

use crate::args::Kind::{Float, Switch, Text, Uint};
use crate::args::{ArgError, Args, Flag, Kind};

/// The largest MM order: its square is the largest element count.
const MM_MAX_ORDER: usize = 1 << 16;

/// The benchmarks' `--benchmark` spellings, in table order.
fn bench_names() -> Vec<String> {
    Benchmark::ALL
        .into_iter()
        .map(|b| b.name().to_ascii_lowercase())
        .collect()
}

/// `"a"`, `"a or b"`, `"a, b, or c"`.
fn or_list(names: &[String]) -> String {
    match names {
        [one] => one.clone(),
        [one, other] => format!("{one} or {other}"),
        [rest @ .., last] => format!("{}, or {last}", rest.join(", ")),
        [] => String::new(),
    }
}

/// The help text.
pub fn help() -> String {
    HELP.replace("{benchmarks}", &bench_names().join("|"))
}

const HELP: &str = "\
gpmr — Multi-GPU MapReduce on a simulated GPU cluster

USAGE:
    gpmr run    --benchmark <{benchmarks}> [--gpus N] [--size X]
                [--scale K] [--seed S] [--trace]
                [--partition <rr|range>] [--zipf S]
                [--pipeline-depth K] [--gpu-direct]
                [--metrics-out F] [--trace-out F] [--events-out F]
                [--fault-plan SPEC | --fault-seed S]
                [--journal F [--resume] [--checkpoint-every N]]
    gpmr kmeans [--points N] [--k K] [--gpus N] [--iterations I] [--seed S]
                [--journal F [--resume] [--checkpoint-every N]]
    gpmr analyze --events events.jsonl [--json]
    gpmr trace  export --in events.jsonl --out trace.json
    gpmr trace  check  --in trace.json
    gpmr trace  summary --in events.jsonl
    gpmr perf   record --out F [--scale N]
    gpmr perf   diff --baseline F --against F [--tolerance T] [--json]
    gpmr serve  --workload FILE [--gpus N] [--engines N] [--queue-depth N]
                [--batch-window S] [--batch-max N] [--slo-target T]
                [--alerts RULES] [--flight-dir DIR] [--slo-out F]
                [--metrics-out F] [--trace-out F] [--events-out F]
    gpmr paper  table1 [--scale N]
    gpmr paper  table2 [--scale N]
    gpmr paper  table3 [--scale N]
    gpmr paper  table4
    gpmr paper  fig2 [--scale N] [--csv]
    gpmr paper  fig3 [--scale N] [--csv]
    gpmr paper  weak [--scale N] [--full]
    gpmr paper  ablations [--scale N]
    gpmr info   [--gpus N]
    gpmr help

RUN OPTIONS:
    --benchmark   which paper benchmark to run (required)
    --gpus        cluster size in GPUs                    [default: 4; 1..=1024]
    --size        elements (or matrix order for mm)       [default: per benchmark; <= 2^32]
    --scale       workload/hardware scale divisor         [default: 1]
    --seed        workload generator seed                 [default: 42]
    --trace       print an ASCII Gantt chart of the schedule
    --partition   shuffle partitioner for sio/wo: rr hashes keys
                  round-robin; range samples the input, derives
                  load-balancing splitters, and routes by key range
                  (the skew-aware choice)                 [default: rr]
    --zipf        draw the sio/wo workload from a Zipf(S) distribution
                  instead of uniform — a few hot keys dominate, the
                  workload --partition=range exists for
    --pipeline-depth
                  upload pipeline depth: H2D copy buffers in flight per
                  rank; 1 disables pipelining             [default: 4; 1..=64]
    --gpu-direct  shuffle pairs GPU-to-GPU over the fabric instead of
                  bouncing through host staging buffers
    --metrics-out write a metrics snapshot to F: JSON when F ends in
                  .json, Prometheus text exposition (counters, gauges,
                  histogram _bucket/_sum/_count series; under serve also
                  labeled per-tenant SLO gauges) when it ends in .prom,
                  text otherwise
    --trace-out   write a Chrome/Perfetto trace-event JSON to F
                  (open in https://ui.perfetto.dev)
    --events-out  write the raw telemetry stream (spans, counter samples,
                  metrics) to F as JSONL; feed to `gpmr trace export`
    --fault-plan  inject faults from an explicit plan. `;`-separated:
                  kill:R@T (lose rank R's GPU at T seconds),
                  add:R@T (rank R's GPU joins the running job at T;
                  it steals map work but is not a reducer),
                  stall:R@T+D (freeze rank R at T for D seconds),
                  xfail:F->T@S..U*N (fail first N tries of F->T transfers
                  ready in [S,U); `*` = any rank, `..U` optional),
                  delay:F->T@S..U+D (delay matching transfers by D).
                  Example: --fault-plan 'kill:1@2e-3; xfail:0->2@0..1e-2*2'
    --fault-seed  generate a random fault plan from seed S (deterministic;
                  always leaves at least one GPU alive)
    --journal     write-ahead job journal: append every scheduling
                  decision and stage commit (content-hashed) to F so an
                  interrupted run can be resumed bit-identically
    --resume      verify-replay the journal at F to its last consistent
                  record, then run the rest of the job; torn tails are
                  trimmed, a mismatched job aborts with a divergence error
    --checkpoint-every
                  flush the journal every N records (stage-barrier
                  records always flush immediately)      [default: 1; at least 1]

ANALYZE:
    Performance diagnosis: critical-path extraction with per-stage
    attribution, per-rank busy/blocked/idle breakdown, imbalance score,
    map/send overlap, and named findings (stragglers, poor overlap,
    sort-bound jobs, transfer-retry hotspots) of the JSONL stream that
    `gpmr run --events-out F` or `gpmr serve --events-out F` recorded
    (--events F, required). --json emits the machine-readable twin of
    the report.

TRACE SUBCOMMAND:
    export        convert a --events-out JSONL stream to Perfetto JSON
    check         validate a Perfetto JSON file (structure, monotonic ts)
    summary       print per-track busy-time/utilization from a JSONL stream

SERVE:
    Multi-tenant job service over a scripted workload in simulated time.
    The workload file declares tenants with quotas and timed actions:
        tenant alice max_concurrent=2 gpu_seconds=1.5 mem_share=0.5
        at 0.000 submit alice sio n=20000 seed=1 chunk_kb=16 batch
        at 0.002 submit bob   wo  bytes=65536 dict=512 seed=3 chunk_kb=16 deadline=0.004
        at 0.004 cancel job1
    Submit flags: batch (small-job batching), journal (write-ahead
    journal), kill=R@T (fail-stop GPU R at T seconds into the job),
    deadline=D (cancel D seconds after submission), priority=P.
    --gpus GPUs per engine slot [default: 4; 1..=1024]; --engines
    concurrent jobs [default: 2; 0..=1024]; --queue-depth admission limit
    [default: 64; 0..=1024]; --batch-window seconds [default: 0.05; >= 0];
    --batch-max members [default: 4; 0..=1024]. Prints one line per action
    and per job, then tenant and service summaries, the per-tenant SLO
    report, and any alert and postmortem lines; per-tenant activity exports
    as separate Perfetto tracks via --trace-out/--events-out.
    --slo-target  deadline hit-rate objective; 1 - T is the error
                  budget in the SLO report               [default: 0.95; in [0, 1)]
    --alerts      `;`-separated alert rules evaluated at every event
                  boundary over sliding-window series, e.g.
                  'deep: last(service.queue_depth) > 8 for 0.001;
                   misses: sum(service.deadline_missed) > 0'
                  (fn: rate|sum|last|pNN|ratio; implies telemetry)
    --flight-dir  keep a flight-recorder ring and write a Perfetto
                  postmortem trace into DIR on every deadline miss,
                  GPU loss, cancellation, and alert firing
    --slo-out     write the per-tenant SLO report to F: deadline
                  hit/miss/cancel/fail rates, queue-wait and end-to-end
                  latency percentiles (p50/p95/p99), GPU-seconds burnt,
                  and the error-budget verdict against --slo-target. JSON
                  when F ends in .json, a self-contained page for .html,
                  the text serve prints otherwise

PERF SUBCOMMAND:
    record        run the WO+SIO gate suite — 1/4/8 ranks plus the
                  GPU-direct and pipelining-off variants at 8 ranks —
                  and write the baseline set to --out (required;
                  --scale, default 64)
    diff          compare two recorded baseline sets, --baseline and
                  --against. Exits non-zero when the makespan regresses
                  beyond the tolerance (--tolerance, default: the
                  baseline file's, ±10%) or the sets were recorded at
                  different scales.

PAPER SUBCOMMAND:
    Regenerates the paper's evaluation (§6), one artifact per mode:
    table1 dataset sizes; table2 and table3 GPMR's speedup over Phoenix
    and Mars at 1 and 4 GPUs; table4 source lines per benchmark; fig2 the
    runtime breakdown at 1/8/64 GPUs; fig3 parallel efficiency; weak the
    weak-scaling sweep (--full: all of Table 1 set two, not the mid-range
    size); ablations the design ablations. --scale N divides element
    counts by N and matrix orders by about sqrt(N), with the hardware
    scaled to match [default: 64]; MM runs only up to --scale 80. --csv
    appends machine-readable rows.
";

/// Errors surfaced to the user.
#[derive(Debug)]
pub enum CliError {
    /// Argument parsing or validation failed.
    Args(ArgError),
    /// A semantic problem with the request.
    Invalid(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::Invalid(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}

impl From<EngineError> for CliError {
    fn from(e: EngineError) -> Self {
        CliError::Invalid(e.to_string())
    }
}

/// The largest element count a size flag accepts: above the paper's
/// largest input (512 M elements), and small enough that no product with
/// an element size overflows `isize`.
const ELEMS: u64 = 1 << 32;
/// The largest count of GPUs, engine slots, queue and batch entries.
const SLOTS: u64 = 1024;

const fn flag(name: &'static str, kind: Kind) -> Flag {
    Flag { name, kind }
}

const SEED: Flag = flag("seed", Uint(0, u64::MAX));
const SCALE: Flag = flag("scale", Uint(0, u64::MAX));
const JSON: Flag = flag("json", Switch);
const IN: Flag = flag("in", Text);
const OUT: Flag = flag("out", Text);
const CSV: Flag = flag("csv", Switch);

/// Read by every command that builds a cluster.
pub const CLUSTER: &[Flag] = &[flag("gpus", Uint(1, SLOTS))];
/// `run`'s options: the job and its engine tuning.
pub const RUN: &[Flag] = &[
    flag("benchmark", Text),
    flag("size", Uint(0, ELEMS)),
    SCALE,
    SEED,
    flag("partition", Text),
    flag("zipf", Float(Excluded(0.0), f64::INFINITY)),
    flag("pipeline-depth", Uint(1, 64)),
    flag("gpu-direct", Switch),
    flag("fault-plan", Text),
    flag("fault-seed", Uint(0, u64::MAX)),
];
/// Telemetry export files.
pub const OUTPUTS: &[Flag] = &[
    flag("metrics-out", Text),
    flag("trace-out", Text),
    flag("events-out", Text),
];
/// The write-ahead journal.
pub const JOURNAL: &[Flag] = &[
    flag("journal", Text),
    flag("resume", Switch),
    flag("checkpoint-every", Uint(1, u32::MAX as u64)),
];
/// The job service.
pub const SERVICE: &[Flag] = &[
    flag("workload", Text),
    flag("engines", Uint(0, SLOTS)),
    flag("queue-depth", Uint(0, SLOTS)),
    flag("batch-window", Float(Included(0.0), f64::INFINITY)),
    flag("batch-max", Uint(0, SLOTS)),
    flag("slo-target", Float(Included(0.0), 1.0)),
    flag("alerts", Text),
];
const KMEANS: &[Flag] = &[
    flag("points", Uint(0, ELEMS)),
    flag("k", Uint(1, ELEMS)),
    flag("iterations", Uint(0, u32::MAX as u64)),
    SEED,
];
const PERF_DIFF: &[Flag] = &[
    flag("baseline", Text),
    flag("against", Text),
    flag("tolerance", Float(Included(0.0), f64::INFINITY)),
    JSON,
];

/// One `gpmr` subcommand: the flags it reads and the function that runs it.
pub struct Command {
    /// The subcommand.
    pub name: &'static str,
    /// The mode word after it (`trace export`); empty for a command without.
    pub mode: &'static str,
    /// The groups and flags the handler reads; [`Args::parse`] refuses the rest.
    pub groups: &'static [&'static [Flag]],
    /// The handler.
    pub run: fn(&Args) -> Result<String, CliError>,
}

impl Command {
    /// Every flag the command accepts.
    pub fn flags(&self) -> impl Iterator<Item = &'static Flag> {
        self.groups.iter().flat_map(|group| group.iter())
    }
}

const fn row(
    name: &'static str,
    mode: &'static str,
    groups: &'static [&'static [Flag]],
    run: fn(&Args) -> Result<String, CliError>,
) -> Command {
    Command {
        name,
        mode,
        groups,
        run,
    }
}

/// The command table: the one place a subcommand, the flags it accepts and
/// their ranges are declared.
pub const COMMANDS: &[Command] = &[
    row(
        "run",
        "",
        &[CLUSTER, RUN, OUTPUTS, JOURNAL, &[flag("trace", Switch)]],
        cmd_run,
    ),
    row("analyze", "", &[&[flag("events", Text), JSON]], cmd_analyze),
    row("kmeans", "", &[CLUSTER, JOURNAL, KMEANS], cmd_kmeans),
    row(
        "serve",
        "",
        &[
            CLUSTER,
            SERVICE,
            OUTPUTS,
            &[flag("flight-dir", Text), flag("slo-out", Text)],
        ],
        cmd_serve,
    ),
    row("info", "", &[CLUSTER], cmd_info),
    row("trace", "export", &[&[IN, OUT]], trace_export),
    row("trace", "check", &[&[IN]], trace_check),
    row("trace", "summary", &[&[IN]], trace_summary),
    row("perf", "record", &[&[OUT, SCALE]], perf_record),
    row("perf", "diff", &[PERF_DIFF], perf_diff),
    row("paper", "table1", &[&[SCALE]], |a| {
        Ok(paper::table1(scale(a)))
    }),
    row("paper", "table2", &[&[SCALE]], |a| {
        Ok(paper::table2(scale(a))?)
    }),
    row("paper", "table3", &[&[SCALE]], |a| {
        Ok(paper::table3(scale(a))?)
    }),
    row("paper", "table4", &[], |_| Ok(paper::table4())),
    row("paper", "fig2", &[&[SCALE, CSV]], |a| {
        Ok(paper::fig2(scale(a), a.flag("csv"))?)
    }),
    row("paper", "fig3", &[&[SCALE, CSV]], |a| {
        Ok(paper::fig3(scale(a), a.flag("csv"))?)
    }),
    row("paper", "weak", &[&[SCALE, flag("full", Switch)]], |a| {
        Ok(paper::weak(scale(a), a.flag("full"))?)
    }),
    row("paper", "ablations", &[&[SCALE]], |a| {
        Ok(paper::ablations(scale(a))?)
    }),
];

/// Parse tokens and execute; returns the text to print.
pub fn dispatch<I, S>(tokens: I) -> Result<String, CliError>
where
    I: IntoIterator<Item = S>,
    S: Into<String>,
{
    let tokens: Vec<String> = tokens.into_iter().map(Into::into).collect();
    let name = match tokens.first().map(String::as_str) {
        None | Some("help" | "-h") => return Ok(help()),
        Some(option) if option.starts_with("--") => return Ok(help()),
        Some(name) => name,
    };
    let rows: Vec<&Command> = COMMANDS.iter().filter(|c| c.name == name).collect();
    let (mut row, mut rest) = match rows.first() {
        Some(first) => (*first, &tokens[1..]),
        None => {
            let unknown = format!("unknown subcommand {name:?}; try `gpmr help`");
            return Err(CliError::Invalid(unknown));
        }
    };
    if !row.mode.is_empty() {
        let modes = or_list(&rows.iter().map(|c| c.mode.to_string()).collect::<Vec<_>>());
        let Some(mode) = rest.first().filter(|m| !m.starts_with("--")) else {
            return Err(CliError::Invalid(format!("{name} needs a mode: {modes}")));
        };
        let Some(found) = rows.iter().find(|c| c.mode == mode) else {
            let unknown = format!("unknown {name} mode {mode:?}; expected {modes}");
            return Err(CliError::Invalid(unknown));
        };
        (row, rest) = (*found, &rest[1..]);
    }
    (row.run)(&Args::parse(rest, row)?)
}

fn report(label: &str, gpus: u32, items: u64, tm: &JobTimings) -> String {
    let p = tm.mean_percentages();
    let t = tm.total;
    let throughput = if t.as_secs() > 0.0 {
        items as f64 / t.as_secs() / 1e6
    } else {
        0.0
    };
    let recovery =
        if tm.gpus_lost + tm.chunks_requeued + tm.transfer_retries + tm.stalls_injected > 0 {
            format!(
            "recovery       : {} GPU(s) lost, {} chunks requeued, {} transfer retries, {} stalls\n",
            tm.gpus_lost, tm.chunks_requeued, tm.transfer_retries, tm.stalls_injected,
        )
        } else {
            String::new()
        };
    let elastic = if tm.gpus_added > 0 {
        format!("elasticity     : {} GPU(s) joined mid-job\n", tm.gpus_added)
    } else {
        String::new()
    };
    format!(
        "{label} on {gpus} GPU(s)\n\
         simulated time : {t}\n\
         throughput     : {throughput:.1} M items/s\n\
         pairs          : {} emitted, {} shuffled, {} chunks stolen\n\
         {recovery}{elastic}breakdown      : map {:.1}%  bin {:.1}%  sort {:.1}%  reduce {:.1}%  sched {:.1}%\n",
        tm.pairs_emitted,
        tm.pairs_shuffled,
        tm.chunks_stolen,
        p[0],
        p[1],
        p[2],
        p[3],
        p[4],
    )
}

/// Whether an output file was requested, so the run must record telemetry.
fn wants_outputs(args: &Args) -> bool {
    OUTPUTS.iter().any(|flag| args.flag(flag.name))
}

fn write_file(path: &str, contents: &str) -> Result<(), CliError> {
    std::fs::write(path, contents)
        .map_err(|e| CliError::Invalid(format!("cannot write {path}: {e}")))
}

fn read_file(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| CliError::Invalid(format!("cannot read {path}: {e}")))
}

/// `--journal`/`--resume`/`--checkpoint-every`, validated together.
fn check_journal_flags(args: &Args) -> Result<(), CliError> {
    if !args.flag("journal") && (args.flag("resume") || args.flag("checkpoint-every")) {
        return Err(CliError::Invalid(
            "--resume/--checkpoint-every need --journal <file>".into(),
        ));
    }
    Ok(())
}

/// Open the `--journal`: truncate-and-create for a fresh run, scan and
/// trim the valid prefix for `--resume`.
fn open_journal(args: &Args) -> Result<Option<Journal>, CliError> {
    let Some(p) = args.get("journal") else {
        return Ok(None);
    };
    let every = args.num("checkpoint-every").unwrap_or(1);
    let journal = if args.flag("resume") {
        Journal::resume(p, every)
    } else {
        Journal::create(p, every)
    };
    journal
        .map(Some)
        .map_err(|e| CliError::Invalid(format!("cannot open journal {p}: {e}")))
}

/// Append the journal status line to the run report.
fn journal_line(out: &mut String, journal: &Option<Journal>) {
    if let Some(j) = journal {
        let torn = if j.torn_bytes() > 0 {
            format!(", {} torn byte(s) trimmed", j.torn_bytes())
        } else {
            String::new()
        };
        out.push_str(&format!(
            "journal        : {} record(s) replayed, {} appended, {} flush(es){torn} ({})\n",
            j.replayed(),
            j.appended(),
            j.flushes(),
            j.path().display(),
        ));
    }
}

/// Write the `--metrics-out`, `--trace-out` and `--events-out` files of a
/// run; a `.prom` metrics file carries `slo`'s per-tenant gauges.
fn write_outputs(
    out: &mut String,
    snap: &TelemetrySnapshot,
    slo: Option<&SloReport>,
    args: &Args,
) -> Result<(), CliError> {
    if let Some(path) = args.get("metrics-out") {
        let text = if path.ends_with(".json") {
            snap.metrics.to_json()
        } else if path.ends_with(".prom") {
            render_prometheus(&snap.metrics, slo)
        } else {
            snap.metrics.render_text()
        };
        write_file(path, &text)?;
        out.push_str(&format!("metrics        : written to {path}\n"));
    }
    if let Some(path) = args.get("trace-out") {
        write_file(path, &export::to_perfetto_json(snap))?;
        out.push_str(&format!(
            "trace          : written to {path} (open in https://ui.perfetto.dev)\n"
        ));
    }
    if let Some(path) = args.get("events-out") {
        write_file(path, &export::to_jsonl(snap))?;
        out.push_str(&format!("events         : written to {path}\n"));
    }
    Ok(())
}

/// A flag the command cannot run without.
fn required<'a>(args: &'a Args, command: &str, key: &str) -> Result<&'a str, CliError> {
    args.get(key)
        .ok_or_else(|| CliError::Invalid(format!("{command} needs --{key} <file>")))
}

/// The recording `command` reads from the file its flag `key` names.
fn recorded_snapshot(args: &Args, command: &str, key: &str) -> Result<TelemetrySnapshot, CliError> {
    let input = required(args, command, key)?;
    export::snapshot_from_jsonl(&read_file(input)?).map_err(CliError::Invalid)
}

fn trace_export(args: &Args) -> Result<String, CliError> {
    let snap = recorded_snapshot(args, "trace", "in")?;
    let out_path = required(args, "trace export", "out")?;
    write_file(out_path, &export::to_perfetto_json(&snap))?;
    Ok(format!(
        "exported {} span(s), {} sample(s), {} track(s) -> {out_path} \
         (open in https://ui.perfetto.dev)\n",
        snap.spans.len(),
        snap.samples.len(),
        snap.tracks.len(),
    ))
}

fn trace_check(args: &Args) -> Result<String, CliError> {
    let input = required(args, "trace", "in")?;
    let stats = export::validate_perfetto(&read_file(input)?).map_err(CliError::Invalid)?;
    Ok(format!(
        "{input}: OK — {} complete event(s), {} counter event(s), \
         {} named track(s), ends at {:.1} us\n",
        stats.complete_events, stats.counter_events, stats.named_tracks, stats.end_ts_us,
    ))
}

fn trace_summary(args: &Args) -> Result<String, CliError> {
    Ok(export::summary_report(&recorded_snapshot(args, "trace", "in")?).render_text())
}

/// Apply `--fault-plan`/`--fault-seed` to a freshly built cluster.
fn apply_faults(cluster: &mut Cluster, args: &Args, gpus: u32) -> Result<(), CliError> {
    if let Some(spec) = args.get("fault-plan") {
        let plan = FaultPlan::parse(spec).map_err(|e| CliError::Invalid(e.to_string()))?;
        cluster.set_fault_plan(Some(plan));
    } else if let Some(fault_seed) = args.num("fault-seed") {
        // Horizon covers the first ~10 simulated ms, where the default
        // benchmark sizes do most of their work.
        cluster.set_fault_plan(Some(FaultPlan::generate(fault_seed, gpus, 10e-3)));
    }
    Ok(())
}

/// `--gpus`: every command that builds a cluster reads it through here.
fn gpus_from_args(args: &Args) -> u32 {
    args.num("gpus").unwrap_or(4)
}

/// `gpmr analyze`: performance diagnosis of a recorded JSONL stream.
fn cmd_analyze(args: &Args) -> Result<String, CliError> {
    let analysis = analyze::analyze(&recorded_snapshot(args, "analyze", "events")?);
    Ok(if args.flag("json") {
        analysis.to_json()
    } else {
        analysis.render_text()
    })
}

/// `--scale` of the paper artifacts and the perf gate.
fn scale(args: &Args) -> u64 {
    args.num("scale").unwrap_or(DEFAULT_SCALE)
}

/// `gpmr perf record`: run the gate suite and write its baseline set.
fn perf_record(args: &Args) -> Result<String, CliError> {
    let out_path = required(args, "perf record", "out")?;
    let scale = scale(args);
    let mut out = format!("recording perf baselines (scale {scale})\n");
    let set = perfsuite::record_suite(scale, |b, a| {
        out.push_str(&format!(
            "  {:<10} makespan {:.6}s  bounding {} ({:.1}%)  imbalance CV {:.3}\n",
            b.name,
            a.makespan_s,
            b.bounding_stage,
            a.bounding_share * 100.0,
            b.imbalance_cv,
        ));
    });
    write_file(out_path, &set.to_json())?;
    out.push_str(&format!("wrote {out_path}\n"));
    Ok(out)
}

/// `gpmr perf diff`: compare a recorded baseline set against another.
fn perf_diff(args: &Args) -> Result<String, CliError> {
    let base_path = required(args, "perf diff", "baseline")?;
    let new_path = required(args, "perf diff", "against")?;
    let read = |path| BaselineSet::from_json(&read_file(path)?).map_err(CliError::Invalid);
    let (old, new) = (read(base_path)?, read(new_path)?);
    let default_tol = if old.tolerance > 0.0 {
        old.tolerance
    } else {
        perfsuite::DEFAULT_TOLERANCE
    };
    let tolerance: f64 = args.num("tolerance").unwrap_or(default_tol);
    let report = diff_sets(&old, &new, tolerance);
    let body = if args.flag("json") {
        report.to_json()
    } else {
        format!(
            "comparing {base_path} against recorded set {new_path}\n{}",
            report.render_text()
        )
    };
    // A Fail verdict must surface as a non-zero exit for CI gating.
    if report.verdict == Verdict::Fail {
        Err(CliError::Invalid(body))
    } else {
        Ok(body)
    }
}

/// `--partition` and `--zipf`: whether to shuffle through sampled range
/// splitters, and the Zipf exponent of a skewed workload.
fn skew_from_args(args: &Args, bench: Benchmark) -> Result<(bool, Option<f64>), CliError> {
    let partition = args.get("partition").unwrap_or("rr").to_ascii_lowercase();
    let range_partition = match partition.as_str() {
        "rr" | "roundrobin" => false,
        "range" => true,
        other => {
            return Err(CliError::Invalid(format!(
                "unknown --partition {other:?}; expected rr or range"
            )))
        }
    };
    let zipf: Option<f64> = args.num("zipf");
    if (range_partition || zipf.is_some()) && !matches!(bench, Benchmark::Sio | Benchmark::Wo) {
        return Err(CliError::Invalid(
            "--partition=range/--zipf apply only to the shuffling benchmarks (sio, wo)".into(),
        ));
    }
    Ok((range_partition, zipf))
}

/// `gpmr run`: run the benchmark the arguments name and report it,
/// recording telemetry only when the Gantt chart or an output file needs
/// it (telemetry off costs nothing).
fn cmd_run(args: &Args) -> Result<String, CliError> {
    let name = args.get("benchmark").ok_or_else(|| {
        CliError::Invalid(format!(
            "run needs --benchmark <{}>",
            bench_names().join("|")
        ))
    })?;
    let bench = Benchmark::from_cli_name(name).ok_or_else(|| {
        CliError::Invalid(format!(
            "unknown benchmark {:?}; expected {}",
            name.to_ascii_lowercase(),
            or_list(&bench_names())
        ))
    })?;
    let gpus = gpus_from_args(args);
    let scale: u64 = args.num("scale").unwrap_or(1);
    let seed: u64 = args.num("seed").unwrap_or(42);
    let size: usize = args.num("size").unwrap_or(bench.default_size());
    let want_trace = args.flag("trace");
    let mut tuning = EngineTuning::default();
    tuning.pipeline_depth = args.num("pipeline-depth").unwrap_or(tuning.pipeline_depth);
    tuning.gpu_direct = args.flag("gpu-direct");
    check_journal_flags(args)?;
    let (range_partition, zipf) = skew_from_args(args, bench)?;
    if bench == Benchmark::Mm && (size == 0 || !size.is_multiple_of(16) || size > MM_MAX_ORDER) {
        return Err(CliError::Invalid(format!(
            "--size for mm must be a positive multiple of 16, at most {MM_MAX_ORDER}"
        )));
    }
    let mut cluster = Cluster::accelerator_scaled(gpus, GpuSpec::gt200(), scale as f64);
    apply_faults(&mut cluster, args, gpus)?;
    let input = AppInput::generate(bench, size, seed, zipf, || {
        let words = dictionary_words(scale);
        (
            Arc::new(Dictionary::generate(words, seed)),
            second_seed(seed),
        )
    });
    let chunk_bytes = chunk_bytes_tuned(input.bytes(), gpus, scale, tuning.pipeline_depth);
    let tel = if want_trace || wants_outputs(args) {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let mut journal = open_journal(args)?;
    let opts = RunOpts {
        tuning,
        tel: tel.clone(),
        journal: journal.as_mut(),
        ..RunOpts::default()
    };
    let run = table::run(&input, &mut cluster, chunk_bytes, range_partition, opts)?;

    // MM's `--size` is the matrix order; each factor holds order² elements.
    let items = match bench {
        Benchmark::Mm => (size as u64).pow(2),
        _ => size as u64,
    };
    let mut out = report(bench.title(), gpus, items, &run.timings);
    if let Some((splitters, samples)) = run.splitters {
        out.push_str(&format!(
            "partition      : range ({splitters} splitters from {samples} samples)\n"
        ));
    }
    journal_line(&mut out, &journal);
    if let (Benchmark::Lr, AppOutput::Sums(sums)) = (bench, &run.output) {
        let model = lr::model_from_stats(&lr::stats_from_output(sums));
        out.push_str(&format!(
            "model          : y = {:.4}x + {:.4} (r = {:.5})\n",
            model.slope, model.intercept, model.correlation
        ));
    }
    if tel.is_enabled() {
        let snap = tel.snapshot();
        write_outputs(&mut out, &snap, None, args)?;
        if want_trace {
            out.push('\n');
            out.push_str(&export::gantt(&snap, gpus, 100));
        }
    }
    Ok(out)
}

fn cmd_kmeans(args: &Args) -> Result<String, CliError> {
    let points: usize = args.num("points").unwrap_or(200_000);
    let k: usize = args.num("k").unwrap_or(8);
    let gpus = gpus_from_args(args);
    let iterations: usize = args.num("iterations").unwrap_or(20);
    let seed: u64 = args.num("seed").unwrap_or(42);
    let data = kmc::generate_points(points, k, seed);
    let init = kmc::initial_centers(k, second_seed(seed));
    let mut cluster = Cluster::accelerator(gpus, GpuSpec::gt200());
    let chunk_points = (points / (4 * gpus as usize)).max(1024);
    check_journal_flags(args)?;
    let mut journal = open_journal(args)?;
    let result = gpmr_apps::iterative::run_kmeans(
        &mut cluster,
        &data,
        init,
        chunk_points,
        iterations,
        1e-4,
        journal.as_mut(),
    )?;
    let mut out = format!(
        "Iterative K-Means: {points} points, k={k}, {gpus} GPU(s)
         iterations     : {} (tolerance 1e-4, {} device-resident)
         simulated time : {}
         convergence    : {:?}
         final centers  :
",
        result.iterations,
        result.resident_rounds,
        result.total_time,
        result
            .movement
            .iter()
            .map(|m| (m * 1e4).round() / 1e4)
            .collect::<Vec<_>>(),
    );
    for (i, c) in result.centers.iter().enumerate() {
        out.push_str(&format!(
            "  c{i:<2} [{:+.3}, {:+.3}, {:+.3}, {:+.3}]
",
            c[0], c[1], c[2], c[3]
        ));
    }
    journal_line(&mut out, &journal);
    Ok(out)
}

/// The service + observability config of `serve`: cluster/queue/batch
/// knobs plus `--slo-target`,
/// `--alerts`, and a flight ring when `--flight-dir` is given.
fn service_cfg_from_args(args: &Args) -> Result<gpmr_service::ServiceConfig, CliError> {
    use gpmr_service::{ObsConfig, ServiceConfig, SloPolicy};
    let alerts = match args.get("alerts") {
        Some(spec) => gpmr_telemetry::AlertRule::parse_list(spec)
            .map_err(|e| CliError::Invalid(format!("invalid --alerts: {e}")))?,
        None => Vec::new(),
    };
    let deadline_target = args
        .num("slo-target")
        .unwrap_or(SloPolicy::default().deadline_target);
    let default = ServiceConfig::default();
    Ok(ServiceConfig {
        gpus: gpus_from_args(args),
        engines: args.num("engines").unwrap_or(default.engines),
        max_queue_depth: args.num("queue-depth").unwrap_or(default.max_queue_depth),
        batch_window_s: args.num("batch-window").unwrap_or(default.batch_window_s),
        batch_max: args.num("batch-max").unwrap_or(default.batch_max),
        obs: ObsConfig {
            alerts,
            flight_capacity: if args.flag("flight-dir") { 4096 } else { 0 },
            slo: SloPolicy { deadline_target },
        },
        ..default
    })
}

/// `gpmr serve`: run the `--workload` script through a
/// [`gpmr_service::JobService`], with telemetry on when an output file or
/// an alert rule (which reads the windowed series) needs it.
fn cmd_serve(args: &Args) -> Result<String, CliError> {
    let script = read_file(required(args, "serve", "workload")?)?;
    let cfg = service_cfg_from_args(args)?;
    let tel = if wants_outputs(args) || !cfg.obs.alerts.is_empty() {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let (svc, lines) = gpmr_service::run_script(&script, cfg, tel)
        .map_err(|e| CliError::Invalid(e.to_string()))?;
    let mut out = String::new();
    for line in lines {
        out.push_str(&line);
        out.push('\n');
    }
    if let Some(dir) = args.get("flight-dir") {
        std::fs::create_dir_all(dir)
            .map_err(|e| CliError::Invalid(format!("cannot create {dir}: {e}")))?;
        for pm in svc.postmortems() {
            let path = std::path::Path::new(dir).join(pm.file_name());
            let path = path.to_string_lossy();
            // The document is assembled as it is written, never held.
            std::fs::File::create(&*path)
                .and_then(|file| {
                    let mut w = std::io::BufWriter::new(file);
                    pm.write_trace(&mut w)?;
                    std::io::Write::flush(&mut w)
                })
                .map_err(|e| CliError::Invalid(format!("cannot write {path}: {e}")))?;
            out.push_str(&format!("postmortem     : written to {path}\n"));
        }
    }
    let slo = svc.slo_report();
    if let Some(path) = args.get("slo-out") {
        let text = if path.ends_with(".json") {
            slo.to_json()
        } else if path.ends_with(".html") {
            slo.render_html()
        } else {
            slo.render_text()
        };
        write_file(path, &text)?;
        out.push_str(&format!("slo            : written to {path}\n"));
    }
    if wants_outputs(args) {
        write_outputs(&mut out, &svc.telemetry().snapshot(), Some(&slo), args)?;
    }
    Ok(out)
}

fn cmd_info(args: &Args) -> Result<String, CliError> {
    let spec = GpuSpec::gt200();
    let topo = Topology::accelerator(gpus_from_args(args));
    let link = PcieLink::gen1_x16();
    let nic = Nic::qdr_infiniband();
    let cpu = CpuSpec::dual_opteron_2216();
    Ok(format!(
        "Modelled hardware (the paper's NCSA Accelerator cluster)\n\
         GPU        : {} — {} SMs x {} cores @ {:.3} GHz = {:.0} GFLOP/s peak\n\
         GPU memory : {} MB usable, {:.0} GB/s\n\
         PCI-e      : gen-1 x16, {:.1} GB/s per direction\n\
         network    : QDR InfiniBand, {:.1} GB/s per node, {:.0} us latency\n\
         host CPU   : {} ({:.1} GFLOP/s, {:.1} GB/s)\n\
         topology   : {} GPU(s) over {} node(s), {} per node\n",
        spec.name,
        spec.sm_count,
        spec.cores_per_sm,
        spec.clock_ghz,
        spec.peak_flops() / 1e9,
        spec.mem_capacity >> 20,
        spec.mem_bandwidth / 1e9,
        link.bandwidth / 1e9,
        nic.bandwidth / 1e9,
        nic.latency_s * 1e6,
        cpu.name,
        cpu.peak_ops() / 1e9,
        cpu.mem_bandwidth / 1e9,
        topo.total_gpus,
        topo.nodes,
        topo.gpus_per_node,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(tokens: &[&str]) -> Result<String, CliError> {
        dispatch(tokens.iter().copied())
    }

    #[test]
    fn help_on_empty_or_help() {
        assert!(run(&[]).unwrap().contains("USAGE"));
        assert!(run(&["help"]).unwrap().contains("USAGE"));
    }

    #[test]
    fn unknown_subcommand_errors() {
        let err = run(&["frobnicate"]).unwrap_err();
        assert!(err.to_string().contains("unknown subcommand"));
    }

    #[test]
    fn info_prints_hardware() {
        let out = run(&["info", "--gpus", "8"]).unwrap();
        assert!(out.contains("GT200"));
        assert!(out.contains("8 GPU(s) over 2 node(s)"));
    }

    #[test]
    fn run_requires_benchmark() {
        let err = run(&["run"]).unwrap_err();
        assert!(err.to_string().contains("--benchmark"));
    }

    #[test]
    fn run_sio_small() {
        let out = run(&[
            "run",
            "--benchmark",
            "sio",
            "--gpus",
            "2",
            "--size",
            "20000",
        ])
        .unwrap();
        assert!(out.contains("Sparse Integer Occurrence"));
        assert!(out.contains("simulated time"));
        assert!(out.contains("breakdown"));
    }

    #[test]
    fn run_lr_reports_model() {
        let out = run(&["run", "--benchmark", "lr", "--size", "30000"]).unwrap();
        assert!(out.contains("model"));
        assert!(out.contains("y = 2.0"));
    }

    #[test]
    fn run_mm_validates_size() {
        for size in ["100", "0"] {
            let err = run(&["run", "--benchmark", "mm", "--size", size]).unwrap_err();
            assert!(err.to_string().contains("positive multiple of 16"));
        }
        let out = run(&["run", "--benchmark", "mm", "--size", "64"]).unwrap();
        assert!(out.contains("simulated time"));
    }

    #[test]
    fn run_with_trace_prints_gantt() {
        let out = run(&[
            "run",
            "--benchmark",
            "sio",
            "--gpus",
            "2",
            "--size",
            "20000",
            "--trace",
        ])
        .unwrap();
        assert!(out.contains("rank   0 |"));
        assert!(out.contains("legend"));
    }

    #[test]
    fn bad_benchmark_and_gpus_rejected() {
        assert!(run(&["run", "--benchmark", "nope"])
            .unwrap_err()
            .to_string()
            .contains("unknown benchmark"));
        assert!(run(&["run", "--benchmark", "sio", "--gpus", "0"])
            .unwrap_err()
            .to_string()
            .contains("1..=1024"));
    }

    #[test]
    fn kmeans_subcommand_converges() {
        let out = run(&["kmeans", "--points", "5000", "--k", "4", "--gpus", "2"]).unwrap();
        assert!(out.contains("Iterative K-Means"));
        assert!(out.contains("final centers"));
        assert!(out.contains("c0"));
    }

    #[test]
    fn kmeans_rejects_zero_k() {
        assert!(run(&["kmeans", "--k", "0"])
            .unwrap_err()
            .to_string()
            .contains("--k"));
    }

    #[test]
    fn run_with_fault_plan_reports_recovery() {
        let out = run(&[
            "run",
            "--benchmark",
            "sio",
            "--gpus",
            "2",
            "--size",
            "20000",
            "--fault-plan",
            "kill:1@1e-4",
        ])
        .unwrap();
        assert!(out.contains("recovery"), "missing recovery line:\n{out}");
        assert!(out.contains("1 GPU(s) lost"), "{out}");
    }

    #[test]
    fn faulted_run_matches_fault_free_output() {
        let clean = run(&[
            "run",
            "--benchmark",
            "sio",
            "--gpus",
            "2",
            "--size",
            "20000",
        ])
        .unwrap();
        let faulted = run(&[
            "run",
            "--benchmark",
            "sio",
            "--gpus",
            "2",
            "--size",
            "20000",
            "--fault-plan",
            "xfail:0->1@0..1*2",
        ])
        .unwrap();
        // Pair accounting is identical; only timing and recovery differ.
        let pairs = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("pairs"))
                .map(str::to_string)
        };
        assert_eq!(pairs(&clean), pairs(&faulted));
        assert!(faulted.contains("transfer retries"), "{faulted}");
    }

    #[test]
    fn bad_fault_plan_rejected() {
        let err = run(&[
            "run",
            "--benchmark",
            "sio",
            "--size",
            "20000",
            "--fault-plan",
            "explode:1@0",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("invalid fault plan"), "{err}");
    }

    #[test]
    fn fault_seed_generates_deterministic_plans() {
        let args = [
            "run",
            "--benchmark",
            "sio",
            "--gpus",
            "4",
            "--size",
            "20000",
            "--fault-seed",
            "7",
        ];
        let a = run(&args).unwrap();
        let b = run(&args).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn run_writes_metrics_trace_and_events_files() {
        let dir = std::env::temp_dir().join("gpmr_cli_tel_test");
        std::fs::create_dir_all(&dir).unwrap();
        let metrics = dir.join("metrics.json");
        let trace = dir.join("trace.json");
        let events = dir.join("events.jsonl");
        let out = run(&[
            "run",
            "--benchmark",
            "sio",
            "--gpus",
            "2",
            "--size",
            "20000",
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
            "--events-out",
            events.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("metrics        : written to"), "{out}");
        assert!(out.contains("ui.perfetto.dev"), "{out}");

        let m = std::fs::read_to_string(&metrics).unwrap();
        assert!(m.contains("engine.chunks_dispatched"), "{m}");
        let t = std::fs::read_to_string(&trace).unwrap();
        let stats = gpmr_telemetry::export::validate_perfetto(&t).unwrap();
        assert!(stats.complete_events > 0);
        assert!(stats.named_tracks >= 2);

        // The JSONL stream round-trips through `trace export` + `check`.
        let trace2 = dir.join("trace2.json");
        let exported = run(&[
            "trace",
            "export",
            "--in",
            events.to_str().unwrap(),
            "--out",
            trace2.to_str().unwrap(),
        ])
        .unwrap();
        assert!(exported.contains("exported"), "{exported}");
        let checked = run(&["trace", "check", "--in", trace2.to_str().unwrap()]).unwrap();
        assert!(checked.contains("OK"), "{checked}");
        let summary = run(&["trace", "summary", "--in", events.to_str().unwrap()]).unwrap();
        assert!(summary.contains("rank 0"), "{summary}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_subcommand_validates_usage() {
        assert!(run(&["trace"])
            .unwrap_err()
            .to_string()
            .contains("export, check, or summary"));
        assert!(run(&["trace", "frob", "--in", "x"])
            .unwrap_err()
            .to_string()
            .contains("unknown trace mode"));
        assert!(run(&["trace", "check"])
            .unwrap_err()
            .to_string()
            .contains("--in"));
        assert!(run(&["trace", "check", "--in", "/nonexistent/gpmr.json"])
            .unwrap_err()
            .to_string()
            .contains("cannot read"));
    }

    /// MM runs on the round driver, so the nine flags that tune, record or
    /// journal the engine reach it like any app's (they used to be
    /// refused: its two phases ran outside the engine).
    #[test]
    fn every_engine_flag_reaches_mm() {
        let dir = std::env::temp_dir().join("gpmr_cli_mm_test");
        std::fs::create_dir_all(&dir).unwrap();
        let at = |file: &str| dir.join(file).display().to_string();
        let mm = ["run", "--benchmark", "mm", "--size", "128", "--gpus", "4"];
        let with = |flags: &[&str]| run(&[&mm[..], flags].concat()).unwrap();
        let time = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("simulated"))
                .map(str::to_owned)
        };
        let plain = with(&[]);
        for tuned in [&["--pipeline-depth", "1"][..], &["--gpu-direct"]] {
            assert_ne!(time(&with(tuned)), time(&plain), "{tuned:?}");
        }
        assert!(with(&["--trace"]).contains("rank   3 |"));

        let (trace, metrics, events) = (at("trace.json"), at("metrics.json"), at("events.jsonl"));
        with(&["--trace-out", &trace, "--metrics-out", &metrics]);
        with(&["--events-out", &events]);
        assert!(run(&["trace", "check", "--in", &trace])
            .unwrap()
            .contains("OK"));
        let counters = std::fs::read_to_string(&metrics).unwrap();
        assert!(counters.contains("engine.chunks_dispatched"), "{counters}");
        let analysis = run(&["analyze", "--events", &events]).unwrap();
        assert!(analysis.contains("bounding stage: Setup"), "{analysis}");

        // Journal, crash halfway, resume: the same run and the same bytes.
        let journal = at("mm.gpj");
        let journaled = ["--journal", journal.as_str(), "--checkpoint-every", "2"];
        let fresh = with(&journaled);
        assert_eq!(time(&fresh), time(&plain));
        let bytes = std::fs::read(&journal).unwrap();
        std::fs::write(&journal, &bytes[..bytes.len() / 2]).unwrap();
        let resumed = with(&[&journaled[..], &["--resume"]].concat());
        assert!(!resumed.contains(" 0 record(s) replayed"), "{resumed}");
        let report = |s: &str| s.split("journal ").next().unwrap().to_string();
        assert_eq!(report(&resumed), report(&plain));
        assert_eq!(std::fs::read(&journal).unwrap(), bytes);
        std::fs::remove_dir_all(&dir).ok();

        // Faults, scale and seed reach it through the cluster, as before.
        // (Each round's pass runs under the plan, so the GPU dies in both.)
        let killed = with(&["--fault-plan", "kill:1@1e-5"]);
        assert!(killed.contains("2 GPU(s) lost"), "{killed}");
        with(&["--scale", "2", "--seed", "7", "--fault-seed", "3"]);
        let err = run(&["run", "--benchmark", "mm", "--size", "65552"]).unwrap_err();
        assert!(err.to_string().contains("at most 65536"), "{err}");
    }

    #[test]
    fn analyze_reads_a_recording() {
        let dir = std::env::temp_dir().join("gpmr_cli_analyze_test");
        std::fs::create_dir_all(&dir).unwrap();
        let events = dir.join("events.jsonl");
        let events = events.to_str().unwrap();
        let sio = [
            "run",
            "--benchmark",
            "sio",
            "--gpus",
            "2",
            "--size",
            "20000",
        ];
        run(&[&sio[..], &["--events-out", events]].concat()).unwrap();
        let out = run(&["analyze", "--events", events]).unwrap();
        assert!(out.contains("performance analysis"), "{out}");
        assert!(out.contains("bounding stage:"), "{out}");
        assert!(out.contains("critical path:"), "{out}");
        assert!(out.contains("rank 0:"), "{out}");
        assert!(out.contains("imbalance"), "{out}");

        let json = run(&["analyze", "--events", events, "--json"]).unwrap();
        let v = gpmr_telemetry::json::parse(&json).unwrap();
        assert!(v.get("makespan_s").and_then(|m| m.as_f64()).unwrap() > 0.0);
        assert!(v.get("bounding_stage").is_some());
        assert!(v.get("findings").is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn analyze_validates_usage() {
        let err = run(&["analyze"]).unwrap_err();
        assert_eq!(err.to_string(), "analyze needs --events <file>");
        let err = run(&["analyze", "--events", "/nonexistent/gpmr.jsonl"]).unwrap_err();
        assert!(err.to_string().contains("cannot read"), "{err}");
    }

    #[test]
    fn perf_record_then_self_diff_passes() {
        let dir = std::env::temp_dir().join("gpmr_cli_perf_test");
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.json");
        let out = run(&[
            "perf",
            "record",
            "--scale",
            "4096",
            "--out",
            base.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("wo_8rank"), "{out}");
        assert!(out.contains("wrote"), "{out}");

        // A recording diffed against itself is identical: PASS, exit 0.
        let diffed = run(&[
            "perf",
            "diff",
            "--baseline",
            base.to_str().unwrap(),
            "--against",
            base.to_str().unwrap(),
        ])
        .unwrap();
        assert!(diffed.contains("verdict: PASS"), "{diffed}");

        // Doubling a makespan in the new measurement is a regression: the
        // gate must surface it as an error (non-zero process exit).
        let mut set = BaselineSet::from_json(&std::fs::read_to_string(&base).unwrap()).unwrap();
        set.baselines[0].makespan_ns *= 2;
        let worse = dir.join("worse.json");
        std::fs::write(&worse, set.to_json()).unwrap();
        let err = run(&[
            "perf",
            "diff",
            "--baseline",
            base.to_str().unwrap(),
            "--against",
            worse.to_str().unwrap(),
        ])
        .unwrap_err();
        assert!(err.to_string().contains("FAIL"), "{err}");
        assert!(err.to_string().contains("regressed"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn perf_record_twice_diffs_to_zero() {
        let dir = std::env::temp_dir().join("gpmr_cli_perf_twice_test");
        std::fs::create_dir_all(&dir).unwrap();
        let [old, new] = ["old.json", "new.json"].map(|f| dir.join(f).display().to_string());
        for out in [&old, &new] {
            run(&["perf", "record", "--scale", "4096", "--out", out]).unwrap();
        }
        // The sim is deterministic, so an unchanged tree matches bit-exactly.
        let diffed = run(&["perf", "diff", "--baseline", &old, "--against", &new]).unwrap();
        assert!(diffed.contains("verdict: PASS"), "{diffed}");
        for line in diffed.lines().filter(|l| l.contains("makespan_ns")) {
            assert!(
                line.contains("+0.00%"),
                "drift in deterministic sim: {line}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn perf_validates_usage() {
        assert!(run(&["perf"])
            .unwrap_err()
            .to_string()
            .contains("record or diff"));
        assert!(run(&["perf", "frob"])
            .unwrap_err()
            .to_string()
            .contains("unknown perf mode"));
        assert!(run(&["perf", "diff"])
            .unwrap_err()
            .to_string()
            .contains("--baseline"));
        // Both sides of a diff and the file a recording goes to are named:
        // nothing re-runs the suite or writes a default file.
        let err = run(&["perf", "diff", "--baseline", "BENCH_PR6.json"]).unwrap_err();
        assert_eq!(err.to_string(), "perf diff needs --against <file>");
        let err = run(&["perf", "record", "--scale", "4096"]).unwrap_err();
        assert_eq!(err.to_string(), "perf record needs --out <file>");
    }

    #[test]
    fn run_accepts_transfer_tuning_flags() {
        let base = [
            "run",
            "--benchmark",
            "sio",
            "--gpus",
            "4",
            "--size",
            "40000",
        ];
        let plain = run(&base).unwrap();
        let tuned = run(&[
            "run",
            "--benchmark",
            "sio",
            "--gpus",
            "4",
            "--size",
            "40000",
            "--pipeline-depth",
            "1",
            "--gpu-direct",
        ])
        .unwrap();
        // Same pair accounting; only the schedule (and so the simulated
        // time) may differ between transfer modes.
        let pairs = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("pairs"))
                .map(str::to_string)
        };
        assert_eq!(pairs(&plain), pairs(&tuned));
    }

    #[test]
    fn run_rejects_bad_pipeline_depth() {
        let err = run(&[
            "run",
            "--benchmark",
            "sio",
            "--size",
            "20000",
            "--pipeline-depth",
            "0",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("1..=64"), "{err}");
    }

    #[test]
    fn run_wo_and_kmc_small() {
        assert!(run(&[
            "run",
            "--benchmark",
            "wo",
            "--size",
            "20000",
            "--scale",
            "64"
        ])
        .unwrap()
        .contains("Word Occurrence"));
        assert!(run(&["run", "--benchmark", "kmc", "--size", "10000"])
            .unwrap()
            .contains("K-Means"));
    }

    #[test]
    fn journaled_run_resumes_bit_identically() {
        let dir = std::env::temp_dir().join("gpmr_cli_journal_test");
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("job.gpj");
        let jpath = journal.to_str().unwrap();
        let base = [
            "run",
            "--benchmark",
            "sio",
            "--gpus",
            "2",
            "--size",
            "20000",
        ];
        let plain = run(&base).unwrap();

        let mut fresh_args = base.to_vec();
        fresh_args.extend(["--journal", jpath]);
        let fresh = run(&fresh_args).unwrap();
        assert!(fresh.contains("journal        :"), "{fresh}");
        assert!(fresh.contains("0 record(s) replayed"), "{fresh}");
        // Journaling never charges simulated time.
        let time = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("simulated time"))
                .map(str::to_string)
        };
        assert_eq!(time(&plain), time(&fresh));
        let bytes = std::fs::read(&journal).unwrap();
        assert!(!bytes.is_empty());

        // Truncate mid-journal (a crash), then --resume: verified replay
        // re-runs the job and re-appends the identical suffix.
        std::fs::write(&journal, &bytes[..bytes.len() / 2]).unwrap();
        let mut resume_args = fresh_args.clone();
        resume_args.push("--resume");
        let resumed = run(&resume_args).unwrap();
        assert_eq!(time(&fresh), time(&resumed));
        assert!(!resumed.contains("0 record(s) replayed"), "{resumed}");
        assert_eq!(std::fs::read(&journal).unwrap(), bytes);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_flags_are_validated() {
        let err = run(&["run", "--benchmark", "sio", "--size", "20000", "--resume"]).unwrap_err();
        assert!(err.to_string().contains("--journal"), "{err}");
        let err = run(&[
            "run",
            "--benchmark",
            "sio",
            "--size",
            "20000",
            "--checkpoint-every",
            "4",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("--journal"), "{err}");
        let err = run(&[
            "run",
            "--benchmark",
            "sio",
            "--size",
            "20000",
            "--journal",
            "/tmp/j.gpj",
            "--checkpoint-every",
            "0",
        ])
        .unwrap_err();
        assert!(
            err.to_string()
                .contains("--checkpoint-every must be in 1..="),
            "{err}"
        );
    }

    #[test]
    fn elastic_add_plan_reports_joined_gpus() {
        let out = run(&[
            "run",
            "--benchmark",
            "sio",
            "--gpus",
            "3",
            "--size",
            "20000",
            "--fault-plan",
            "add:2@1e-4",
        ])
        .unwrap();
        assert!(
            out.contains("elasticity     : 1 GPU(s) joined mid-job"),
            "{out}"
        );
        // The recovery line only reports losses; a pure add shows none.
        assert!(!out.contains("recovery"), "{out}");
    }

    const DEMO_WL: &str = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../workloads/service_demo.wl"
    );

    #[test]
    fn serve_prints_slo_report() {
        let out = run(&["serve", "--workload", DEMO_WL]).unwrap();
        assert!(out.contains("service passes="), "{out}");
        assert!(out.contains("slo report at="), "{out}");
        assert!(out.contains("slo tenant alice"), "{out}");
        assert!(out.contains("wait_p99="), "{out}");
    }

    #[test]
    fn serve_alerts_and_flight_dir_write_postmortems() {
        let dir = std::env::temp_dir().join("gpmr_cli_flight_test");
        std::fs::remove_dir_all(&dir).ok();
        let out = run(&[
            "serve",
            "--workload",
            DEMO_WL,
            "--alerts",
            "misses: sum(service.deadline_missed) > 0",
            "--flight-dir",
            dir.to_str().unwrap(),
        ])
        .unwrap();
        // The demo workload misses a deadline, cancels a job, and kills a
        // GPU: the alert fires and the recorder dumps postmortems.
        assert!(out.contains("alert fired rule=misses"), "{out}");
        assert!(out.contains("flight postmortem-"), "{out}");
        assert!(out.contains("postmortem     : written to"), "{out}");
        let mut wrote = 0;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let trace = std::fs::read_to_string(&path).unwrap();
            gpmr_telemetry::export::validate_perfetto(&trace)
                .unwrap_or_else(|e| panic!("{path:?}: {e}"));
            wrote += 1;
        }
        assert!(wrote >= 3, "expected miss+cancel+gpu-lost+alert dumps");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_writes_slo_reports_and_metrics() {
        let dir = std::env::temp_dir().join("gpmr_cli_serve_views_test");
        std::fs::create_dir_all(&dir).unwrap();
        let at = |file: &str| dir.join(file).display().to_string();
        let serve = |slo: &str, metrics: &str| {
            let line = ["serve", "--workload", DEMO_WL, "--slo-out", slo];
            let out = run(&[&line[..], &["--metrics-out", metrics]].concat()).unwrap();
            assert!(out.contains(&format!("slo            : written to {slo}")));
            assert!(out.contains(&format!("metrics        : written to {metrics}")));
            let read = |path| std::fs::read_to_string(path).unwrap();
            (read(slo), read(metrics))
        };

        let (text, prom) = serve(&at("slo.txt"), &at("metrics.prom"));
        assert!(text.contains("slo tenant bob"), "{text}");
        assert!(text.contains("budget="), "{text}");
        assert!(
            prom.contains("# TYPE gpmr_service_jobs_completed counter"),
            "{prom}"
        );
        assert!(
            prom.contains("gpmr_slo_hit_rate{tenant=\"alice\"}"),
            "{prom}"
        );
        assert!(prom.contains("_bucket{le=\"+Inf\"}"), "{prom}");

        let (json, metrics) = serve(&at("slo.json"), &at("metrics.json"));
        assert!(gpmr_telemetry::json::parse(&metrics)
            .unwrap()
            .get("counters")
            .is_some());
        let v = gpmr_telemetry::json::parse(&json).unwrap();
        let tenants = v.get("tenants").and_then(|t| t.as_arr()).unwrap();
        assert_eq!(tenants.len(), 3);
        // Terminal outcomes partition: the four rates sum to exactly 1.
        for t in tenants {
            let num = |k: &str| t.get(k).and_then(|x| x.as_f64()).unwrap();
            let terminal =
                num("completed") + num("cancelled") + num("deadline_missed") + num("failed");
            if terminal > 0.0 {
                let sum =
                    num("hit_rate") + num("miss_rate") + num("cancel_rate") + num("fail_rate");
                assert!((sum - 1.0).abs() < 1e-12, "rates sum to {sum}");
            }
        }
        // A second run writes the same report.
        assert_eq!(serve(&at("slo.json"), &at("metrics.json")).0, json);

        let (html, _) = serve(&at("slo.html"), &at("metrics.txt"));
        assert!(html.contains("<html"), "{html}");
        assert!(html.contains("alice"), "{html}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_validates_usage() {
        assert!(run(&["serve"])
            .unwrap_err()
            .to_string()
            .contains("--workload"));
        assert!(
            run(&["serve", "--workload", DEMO_WL, "--slo-target", "1.5"])
                .unwrap_err()
                .to_string()
                .contains("--slo-target")
        );
        for not_finite in ["NaN", "inf", "-1"] {
            let err = run(&["serve", "--workload", DEMO_WL, "--batch-window", not_finite]);
            let err = err.unwrap_err().to_string();
            assert!(
                err.starts_with("--batch-window must be in [0, inf)"),
                "{err}"
            );
        }
        assert!(
            run(&["serve", "--workload", DEMO_WL, "--alerts", "nonsense"])
                .unwrap_err()
                .to_string()
                .contains("invalid --alerts")
        );
    }
}
