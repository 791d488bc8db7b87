//! No argument value panics the process, and no flag is accepted and
//! ignored: commands are driven through `gpmr_cli::dispatch` exactly as
//! the binary drives them, in the debug profile, where integer overflow
//! is a panic rather than a wrap. Every loop here runs over the command
//! table (`gpmr_cli::COMMANDS`), so a new row or flag is covered by
//! being declared.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::OnceLock;

use gpmr::apps::Benchmark;
use gpmr::sim_gpu::{FaultEvent, FaultPlan};
use gpmr::telemetry::AlertRule;
use gpmr_cli::commands::{CLUSTER, JOURNAL};
use gpmr_cli::{dispatch, help, Command, Flag, Kind, COMMANDS};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const WL: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/workloads/service_demo.wl");

/// A scratch directory holding what the `trace`, `analyze` and `perf diff`
/// rows read: a recording, its Perfetto export and a baseline set.
fn fixtures() -> &'static PathBuf {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = std::env::temp_dir().join("gpmr_cli_robustness");
        std::fs::create_dir_all(&dir).unwrap();
        let at = |file: &str| dir.join(file).display().to_string();
        for line in [
            format!(
                "run --benchmark sio --size 2000 --events-out {} --trace-out {}",
                at("events.jsonl"),
                at("trace.json")
            ),
            format!(
                "perf record --scale {} --out {}",
                1u64 << 62,
                at("set.json")
            ),
        ] {
            dispatch(line.split(' ')).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        dir
    })
}

fn label(row: &Command) -> String {
    format!("{} {}", row.name, row.mode).trim_end().to_string()
}

/// A tiny `--size` for each app (for MM, a matrix order).
fn tiny_size(bench: Benchmark) -> u32 {
    match bench {
        Benchmark::Mm => 64,
        Benchmark::Sio | Benchmark::Lr => 2000,
        Benchmark::Wo => 20000,
        Benchmark::Kmc => 10000,
    }
}

/// Tiny command lines for a row; the first is the one a test runs when it
/// needs only one. Files they write are named after `test` so concurrent
/// tests do not share one. A row without an arm fails every test here:
/// give it one.
fn baselines(row: &Command, test: &str) -> Vec<String> {
    let at = |file: &str| fixtures().join(file).display().to_string();
    let written = at(&format!("{test}.{}.out", row.name));
    match label(row).as_str() {
        // Every app of the table, SIO first: a test that runs one line
        // runs a shuffling app, which reads every flag of the row.
        "run" => {
            let rest = Benchmark::ALL.into_iter().filter(|&b| b != Benchmark::Sio);
            std::iter::once(Benchmark::Sio)
                .chain(rest)
                .map(|b| {
                    let name = b.name().to_ascii_lowercase();
                    format!("run --benchmark {name} --size {}", tiny_size(b))
                })
                .collect()
        }
        "kmeans" => vec![
            "kmeans --points 100".into(),
            "kmeans --points 2000 --k 4 --iterations 2".into(),
        ],
        "analyze" => vec![format!("analyze --events {}", at("events.jsonl"))],
        "serve" => vec![format!("serve --workload {WL}")],
        "info" => vec!["info".into()],
        "trace export" => vec![format!(
            "trace export --in {} --out {written}",
            at("events.jsonl")
        )],
        "trace check" => vec![format!("trace check --in {}", at("trace.json"))],
        "perf record" => vec![format!(
            "perf record --scale {} --out {written}",
            1u64 << 62
        )],
        "perf diff" => vec![format!(
            "perf diff --baseline {0} --against {0}",
            at("set.json")
        )],
        "paper table4" => vec!["paper table4".into()],
        paper if row.name == "paper" => vec![format!("{paper} --scale 1048576")],
        other => panic!("`gpmr {other}` has no baseline command line"),
    }
}

fn rows_carrying(flag: &str) -> Vec<&'static Command> {
    let carries = |row: &&Command| row.flags().any(|f| f.name == flag);
    COMMANDS.iter().filter(carries).collect()
}

/// WO, KMC, MM and `gpmr kmeans` draw a second random stream from the
/// seed after `--seed`. At `u64::MAX` that was `seed + 1`: exit 101 in
/// a debug build, a silent wrap in release.
#[test]
fn the_largest_seed_runs_every_command_that_derives_a_second_one() {
    let rows = rows_carrying("seed");
    assert_eq!(rows.len(), 2, "run, kmeans");
    for command in rows.iter().flat_map(|row| baselines(row, "seed")) {
        let line = format!("{command} --gpus 2 --seed {}", u64::MAX);
        let out = dispatch(line.split(' ')).unwrap_or_else(|e| panic!("{command}: {e}"));
        assert!(!out.is_empty(), "{command} printed nothing");
    }
}

/// The chunk autotuner multiplied pipeline depth by `--scale`: at 2^62
/// the product wrapped to zero (a division by zero, in release too), at
/// `u64::MAX` it overflowed. The CLI had its own copy of the function;
/// now `run` and `perf record` both reach the harness's, which
/// saturates. MM's block sizing multiplied tile counts: from 2^56 on,
/// `paper fig2`, `fig3`, `table2` and `table3` died in a debug build.
#[test]
fn the_largest_scales_run_every_command_that_sizes_chunks() {
    let rows = rows_carrying("scale");
    let paper = rows.iter().filter(|row| row.name == "paper").count();
    assert_eq!((rows.len(), paper), (9, 7), "run, perf record, paper");
    for scale in [1u64 << 62, u64::MAX] {
        for row in &rows {
            let line = format!("{} --scale {scale}", baselines(row, "scale")[0]);
            let out = dispatch(line.split(' ')).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert!(!out.is_empty(), "{line} printed nothing");
        }
    }
}

/// `--gpus` sizes a cluster in four commands and was range-checked in
/// two: `kmeans --gpus 0` divided by zero, `serve --gpus 100000` built
/// 100 000 devices per engine slot. One bound for all of them, declared
/// with the flag.
#[test]
fn every_command_that_builds_a_cluster_bounds_gpus() {
    let rows = rows_carrying("gpus");
    assert_eq!(rows.len(), 4, "the rows that name the cluster group");
    for row in rows {
        assert!(row.groups.contains(&CLUSTER), "{}", label(row));
        let command = &baselines(row, "gpus")[0];
        for gpus in ["0", "1025", "100000"] {
            let line = format!("{command} --gpus {gpus}");
            let err = dispatch(line.split(' ')).expect_err(&line);
            assert!(
                err.to_string().contains("--gpus must be in 1..=1024"),
                "{line}: {err}"
            );
        }
        let line = format!("{command} --gpus 2");
        dispatch(line.split(' ')).unwrap_or_else(|e| panic!("{line}: {e}"));
    }
}

/// A fault event naming a rank outside the cluster was dropped: `run
/// --gpus 2 --fault-plan kill:7@0.0001` exited 0 with the fault-free
/// report. Every event kind that names such a rank is now refused — an
/// error from `dispatch`, which the binary exits 2 on — naming the rank
/// and the cluster's size.
#[test]
fn a_fault_event_outside_the_cluster_is_refused() {
    for (plan, rank) in [
        ("kill:7@0.0001", 7),
        ("stall:9@0.0001+0.001", 9),
        ("xfail:0->5@0..1", 5),
        ("delay:3->1@0..1+0.001", 3),
        ("add:2@0.0001", 2),
    ] {
        let line = format!("run --benchmark sio --gpus 2 --size 200000 --fault-plan {plan}");
        let err = dispatch(line.split(' ')).expect_err(&line).to_string();
        assert!(
            err.contains(&format!("rank {rank} ")) && err.contains("only 2 GPUs"),
            "{line}: {err}"
        );
    }
    let line = "run --benchmark sio --gpus 2 --size 200000 --fault-plan xfail:*->1@0..1";
    dispatch(line.split(' ')).unwrap_or_else(|e| panic!("{line}: {e}"));
}

/// `serve --engines 0` ran one engine and `serve --batch-max 0` batched
/// as `--batch-max 1`: each printed, byte for byte, what the value 1
/// prints. Both ranges start at 1, so 0 is refused naming the flag.
#[test]
fn serve_refuses_zero_engines_and_zero_batch_members() {
    for flag in ["engines", "batch-max"] {
        let line = format!("serve --workload {WL} --{flag} 0");
        let err = dispatch(line.split(' ')).expect_err(&line).to_string();
        let refusal = format!("--{flag} must be in 1..=1024");
        assert!(err.starts_with(&refusal), "{line}: {err}");
        let line = format!("serve --workload {WL} --{flag} 1");
        dispatch(line.split(' ')).unwrap_or_else(|e| panic!("{line}: {e}"));
    }
}

/// The five generic subcommands shared one accepted-flag list, so each
/// took — and ignored — every flag another one read: 96 (subcommand,
/// flag) pairs (`info --zipf 2`, `kmeans --fault-seed 3`, `serve --seed 9
/// --resume`), and `perf record --baseline` / `perf diff --scale` among
/// the moded ones. A row refuses, by name, whatever it does not list,
/// and a name no row declares (the paper binaries ran past a `--scael`).
#[test]
fn a_flag_the_row_does_not_list_is_refused_by_name() {
    let every_flag: Vec<&Flag> = {
        let mut seen = BTreeSet::new();
        let all = COMMANDS.iter().flat_map(Command::flags);
        all.filter(|f| seen.insert(f.name)).collect()
    };
    assert_eq!(every_flag.len(), 39, "no flag was added or dropped");
    // Refused pairs, over the rows without a mode word and with one.
    let mut pairs = [0, 0];
    for row in COMMANDS {
        let listed: BTreeSet<&str> = row.flags().map(|f| f.name).collect();
        for flag in every_flag.iter().filter(|f| !listed.contains(f.name)) {
            let value = if flag.kind == Kind::Switch { "" } else { " 1" };
            let line = format!("{} --{}{value}", baselines(row, "foreign")[0], flag.name);
            let err = dispatch(line.split(' ')).expect_err(&line).to_string();
            let refusal = format!("unknown option --{} for `gpmr {}`", flag.name, label(row));
            assert_eq!(err, refusal, "{line}");
            pairs[usize::from(!row.mode.is_empty())] += 1;
        }
        let line = format!("{} --scael 8", baselines(row, "typo")[0]);
        let err = dispatch(line.split(' ')).expect_err(&line).to_string();
        let refusal = format!("unknown option --scael for `gpmr {}`", label(row));
        assert_eq!(err, refusal, "{line}");
    }
    // run 18, analyze 2, kmeans 8, serve 13 and info 1 of the 39; the
    // four moded rows before `paper` list 9 between them, its eight 10.
    assert_eq!(pairs, [5 * 39 - 42, 12 * 39 - 19]);
    assert!(pairs[0] >= 96);
}

/// ROADMAP item 2, the CLI half: every numeric flag of every row takes
/// the hostile values and returns — a report or a typed error, never a
/// panic. `run --size 2^62`, `run --benchmark lr --size MAX`, `kmeans
/// --points MAX`, `kmeans --k 2^62` and `serve --engines MAX` each died
/// with `capacity overflow` (exit 101) before flags declared a range.
#[test]
fn no_numeric_flag_value_panics_any_command() {
    let hostile = [
        "0".to_string(),
        "1".to_string(),
        u64::MAX.to_string(),
        (u64::MAX - 1).to_string(),
        (1u64 << 62).to_string(),
        "NaN".to_string(),
        "-1".to_string(),
        String::new(),
    ];
    let journal = fixtures().join("hostile.gpj").display().to_string();
    let mut panicked = Vec::new();
    let (mut reports, mut refusals) = (0, 0);
    for row in COMMANDS {
        // The first baseline, and for the benchmark rows MM's as well: its
        // order check and round drive are what the SIO line never reaches.
        let lines = baselines(row, "hostile");
        let mm = lines.iter().skip(1).find(|l| l.contains("--benchmark mm"));
        let numeric = |f: &&Flag| matches!(f.kind, Kind::Uint(..) | Kind::Float(..));
        let flags: Vec<&Flag> = row.flags().filter(numeric).collect();
        let cases = lines.iter().take(1).chain(mm);
        for (line, flag) in cases.flat_map(|line| flags.iter().map(move |f| (line, *f))) {
            for value in &hostile {
                // Scales 0 and 1 are the paper's full sizes: minutes of
                // honest work in this profile, not a robustness question.
                let full_sizes = label(row) == "perf record" || row.name == "paper";
                if full_sizes && matches!(value.as_str(), "0" | "1") {
                    continue;
                }
                let mut tokens: Vec<&str> = line.split(' ').collect();
                if JOURNAL.contains(flag) {
                    tokens.extend(["--journal", &journal]);
                }
                let option = format!("--{}", flag.name);
                tokens.extend([option.as_str(), value.as_str()]);
                let shown = tokens.join(" ");
                let outcome = std::panic::catch_unwind(|| dispatch(tokens.iter().copied()));
                let never_a_number = matches!(value.as_str(), "NaN" | "-1" | "");
                match outcome {
                    Err(_) => panicked.push(shown),
                    Ok(Ok(_)) if !never_a_number => reports += 1,
                    Ok(Ok(_)) => panic!("{shown} was accepted"),
                    Ok(Err(err)) => {
                        let range = format!("{option} must be in {}", flag.kind.range());
                        let out_of_range = err.to_string().starts_with(&range);
                        assert!(out_of_range || !never_a_number, "{shown}: {err}");
                        refusals += 1;
                    }
                }
            }
        }
    }
    assert!(panicked.is_empty(), "panicked:\n{}", panicked.join("\n"));
    // Not vacuous, and exact: the outcomes move only when a row, a flag or
    // a range does.
    assert_eq!(
        (reports, refusals),
        (95, 193),
        "{reports} reports, {refusals} refusals"
    );
}

/// The byte offsets of each value in a workload line, before its comment:
/// a run of digits and dots that opens a token or follows `=`, `@` or `+`
/// (so `job1` and `t1` are names, not values).
fn value_spans(line: &str) -> Vec<std::ops::Range<usize>> {
    let code = line.split('#').next().unwrap_or("").as_bytes();
    let mut spans = Vec::new();
    let mut i = 0;
    while i < code.len() {
        let opens = i == 0 || matches!(code[i - 1], b' ' | b'=' | b'@' | b'+');
        if opens && code[i].is_ascii_digit() {
            let end = (i..code.len())
                .find(|&j| !(code[j].is_ascii_digit() || code[j] == b'.'))
                .unwrap_or(code.len());
            spans.push(i..end);
            i = end;
        } else {
            i += 1;
        }
    }
    spans
}

/// ROADMAP item 2, defect 18: `gpmr serve` took a non-finite or negative
/// time, quota or share and read it as something else. `kill=1@nan`
/// killed GPU 1 at 0, `deadline=nan` set no deadline, `at inf` and a
/// stall of `+inf` left a job running after the drain, `deadline=-1`
/// missed before submission, `gpu_seconds=nan` queued the tenant's jobs
/// forever and `mem_share=2` was clamped without a word. Every value of
/// every committed workload takes each hostile value in turn: the script
/// is refused, naming the line (an error from `dispatch`, which the
/// binary exits 2 on), except an infinite `gpu_seconds`, which is an
/// unlimited budget and must run and drain.
#[test]
fn a_non_finite_or_negative_workload_value_is_refused_naming_its_line() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/workloads");
    let mut scripts: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "wl"))
        .collect();
    scripts.sort();
    assert_eq!(scripts.len(), 3, "the committed workloads");
    let variant = fixtures().join("hostile.wl");
    let (mut refused, mut ran) = (0, 0);
    for script in &scripts {
        let text = std::fs::read_to_string(script).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        for (ix, line) in lines.iter().enumerate() {
            for span in value_spans(line) {
                let budget = line[..span.start].ends_with("gpu_seconds=");
                for value in ["nan", "inf", "-inf", "-1", "1e309"] {
                    let mut hostile = lines.clone();
                    let edited = format!("{}{value}{}", &line[..span.start], &line[span.end..]);
                    hostile[ix] = &edited;
                    std::fs::write(&variant, hostile.join("\n")).unwrap();
                    let command = format!("serve --workload {}", variant.display());
                    let shown = format!("{}:{}: {edited}", script.display(), ix + 1);
                    let outcome = dispatch(command.split(' '));
                    if budget && matches!(value, "inf" | "1e309") {
                        let report = outcome.unwrap_or_else(|e| panic!("{shown}: {e}"));
                        assert!(!report.contains("status=running"), "{shown}:\n{report}");
                        ran += 1;
                        continue;
                    }
                    let err = outcome.expect_err(&shown).to_string();
                    let named = format!("workload line {}: ", ix + 1);
                    assert!(err.starts_with(&named), "{shown}: {err}");
                    refused += 1;
                }
            }
        }
    }
    // Not vacuous, and exact: 180 values, five variants each; bob's budget
    // is the one `gpu_seconds` of the three scripts.
    assert_eq!((ran, refused), (2, 898), "{ran} ran, {refused} refused");
}

/// The `--fault-plan` specs that README, CI and the tests pass.
#[rustfmt::skip]
const FAULT_SPECS: &[&str] = &["kill:1@2e-3; xfail:0->2@0..1e-2*2", "kill:1@2e-3", "kill:1@2e-3; add:7@1e-3",
    "kill:1@1e-3; xfail:0->2@0..1e-2*2", "kill:1@1e-4;xfail:0->2@0..1e-2*2;stall:2@1e-4+1e-4",
    "kill:1@9e-4;stall:2@6e-4+3e-4", "xfail:0->1@0..1*6", "xfail:0->1@0..1*2", "kill:1@1e-3", "kill:7@0.0001",
    "stall:9@0.0001+0.001", "xfail:0->5@0..1", "delay:3->1@0..1+0.001", "add:2@0.0001", "xfail:*->1@0..1"];

/// What a mutation splices in: the grammar's separators, and numbers no
/// time may be.
#[rustfmt::skip]
const FAULT_TOKENS: &[&str] = &["nan", "inf", "-inf", "-1", "-0", "1e309", "1e-400", "4294967296", "..", "+",
    "*", "@", "->", ":", ";", " "];

/// One to three seeded mutations of `base`: a flipped byte, a cut, one of
/// the grammar's `tokens` or a `;`-separated part of one of its `specs`
/// spliced in, or garbage bytes.
fn mutate_spec(rng: &mut SmallRng, base: &str, specs: &[&str], tokens: &[&str]) -> String {
    let mut b = base.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..=3) {
        let at = rng.gen_range(0..=b.len());
        let insert: Vec<u8> = match rng.gen_range(0..5) {
            0 if !b.is_empty() => {
                let i = rng.gen_range(0..b.len());
                b[i] ^= rng.gen_range(1..=255u8);
                continue;
            }
            1 => {
                b.truncate(at);
                continue;
            }
            2 => tokens[rng.gen_range(0..tokens.len())].into(),
            3 => {
                let other = specs[rng.gen_range(0..specs.len())];
                let events: Vec<&str> = other.split(';').collect();
                events[rng.gen_range(0..events.len())].into()
            }
            _ => (0..rng.gen_range(1..=16))
                .map(|_| rng.gen_range(0..=255u8))
                .collect(),
        };
        b.splice(at..at, insert);
    }
    String::from_utf8_lossy(&b).into_owned()
}

/// ROADMAP item 2, the `FaultPlan::parse` part: seeded mutations of every
/// spec in use either fail with a typed error or parse to a plan whose
/// every instant and duration is finite and non-negative (an open
/// transfer window's end is the one infinity), and none panics.
#[test]
fn a_mutated_fault_plan_is_refused_or_finite() {
    let mut rng = SmallRng::seed_from_u64(0xfa17);
    let ok = |s: f64| s.is_finite() && s >= 0.0;
    let (mut plans, mut refusals) = (0, 0);
    for base in FAULT_SPECS {
        let plan = FaultPlan::parse(base).unwrap_or_else(|e| panic!("{base}: {e}"));
        assert!(!plan.events().is_empty(), "{base}");
        for _ in 0..400 {
            let spec = mutate_spec(&mut rng, base, FAULT_SPECS, FAULT_TOKENS);
            let parsed = std::panic::catch_unwind(|| FaultPlan::parse(&spec));
            let plan = match parsed.unwrap_or_else(|_| panic!("{spec:?} panicked")) {
                Ok(plan) => plan,
                Err(e) => {
                    assert!(!e.0.is_empty(), "{spec:?}");
                    refusals += 1;
                    continue;
                }
            };
            for event in plan.events() {
                let (instants, duration) = match *event {
                    FaultEvent::GpuKill { at, .. } | FaultEvent::GpuAdd { at, .. } => {
                        ([at, at], None)
                    }
                    FaultEvent::RankStall { at, duration, .. } => ([at, at], Some(duration)),
                    FaultEvent::TransferFail { start, until, .. } => ([start, until], None),
                    FaultEvent::TransferDelay {
                        start,
                        until,
                        extra,
                        ..
                    } => ([start, until], Some(extra)),
                };
                let [start, end] = instants.map(|t| t.as_secs());
                let open = end == f64::INFINITY;
                assert!(ok(start) && (ok(end) || open), "{spec:?}: {event:?}");
                assert!(
                    duration.is_none_or(|d| ok(d.as_secs())),
                    "{spec:?}: {event:?}"
                );
            }
            plans += 1;
        }
    }
    // Not vacuous, and exact: the outcomes move only when the grammar does.
    assert_eq!(
        (plans, refusals),
        (278, 5722),
        "{plans} plans, {refusals} refusals"
    );
}

/// The `--alerts` rule lists that README, CI, the benchmark harness, the
/// examples, the tests and the `alerts` module docs pass.
#[rustfmt::skip]
const ALERT_SPECS: &[&str] = &["misses: sum(service.deadline_missed) > 0",
    "backlog: last(service.queue_depth) > 12 for 0.002; misses: sum(service.deadline_missed) > 20",
    "misses: sum(service.deadline_missed) > 0; deep: last(service.queue_depth) > 4 for 0.0005",
    "misses: sum(service.deadline_missed) > 0; deep: last(service.queue_depth) > 8 for 0.0005",
    "deep_queue: last(service.queue_depth) > 3; slow_p99: p99(service.queue_wait_s) > 0.004 for 0.001; \
     miss_burn: ratio(service.deadline_missed, service.jobs_finished) > 0.05; stalled: rate(service.jobs_completed) < 100"];

/// What a mutation splices into an alert rule: its separators and
/// keywords, numbers no threshold or hold time may be, and hold times
/// that, spliced after a threshold, complete a rule.
#[rustfmt::skip]
const ALERT_TOKENS: &[&str] = &["nan", "inf", "-inf", "-1", "-0", "1e309", "1e-400", " for nan", " for -5",
    " for inf", "for", ">", "<", "(", ")", ",", ":", ";", " ", "p99", "p200", "ratio("];

/// ROADMAP item 2, defects 19 and 20: `serve --alerts` refuses a rule
/// whose threshold is not finite or whose hold time is not finite and
/// non-negative (an error from `dispatch`, which the binary exits 2 on),
/// naming the rule; the same rule with finite values runs.
#[test]
fn a_non_finite_alert_threshold_or_hold_time_is_refused_naming_the_rule() {
    let wl = concat!(env!("CARGO_MANIFEST_DIR"), "/workloads/slo_overload.wl");
    let serve = |rule: &str| dispatch(["serve", "--workload", wl, "--alerts", rule]);
    let report = serve("m: p95(service.queue_wait_s) > 0.001").unwrap();
    assert_eq!(report.matches("alert fired rule=m ").count(), 1, "{report}");
    for rule in [
        "m: p95(service.queue_wait_s) > nan",
        "m: p95(service.queue_wait_s) > inf",
        "m: p95(service.queue_wait_s) > 0.001 for nan",
        "m: p95(service.queue_wait_s) > 0.001 for inf",
        "m: p95(service.queue_wait_s) > 0.001 for 1e309",
        "m: p95(service.queue_wait_s) > 0.001 for -5",
    ] {
        let err = serve(rule).expect_err(rule).to_string();
        assert!(err.starts_with("invalid --alerts: "), "{rule}: {err}");
        assert!(err.contains(&format!("{rule:?}")), "{rule}: {err}");
    }
}

/// ROADMAP item 2, the `AlertRule::parse_list` part: seeded mutations of
/// every committed rule list either fail with a message or parse to rules
/// whose every threshold is finite and every hold time finite and
/// non-negative, and none panics.
#[test]
fn a_mutated_alert_rule_list_is_refused_or_finite() {
    let mut rng = SmallRng::seed_from_u64(0xa1e7);
    let (mut lists, mut refusals) = (0, 0);
    for base in ALERT_SPECS {
        let rules = AlertRule::parse_list(base).unwrap_or_else(|e| panic!("{base}: {e}"));
        assert!(!rules.is_empty(), "{base}");
        for _ in 0..4000 {
            let spec = mutate_spec(&mut rng, base, ALERT_SPECS, ALERT_TOKENS);
            let parsed = std::panic::catch_unwind(|| AlertRule::parse_list(&spec));
            match parsed.unwrap_or_else(|_| panic!("{spec:?} panicked")) {
                Ok(rules) => {
                    for r in &rules {
                        assert!(r.threshold.is_finite(), "{spec:?}: {r}");
                        assert!(r.for_s.is_finite() && r.for_s >= 0.0, "{spec:?}: {r}");
                    }
                    lists += 1;
                }
                Err(e) => {
                    assert!(!e.is_empty(), "{spec:?}");
                    refusals += 1;
                }
            }
        }
    }
    // Not vacuous, and exact: the outcomes move only when the grammar does.
    assert_eq!(
        (lists, refusals),
        (4344, 15656),
        "{lists} lists, {refusals} refusals"
    );
}

/// `HELP` is written by hand; its USAGE synopsis names, for each row,
/// exactly the flags the row lists.
#[test]
fn usage_names_exactly_the_flags_each_row_lists() {
    let text = help();
    let usage = text.split("USAGE:\n").nth(1).expect("a USAGE section");
    let usage = usage.split("\n\n").next().unwrap();
    // An entry starts at `gpmr` and runs over its continuation lines.
    let entries: Vec<&str> = usage.split("    gpmr ").skip(1).collect();
    let documented = |row: &Command| {
        let mut flags = BTreeSet::new();
        let mut found = false;
        for entry in &entries {
            let mut words = entry.split_whitespace();
            let named = words.next() == Some(row.name);
            if !named || (!row.mode.is_empty() && words.next() != Some(row.mode)) {
                continue;
            }
            found = true;
            for option in entry.split("--").skip(1) {
                let end = option.find(|c: char| !(c.is_ascii_lowercase() || c == '-'));
                flags.insert(option[..end.unwrap_or(option.len())].to_string());
            }
        }
        found.then_some(flags)
    };
    for row in COMMANDS {
        let listed: BTreeSet<String> = row.flags().map(|f| f.name.to_string()).collect();
        assert_eq!(
            documented(row),
            Some(listed),
            "USAGE entry of `gpmr {}`",
            label(row)
        );
    }
    // And USAGE documents no command the table lacks.
    for entry in &entries {
        let name = entry.split_whitespace().next().unwrap();
        assert!(
            name == "help" || COMMANDS.iter().any(|row| row.name == name),
            "USAGE documents `gpmr {name}`, which is not a row"
        );
    }
}
