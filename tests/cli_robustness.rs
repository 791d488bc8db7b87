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
use gpmr_cli::commands::{CLUSTER, JOURNAL};
use gpmr_cli::{dispatch, help, Command, Flag, Kind, COMMANDS};

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
        "trace summary" => vec![format!("trace summary --in {}", at("events.jsonl"))],
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
    // five moded rows before `paper` list 10 between them, its eight 10.
    assert_eq!(pairs, [5 * 39 - 42, 13 * 39 - 20]);
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
        (97, 191),
        "{reports} reports, {refusals} refusals"
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
