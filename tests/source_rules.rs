//! What earlier changes deleted stays deleted, and what they made one
//! stays one: each rule is a row of `RULES`, checked against the tree read
//! from the package root, and reads the product where it holds the fact.
//! Implied, so not rows: the `GPMR_*` variables (no `env::var`), `pool.rs`
//! (no `mod pool`), `trace.rs` (no `TraceKind`), `bench/src/bin` (no
//! `std::env::args`) and one `pub fn ablations` (the generator row's cut).

use std::fs;
use std::path::Path;

use gpmr::core::EngineTuning;
use gpmr::primitives::SortConfig;
use gpmr::telemetry::SpanKind;
use gpmr_bench::loc::product_code;
use Text::{All, Code, CodeBefore};
use Want::{Absent, Exactly, InEveryFile};

const ROOT: &str = env!("CARGO_MANIFEST_DIR");
/// This file spells every forbidden name; no rule reads it.
const SELF: &str = "tests/source_rules.rs";
/// Everywhere a deleted name could come back.
#[rustfmt::skip]
const TREE: &[&str] = &["crates", "src", "tests", "examples", "README.md", "DESIGN.md"];
#[rustfmt::skip]
const GENERATORS: &[&str] = &["generate_integers", "generate_zipf_integers", "generate_samples",
    "generate_points", "initial_centers", "generate_text", "generate_zipf_text", "Matrix::random"];

/// Which lines of a file a rule reads: all of them, its [`product_code`],
/// or its product code before the first line starting with the text.
enum Text {
    All,
    Code,
    CodeBefore(&'static str),
}

/// How many lines a rule counts: none, exactly n, or some in every file.
enum Want {
    Absent,
    Exactly(usize),
    InEveryFile,
}

/// A rule reads the files under `roots` (each must exist) that `pick` takes
/// outside `exempt`, and counts the lines of `text` that `hits`. `reason`
/// names the change that made it; `example` is a line it must count.
struct Rule {
    roots: &'static [&'static str],
    pick: fn(&str) -> bool,
    exempt: &'static [&'static str],
    text: Text,
    hits: fn(&str) -> bool,
    want: Want,
    reason: &'static str,
    example: &'static str,
}

/// The defaults: every file under the roots, every line, no hit.
#[rustfmt::skip]
const ABSENT: Rule = Rule { roots: &[], pick: |_| true, exempt: &[], text: All, hits: |_| false,
    want: Absent, reason: "", example: "" };

fn any(line: &str, needles: &[&str]) -> bool {
    needles.iter().any(|n| line.contains(n))
}

#[rustfmt::skip]
const RULES: &[Rule] = &[
    Rule { roots: TREE, example: "let r = sio_journaled(&mut cluster, input, &mut journal);",
        hits: |l| l.contains("run_job_controlled") || (l.contains("_journaled(") && !l.contains("run_job_journaled(")),
        reason: "one engine entry point; a journal rides in `RunOpts`", ..ABSENT },
    Rule { roots: &["crates", "src", "examples"], text: Code, hits: |l| l.contains("env::var"),
        reason: "PRs 13, 21, 25: no environment variable picks a path, tunes the sort, sizes a pool or scales a run",
        example: r#"std::env::var("GPMR_SCALE")"#, ..ABSENT },
    Rule { roots: &["crates/cli/src"], hits: |l| any(l, GENERATORS), want: Exactly(2), example: "generate_points()",
        reason: "PR 18: the app table builds every input; only `gpmr kmeans` draws its points and centers", ..ABSENT },
    Rule { roots: &["crates/bench/src/perf.rs", "crates/bench/src/runners.rs", "crates/bench/src/paper.rs"],
        text: CodeBefore("pub fn ablations"), hits: |l| any(l, GENERATORS), example: "generate_text(&d, n, 7)",
        reason: "PR 18: the perf gate, runners and paper use the app table (the ablations, last, do not)", ..ABSENT },
    Rule { roots: &["crates/cli/src"], hits: |l| l.contains("chunk_items"), example: "let chunk_items = bytes / 4;",
        reason: "PR 18: the CLI sizes chunks with the harness's autotuner, not a copy of it", ..ABSENT },
    Rule { roots: TREE, hits: |l| any(l, &["PerfApp", "corpus_for", "with_gpu_direct", "retry_backoff_"]),
        reason: "PR 18: the second app enum, the corpus cache, the GPU-direct switch and the backoff knobs",
        example: "PerfApp::Wo", ..ABSENT },
    Rule { roots: TREE, hits: |l| any(l, &["available_parallelism", "thread::spawn", "thread::Builder", "thread::scope",
            "mod pool", "pool::"]), example: "std::thread::available_parallelism()",
        reason: "PR 21: one host execution path; kernels run on the calling thread", ..ABSENT },
    Rule { roots: TREE, hits: |l| l.contains("worker_threads"), want: Exactly(1), example: "worker_threads()",
        reason: "PR 21: the one `worker_threads` left is the constant the benchmark harness names", ..ABSENT },
    Rule { roots: &["crates", "src"], pick: |p| p.ends_with("src/lib.rs"), exempt: &["crates/primitives/src/lib.rs"],
        text: Code, hits: |l| l == "#![forbid(unsafe_code)]", want: InEveryFile, example: "#![forbid(unsafe_code)]",
        reason: "PR 21: gpmr-primitives' radix scatter is the one `unsafe`; every other crate forbids it" },
    Rule { roots: TREE, example: "let kind = TraceKind::Map;",
        hits: |l| any(l, &["TraceKind", "TraceEvent", "JobTrace", "AnalyzeConfig", "analyze_with", "paper_artifacts"]),
        reason: "PR 22: one event vocabulary; no second one, unset thresholds or duplicate bench", ..ABSENT },
    Rule { roots: &["crates", "src"], pick: |p| p.contains("src/"), text: Code,
        exempt: &["crates/telemetry/src/kind.rs", "crates/bench/src/paper.rs"], example: r#"span(0, "Map", 0.0, 1.0)"#,
        hits: |l| SpanKind::all().any(|k| l.contains(&format!("\"{}\"", k.name()))),
        reason: "PR 22: a kind is spelled once, in kind.rs (paper.rs's \"Map\" is a Fig. 2 column)", ..ABSENT },
    Rule { roots: &["crates/cli/src/commands.rs", "tests"], hits: |l| any(l, &["VALUED", "BOOLEAN"]),
        reason: "PR 24: one command table, not eight accepted-flag lists", example: "const PERF_BOOLEAN", ..ABSENT },
    Rule { roots: &["crates/cli/src"], text: Code, hits: |l| l.contains("Args::parse("), want: Exactly(1),
        reason: "PR 24: `dispatch` is the one parse site", example: "let args = Args::parse(rest, row)?;", ..ABSENT },
    Rule { roots: &["crates", "src"], exempt: &["crates/cli/src/main.rs"], example: "std::process::exit(2);",
        hits: |l| any(l, &["std::env::args", "process::exit"]),
        reason: "PR 25: one front door; no second binary parses arguments and no library exits the process", ..ABSENT },
    Rule { roots: &["crates/baselines"], hits: |l| l.contains("best_d"), example: "let mut best_d = f32::MAX;",
        reason: "PR 17: the baselines call gpmr-apps' one scalar nearest-center function", ..ABSENT },
    Rule { roots: &["."], exempt: &["target", ".git", ".bench_build", "benchmark/target"], example: "use std::arch::*;",
        pick: |p| p.starts_with("crates/apps/") || p.ends_with("Cargo.toml") || p.contains(".cargo/config"),
        hits: |l| any(l, &["std::arch", "core::arch", "target_feature", "target-feature", "target-cpu"]),
        reason: "PR 17: the apps' kernels are portable: no intrinsics, CPU features or target CPU", ..ABSENT },
    Rule { roots: TREE, hits: |l| any(l, &["fn deserialize", "read_slice", "JournalSummary"]),
        reason: "one journal record table: nothing decodes a chunk's bytes, and no second fold reads the records",
        example: "fn deserialize(bytes: &[u8]) -> Self {", ..ABSENT },
    Rule { roots: &["crates", "src", "tests", "examples"], hits: |l| any(l, &["RunControl", "stop_at"]),
        reason: "a stop is `Run::step_until` then `Run::cancel` on the live run, not a control the run reads",
        example: "control: RunControl::stop_at(t),", ..ABSENT },
    Rule { roots: &["crates/service/src"], text: Code, hits: |l| l.contains("run_job"),
        reason: "the service keeps every pass live: it runs no job to completion, and re-runs none to stop it",
        example: "let result = run_job_with(cluster, job, chunks, opts);", ..ABSENT },
    Rule { roots: &["crates/service/src"], text: Code, hits: |l| l.contains("Run::new("), want: Exactly(1),
        reason: "one function sets every pass's run up, solo or batched, once, at dispatch",
        example: "let run = Run::new(cluster, &job, chunks, opts)?;", ..ABSENT },
    Rule { roots: &["crates/cli/src"], text: Code, hits: |l| l.contains("run_script("), want: Exactly(1),
        reason: "a view of a run is an output of that run: only `serve` runs a workload (no `slo report` re-run)",
        example: "let (svc, _) = gpmr_service::run_script(&script, cfg, tel)?;", ..ABSENT },
    Rule { roots: &["crates/cli/src"], text: Code, hits: |l| l.contains("record_suite("), want: Exactly(1),
        reason: "a view of a run is an output of that run: only `perf record` runs the gate suite (no live `perf diff`)",
        example: "let new = perfsuite::record_suite(scale, |_, _| {});", ..ABSENT },
    Rule { roots: &["crates/cli/src"], text: Code, hits: |l| any(l, &["\"slo\"", "\"metrics\""]),
        reason: "a view of a run is an output of that run: `serve --slo-out`/`--metrics-out`, not `slo report`/`metrics export`",
        example: r#"row("slo", "report", &[CLUSTER, SERVICE], slo_report),"#, ..ABSENT },
    Rule { roots: &["crates/apps/src/sio.rs"], text: Code, hits: |l| l.contains("HashMap"),
        reason: "the SIO oracle counts in one sweep, with no hash table", example: "let mut counts = HashMap::new();",
        ..ABSENT },
];

/// The files `rule` reads, relative to the package root.
fn files(rule: &Rule) -> Vec<String> {
    let mut todo: Vec<String> = rule.roots.iter().map(|r| r.to_string()).collect();
    let mut files = Vec::new();
    while let Some(rel) = todo.pop() {
        let path = Path::new(ROOT).join(&rel);
        assert!(path.exists(), "{}: no {rel}", rule.reason);
        if rel == SELF || rule.exempt.contains(&rel.as_str()) {
            continue;
        }
        if path.is_dir() {
            for entry in fs::read_dir(path).unwrap() {
                let child = Path::new(&rel).join(entry.unwrap().file_name());
                let child = child.strip_prefix(".").unwrap_or(&child);
                todo.push(child.display().to_string());
            }
        } else if (rule.pick)(&rel) {
            files.push(rel);
        }
    }
    files
}

/// The lines of `src` that `rule` reads and counts.
fn hits<'a>(rule: &Rule, src: &'a str) -> Vec<&'a str> {
    let lines: Vec<&str> = match rule.text {
        All => src.lines().collect(),
        Code => product_code(src).collect(),
        CodeBefore(cut) => product_code(src)
            .take_while(|l| !l.starts_with(cut))
            .collect(),
    };
    lines.into_iter().filter(|l| (rule.hits)(l)).collect()
}

#[test]
fn every_rule_flags_its_example_and_holds_over_the_tree() {
    let mut broken = Vec::new();
    for rule in RULES {
        assert!(!hits(rule, rule.example).is_empty(), "{}", rule.reason);
        let files = files(rule);
        assert!(!files.is_empty(), "{}: reads no file", rule.reason);
        let mut found = Vec::new();
        for file in &files {
            let src = fs::read_to_string(Path::new(ROOT).join(file)).unwrap();
            for line in hits(rule, &src) {
                found.push(format!("{file}: {}", line.trim()));
            }
        }
        let in_file = |f: &String| found.iter().any(|l| l.starts_with(&format!("{f}: ")));
        let holds = match rule.want {
            Absent => found.is_empty(),
            Exactly(n) => found.len() == n,
            InEveryFile => files.iter().all(in_file),
        };
        if !holds {
            let n = files.len();
            broken.push(format!("{}: {found:#?} in {n} files", rule.reason));
        }
    }
    assert!(broken.is_empty(), "{}", broken.join("\n"));
}

/// PR 18 took `EngineTuning` from nine fields to seven, PR 13 the knobs out
/// of `SortConfig`: a new field stops this file compiling, so is on purpose.
#[test]
#[rustfmt::skip]
fn the_tuning_structs_keep_their_fields() {
    let EngineTuning { allow_stealing: _, sched_overhead_s: _, setup_base_s: _, setup_per_rank_s: _,
        max_transfer_retries: _, pipeline_depth: _, gpu_direct: _ } = EngineTuning::default();
    let SortConfig { digit_bits: _, fuse_final: _ } = SortConfig::default();
}
