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
use gpmr::service::ServiceConfig;
use gpmr::telemetry::SpanKind;
use gpmr_bench::loc::product_code;
use Need::{Example, Paper};
use Text::{All, Code, CodeBefore};
use Want::{Absent, Exactly, InEveryFile};

const ROOT: &str = env!("CARGO_MANIFEST_DIR");
/// This file spells every forbidden name; no rule reads it.
const SELF: &str = "tests/source_rules.rs";
/// Everywhere a deleted name could come back.
#[rustfmt::skip]
const TREE: &[&str] = &["crates", "src", "tests", "examples", "README.md", "DESIGN.md"];
/// Everywhere a deleted instrument could be named again: the tree, the
/// manifests, the docs and CI.
#[rustfmt::skip]
const EVERYWHERE: &[&str] = &["crates", "src", "tests", "examples", "shims", "Cargo.toml", "Cargo.lock",
    "README.md", "DESIGN.md", "EXPERIMENTS.md", "CONTRIBUTING.md", ".github", ".claude"];
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
    Rule { roots: EVERYWHERE, hits: |l| any(l, &["criterion", "hot_path"]),
        reason: "host cost has one instrument, `benchmark/`; no microbench suite and no shim to run one",
        example: r#"criterion = { path = "shims/criterion" }"#, ..ABSENT },
    Rule { roots: EVERYWHERE, hits: |l| any(l, &["summary_report", "SummaryReport", "TrackSummary"]),
        reason: "per-rank busy time has one account, `analyze`'s interval unions, not a sum of overlapping spans",
        example: "let summary = export::summary_report(&snap);", ..ABSENT },
    Rule { roots: EVERYWHERE, hits: |l| any(l, &["trace summary", r#""trace", "summary""#]),
        reason: "`gpmr analyze --events` reads a recording's per-rank time; `gpmr trace` exports and checks",
        example: r#"row("trace", "summary", &[&[IN]], trace_summary),"#, ..ABSENT },
    Rule { roots: TREE, example: "pub use ssort::{SsortJob, SsortRounds};",
        hits: |l| any(l, &["ssort", "cpair", "PairChunk", "rechunk_interleaved", "rechunk_preserves_affinity",
            "segmented_", "inclusive_scan", "sort_keys"]),
        reason: "no front door reached sample-sort, closest-pair, the chained-affinity path only they used, \
            or the primitives nothing called; a chained round pays its uploads", ..ABSENT },
    Rule { roots: TREE, hits: |l| any(l, &["DeviceBuffer", "alloc_from_slice", "Stream::", "mem.used()"]),
        reason: "one model per simulated resource: device memory is a capacity and a high-water mark, and \
            device work is sequenced by the instants passed to `Gpu`", example: "let buf = gpu.alloc_from_slice(&keys)?;",
        ..ABSENT },
    Rule { roots: &["crates/service/src"], hits: |l| any(l, &[".launch(", "charge_"]),
        reason: "one copy of each kernel: the job service runs the apps' kernels (a batched pass runs SIO's on \
            tagged keys) and charges no device work of its own", example: "let (_, res) = gpu.launch(at, &cfg, |ctx| {",
        ..ABSENT },
    Rule { roots: TREE, hits: |l| any(l, &["GpuStats", "h2d_gated", "gpu_seconds_spent", "fn seed("]),
        reason: "one copy of each fact: GPU activity is the `gpu.rank{r}.*` counters, a tenant's GPU-seconds its \
            SLO tally, and a gated upload `h2d` at the later instant", example: "self.stats.kernels += 1; // GpuStats",
        ..ABSENT },
    Rule { roots: TREE, hits: |l| any(l, &["custom_scaled", "mm_scaled_spec", "mars_gpu_mm"]),
        reason: "one scale law: a scaled cluster, device, link or host takes one `ScaleLaw`, and MM's is \
            `ScaleLaw::mm`", example: "let mut cl = Cluster::custom_scaled(topo, mm_scaled_spec(spec, d), d2);",
        ..ABSENT },
    Rule { roots: &["crates/bench/src"], hits: |l| l.contains("powi("), example: "let d2 = (d as f64).powi(2);",
        reason: "one scale law: the harness names a `ScaleLaw` and raises no scale factor to a power itself",
        ..ABSENT },
    Rule { roots: &["crates", "src"], text: Code, example: "emit(f.ring());",
        hits: |l| any(l, &[".ring()", "splice_snapshot", "struct Splice", ".shifted("]),
        reason: "one record per span: the service writes each span and sample once, into the recording a \
            flight window reads, and a pass's capture records already placed (`Telemetry::placed`), so no \
            dump mirrors, re-times or re-tracks a record", ..ABSENT },
    Rule { roots: &["crates", "src"], text: Code, want: Exactly(1), example: "pub fn timeseries(&self) -> Option<&TimeSeriesStore> {",
        hits: |l| any(l, &["sched_overhead_s", "setup_base_s", "setup_per_rank_s", "max_transfer_retries", "cfg.tuning",
            "fn timeseries(", "SeriesKind", "fn window_min(", "fn window_max(", "fn window_s(", "fn names(", "pub fn series(",
            "fn to_value(&self, t", "fn total(&self) -> f64", "b.min = ", "b.max = ", "b.last = ", "b.n += ", "fn rules(",
            "fn policy(", "fn imbalance(", "fn topology(", "fn warp_size(", "fn warps_per_block(", "fn free_at(&self, dir",
            "fn scan(", "fn centers(", "fn dictionary(", "pub fn scenario(", "split_buckets_bounded"]),
        reason: "one value, no setting: the engine's fixed costs are constants and the service runs the default \
            tuning; only alert rules read the service's windowed store; no accessor only a test called comes \
            back (the one hit is `Fabric::topology`, which the collectives read)", ..ABSENT },
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

/// `EngineTuning` keeps the three settings a caller varies (its fixed costs
/// are constants), `ServiceConfig` no tuning of its own and `SortConfig` no
/// knobs: a new field stops this file compiling, so is on purpose.
#[test]
#[rustfmt::skip]
fn the_tuning_structs_keep_their_fields() {
    let EngineTuning { allow_stealing: _, pipeline_depth: _, gpu_direct: _ } = EngineTuning::default();
    let ServiceConfig { gpus: _, engines: _, max_queue_depth: _, batch_window_s: _, batch_max: _, obs: _ } =
        ServiceConfig::default();
    let SortConfig { digit_bits: _, fuse_final: _ } = SortConfig::default();
}

/// Why a product `pub fn` that no product code calls stays.
enum Need {
    /// The example of that name (under `examples/`) calls it.
    Example(&'static str),
    /// It is the one way into a feature of the paper; the text names the
    /// paper's section.
    Paper(&'static str),
}

/// Every product `pub fn` that no product code calls, and what needs it.
#[rustfmt::skip]
const UNCALLED: &[(&str, Need)] = &[
    ("trace_json", Example("slo_observability")),
    ("table_bytes", Example("word_occurrence")),
    ("with_reduce_chunk", Paper("the reduce-chunking callback (section 4.3): a reducer folds its value sets \
        in bounded kernels")),
    ("shared_alloc", Paper("block-shared memory, which KMC's kernel reads its centers from (section 5.3.4): \
        the allocator held to the launch's declaration, the one source of `SharedMemExceeded`")),
];

/// The product's source files: what [`product_code`] counts.
const PRODUCT: &[&str] = &["crates", "src"];
/// Where product code lives: the product and the benchmark harness.
const CALLERS: &[&str] = &["crates", "src", "benchmark/src"];

/// The `.rs` files under `roots` outside a crate's `tests/`, `benches/`
/// and `examples/`, relative to the package root.
fn sources(roots: &[&str]) -> Vec<String> {
    let mut todo: Vec<String> = roots.iter().map(|r| r.to_string()).collect();
    let mut out = Vec::new();
    while let Some(rel) = todo.pop() {
        let path = Path::new(ROOT).join(&rel);
        if path.is_dir() {
            for entry in fs::read_dir(path).unwrap() {
                let child = format!("{rel}/{}", entry.unwrap().file_name().to_string_lossy());
                let below = child.split('/').nth(2);
                if !child.starts_with("crates/") || below.is_none() || below == Some("src") {
                    todo.push(child);
                }
            }
        } else if rel.ends_with(".rs") {
            out.push(rel);
        }
    }
    out
}

/// The lines of `src` that can call a function: its product code less
/// `use` declarations (a re-export calls nothing).
fn calling_lines(src: &str) -> Vec<&str> {
    let mut in_use = false;
    product_code(src)
        .filter(|l| {
            let decl = l
                .trim_start_matches("pub ")
                .trim_start_matches("pub(crate) ");
            let skip = in_use || decl.starts_with("use ");
            if skip {
                in_use = !l.ends_with(';');
            }
            !skip
        })
        .collect()
}

/// The name a `pub fn` line defines, if it is one.
fn defines(line: &str) -> Option<&str> {
    let rest = line
        .strip_prefix("pub fn ")
        .or(line.strip_prefix("pub const fn "))?;
    let end = rest.find(|c: char| !(c.is_alphanumeric() || c == '_'))?;
    Some(&rest[..end])
}

/// Whether `line` names `name` as a whole word.
fn mentions(line: &str, name: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    line.match_indices(name).any(|(i, _)| {
        let before = line[..i].chars().next_back();
        let after = line[i + name.len()..].chars().next();
        !before.is_some_and(ident) && !after.is_some_and(ident)
    })
}

/// The `pub fn`s defined in `product` (file, source) that no line of
/// `code` calls, as `(file, name)`. Names are matched as words, so a name
/// another function shares counts as called: the rule catches what
/// nothing names at all.
fn uncalled<'a>(product: &'a [(String, String)], code: &[&str]) -> Vec<(&'a str, &'a str)> {
    let called = |name: &str| {
        code.iter()
            .any(|l| mentions(l, name) && defines(l) != Some(name))
    };
    product
        .iter()
        .flat_map(|(file, src)| {
            let names = calling_lines(src).into_iter().filter_map(defines);
            names
                .filter(|n| !called(n))
                .map(move |n| (file.as_str(), n))
        })
        .collect()
}

/// `(file, source)` of every file [`sources`] finds under `roots`.
fn read_sources(roots: &[&str]) -> Vec<(String, String)> {
    let read = |f: String| {
        let src = fs::read_to_string(Path::new(ROOT).join(&f)).unwrap();
        (f, src)
    };
    sources(roots).into_iter().map(read).collect()
}

#[test]
fn every_product_pub_fn_has_a_product_caller_or_a_stated_need() {
    // The rule sees a function nothing calls, and not one that is called.
    let probe = [(
        "probe.rs".to_string(),
        "pub fn never_called() {}\npub fn called() {}\nfn f() { called() }\n".to_string(),
    )];
    assert_eq!(
        uncalled(&probe, &calling_lines(&probe[0].1)),
        [("probe.rs", "never_called")]
    );

    let callers = read_sources(CALLERS);
    let code: Vec<&str> = callers
        .iter()
        .flat_map(|(_, src)| calling_lines(src))
        .collect();
    let product = read_sources(PRODUCT);
    assert!(product.iter().any(|(f, _)| f == "src/lib.rs"));
    assert!(callers.iter().any(|(f, _)| f == "benchmark/src/lib.rs"));
    let found = uncalled(&product, &code);
    let unexplained: Vec<_> = found
        .iter()
        .filter(|(_, name)| !UNCALLED.iter().any(|(n, _)| n == name))
        .collect();
    assert!(
        unexplained.is_empty(),
        "no product code calls these; call them, delete them or state the need: {unexplained:#?}"
    );
    for (name, need) in UNCALLED {
        assert!(
            found.iter().any(|(_, n)| n == name),
            "{name} has a product caller now"
        );
        let user = match need {
            Example(e) => format!("examples/{e}.rs"),
            Paper(feature) => {
                assert!(
                    feature.contains("section "),
                    "{name}: name the paper's section"
                );
                continue;
            }
        };
        let src = fs::read_to_string(Path::new(ROOT).join(&user)).unwrap();
        assert!(
            src.lines().any(|l| mentions(l, name)),
            "{user} does not call {name}"
        );
    }
}
