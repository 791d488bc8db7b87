//! What earlier changes deleted stays deleted, and what they made one
//! stays one: each rule is a row of `RULES`, checked against the tree read
//! from the package root, and reads the product where it holds the fact.
//! Implied, so not rows: the `GPMR_*` variables (no `env::var`), `pool.rs`
//! (no `mod pool`), `trace.rs` (no `TraceKind`), `bench/src/bin` (no
//! `std::env::args`) and one `pub fn ablations` (the generator row's cut).

use std::fs;
use std::path::Path;
use std::process::Command;

use gpmr::core::{EngineTuning, RunOpts};
use gpmr::service::ServiceConfig;
use gpmr::telemetry::json::{self, Value};
use gpmr::telemetry::SpanKind;
use gpmr_bench::loc::product_code;
use Need::{Beside, Example, Paper, Test};
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

/// The two places the product starts a thread: a split launch's upper
/// half of blocks and the Sort stage's lane, each one scoped helper.
const LANE: &str =
    "every simulated charge runs on the calling thread; one scoped helper runs the upper half \
    of a split launch's blocks, and one the Sort stage's host-only sort sweeps";

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
    Rule { roots: TREE, hits: |l| any(l, &["available_parallelism", "thread::spawn", "thread::Builder", "mod pool",
            "pool::"]), example: "std::thread::available_parallelism()",
        reason: "PR 21: one host execution path; kernels run on the calling thread", ..ABSENT },
    Rule { roots: TREE, exempt: &["crates/core/src/engine.rs", "crates/sim-gpu/src/kernel.rs"],
        hits: |l| l.contains("thread::scope"), example: "std::thread::scope(|s| {", reason: LANE, ..ABSENT },
    Rule { roots: &["crates/core/src/engine.rs"], hits: |l| l.contains("thread::scope"), want: Exactly(1),
        example: "std::thread::scope(|s| {", reason: LANE, ..ABSENT },
    Rule { roots: &["crates/sim-gpu/src/kernel.rs"], hits: |l| l.contains("thread::scope"), want: Exactly(1),
        example: "std::thread::scope(|s| {", reason: LANE, ..ABSENT },
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
    Rule { roots: &["crates", "src"], text: Code, example: "pub fn busy_time(&self) -> SimDuration {",
        hits: |l| any(l, &["impl Alert {", "fn add(&self, v: f64)", "fn get(&self) -> f64", "fn count(&self) -> u64",
            "pub fn end_s(&self) -> f64", "fn spec(&self)", "fn cost(&self)", "busy_time", "busy: SimDuration",
            "self.busy +=", "Fabric::new(", "pub fn new(topology: Topology)", "fn count(&self, i: usize)",
            "fn iter(&self) -> impl Iterator<Item = (&K, std::ops::Range", "pub converged", "pub map_time",
            "pub sort_time", "pub group_time", "pub reduce_time", "pub occupancy", "block_threads: cfg.block_threads",
            "Finding::Alert", "fn compute_free_at("]),
        reason: "callers that rustc resolves: no public fn only tests called (the census's first finds), no \
            busy sum nothing read, no result field nothing read and no finding nothing built comes back", ..ABSENT },
    Rule { roots: &["crates", "src"], text: Code, example: "let cfg = SortConfig::reference();",
        hits: |l| any(l, &["SortConfig", "sort_pairs_with_bits_config", "digit_bits", "fuse_final"]),
        reason: "one sort plan: 11-bit digits and a fused final pass, and the sort's tests hold it \
            to the standard library's stable sort, not to a second plan", ..ABSENT },
    Rule { roots: TREE, hits: |l| any(l, &["sort_parts", "SortPart", "SortBuffers", "scratch.keys", "sort.keys"]),
        reason: "one sort entry per use: a reducer's radix sort is a charge half and a host half that sorts \
            its inbox in place, so no parts entry and no second, sorted copy of the pairs comes back",
        example: "let t = sort_parts_with_bits(gpu, at, &parts, bits, &mut scratch)?;", ..ABSENT },
    Rule { roots: &["crates", "src"], text: Code, example: "pub inputs_resident: bool,",
        hits: |l| l.contains("pub inputs_resident"),
        reason: "residency is the round driver's claim, set on its `Run`, not an option a caller hands a run",
        ..ABSENT },
    Rule { roots: &["crates/apps/src/mph.rs"], text: Code, hits: |l| any(l, &["fn len(", "fn is_empty("]),
        reason: "callers that rustc resolves: the hash's size is its dictionary's (`Dictionary::len`)",
        example: "pub fn len(&self) -> usize {", ..ABSENT },
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
/// are constants), `ServiceConfig` no tuning of its own and `RunOpts` what
/// a caller hands a run: a new field stops this file compiling, so is on
/// purpose.
#[test]
#[rustfmt::skip]
fn the_tuning_structs_keep_their_fields() {
    let EngineTuning { allow_stealing: _, pipeline_depth: _, gpu_direct: _ } = EngineTuning::default();
    let ServiceConfig { gpus: _, engines: _, max_queue_depth: _, batch_window_s: _, batch_max: _, obs: _ } =
        ServiceConfig::default();
    let RunOpts { tuning: _, tel: _, journal: _ } = RunOpts::default();
}

/// Why a product `pub fn` that no product code calls stays.
enum Need {
    /// The example of that name (under `examples/`) calls it.
    Example(&'static str),
    /// It is the one way into a feature of the paper; the text names the
    /// paper's section.
    Paper(&'static str),
    /// The test file (from the package root) calls it: the path tests hold
    /// the product to, or the one way they can read what it returns.
    Test(&'static str),
    /// Clippy's `len_without_is_empty` asks for it beside the named method
    /// of its type, which product code calls.
    Beside(&'static str),
}

/// Every product `pub fn` that no product code calls, as `Type::name` (a
/// method) or `name` (a free fn), and what needs it.
#[rustfmt::skip]
const UNCALLED: &[(&str, Need)] = &[
    ("Postmortem::trace_json", Example("slo_observability")),
    ("MinimalPerfectHash::table_bytes", Example("word_occurrence")),
    ("SioJob::with_reduce_chunk", Paper("the reduce-chunking callback (section 4.3): a reducer folds its value sets \
        in bounded kernels")),
    ("BlockCtx::shared_alloc", Paper("block-shared memory, which KMC's kernel reads its centers from (section 5.3.4): \
        the allocator held to the launch's declaration, the one source of `SharedMemExceeded`")),
    // The event table's rows are private; this is how tests enumerate it.
    ("SpanKind::all", Test("tests/span_vocabulary.rs")),
    ("Dictionary::is_empty", Beside("len")),
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

/// The name a `pub fn` line (trimmed) defines, if it is one.
fn defines(line: &str) -> Option<&str> {
    let rest = line
        .strip_prefix("pub fn ")
        .or(line.strip_prefix("pub const fn "))?;
    let end = rest.find(|c: char| !(c.is_alphanumeric() || c == '_'))?;
    Some(&rest[..end])
}

/// The type an `impl` line implements, if it is one.
fn impl_type(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("impl")?;
    let rest = if rest.starts_with('<') {
        let mut depth = 0;
        let (end, _) = rest.char_indices().find(|&(_, c)| {
            depth += (c == '<') as i32 - (c == '>') as i32;
            depth == 0
        })?;
        &rest[end + 1..]
    } else {
        rest.strip_prefix(' ')?
    };
    let rest = rest.trim_start();
    let end = rest
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    (end > 0).then(|| &rest[..end])
}

/// The file stem of `file`, which keys its free fns.
fn stem(file: &str) -> &str {
    Path::new(file).file_stem().unwrap().to_str().unwrap()
}

/// The product `pub fn`s of `file`, whose text is `src`: each one's line
/// index and key, `Type::name` inside an `impl Type` block, else
/// `stem::name` (`sio::counts_from_output`).
fn pub_fns(file: &str, src: &str) -> Vec<(usize, String)> {
    let lines: Vec<&str> = src
        .lines()
        .take_while(|l| l.trim() != "#[cfg(test)]")
        .collect();
    let indent = |l: &str| l.len() - l.trim_start().len();
    let enclosing = |i: usize| {
        lines[..i]
            .iter()
            .rev()
            .map(|l| (indent(l), l.trim()))
            .filter(|&(n, l)| n < indent(lines[i]) && !l.is_empty())
            .find(|(_, l)| !l.starts_with("where") && !l.starts_with('{'))
    };
    let key = |i: usize, name: &str| match enclosing(i).and_then(|(_, l)| impl_type(l)) {
        Some(ty) => format!("{ty}::{name}"),
        None => format!("{}::{name}", stem(file)),
    };
    lines
        .iter()
        .enumerate()
        .filter_map(|(i, l)| Some((i, key(i, defines(l.trim())?))))
        .collect()
}

/// The fn name a key names.
fn name_of(key: &str) -> &str {
    key.rsplit("::").next().unwrap()
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

/// The keys of the `pub fn`s defined in `product` (file, source) whose
/// name no line of `code` names. Names are matched as words, so a name
/// another function shares counts as called: the rule catches what
/// nothing names at all, and [`census`] the rest.
fn uncalled(product: &[(String, String)], code: &[&str]) -> Vec<String> {
    let called = |name: &str| {
        code.iter()
            .any(|l| mentions(l, name) && defines(l) != Some(name))
    };
    product
        .iter()
        .flat_map(|(file, src)| pub_fns(file, src))
        .map(|(_, key)| key)
        .filter(|key| !called(name_of(key)))
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
    // The rule sees a function nothing calls, and not one that is called;
    // a key names the type whose `impl` defines the method.
    let probe = [(
        "probe.rs".to_string(),
        "pub fn never_called() {}\npub fn called() {}\nfn f() { called() }\n".to_string(),
    )];
    assert_eq!(
        uncalled(&probe, &calling_lines(&probe[0].1)),
        ["probe::never_called"]
    );
    let src = "impl<T: Ord> Foo<T>\nwhere\n    T: Copy,\n{\n    pub fn get(&self) {}\n}\n";
    assert_eq!(pub_fns("foo.rs", src), [(4, "Foo::get".to_string())]);

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
        .filter(|key| !UNCALLED.iter().any(|(k, _)| k == key))
        .collect();
    assert!(
        unexplained.is_empty(),
        "no product code calls these; call them, delete them or state the need: {unexplained:#?}"
    );
    let keys: Vec<String> = product
        .iter()
        .flat_map(|(file, src)| pub_fns(file, src))
        .map(|(_, key)| key)
        .collect();
    for (key, need) in UNCALLED {
        assert!(keys.iter().any(|k| k == key), "{key} is no product pub fn");
        let user = match need {
            Example(e) => {
                let found = found.iter().any(|k| k == key);
                assert!(found, "{key} has a product caller now");
                format!("examples/{e}.rs")
            }
            Paper(feature) => {
                assert!(
                    feature.contains("section "),
                    "{key}: name the paper's section"
                );
                continue;
            }
            Test(file) => file.to_string(),
            Beside(other) => {
                let (ty, _) = key.rsplit_once("::").expect("a method");
                let other = format!("{ty}::{other}");
                assert!(keys.contains(&other), "{key}: no {other}");
                continue;
            }
        };
        let src = fs::read_to_string(Path::new(ROOT).join(&user)).unwrap();
        assert!(
            src.lines().any(|l| mentions(l, name_of(key))),
            "{user} does not call {key}"
        );
    }
}

/// A compiler message of one `cargo check`: its level, lint or error code,
/// the `(file, line)` of every span it and its notes point at (files
/// relative to the census's copy of the tree), and its text.
struct Diag {
    level: String,
    code: String,
    at: Vec<(String, usize)>,
    message: String,
}

/// `cargo check` with `args` in `tree`, building into `target`: its
/// compiler messages and whether it built.
fn check(tree: &Path, target: &Path, args: &[&str]) -> (Vec<Diag>, bool) {
    let out = Command::new(env!("CARGO"))
        .current_dir(tree)
        .env("CARGO_TARGET_DIR", target)
        .args(["check", "--offline", "--keep-going"])
        .arg("--message-format=json")
        .args(args)
        .output()
        .unwrap();
    let prefix = format!("{}/", tree.display());
    fn spans(m: &Value, prefix: &str, at: &mut Vec<(String, usize)>) {
        for s in m.get("spans").and_then(Value::as_arr).unwrap_or(&[]) {
            let file = s.get("file_name").and_then(Value::as_str).unwrap();
            let line = s.get("line_start").and_then(Value::as_f64).unwrap() as usize;
            at.push((file.strip_prefix(prefix).unwrap_or(file).to_string(), line));
        }
        for c in m.get("children").and_then(Value::as_arr).unwrap_or(&[]) {
            spans(c, prefix, at);
        }
    }
    let field = |m: &Value, k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
    let diags: Vec<Diag> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| json::parse(l).ok())
        .filter(|v| v.get("reason").and_then(Value::as_str) == Some("compiler-message"))
        .map(|v| {
            let m = v.get("message").unwrap();
            let mut at = Vec::new();
            spans(m, &prefix, &mut at);
            let code = m.get("code").map_or(String::new(), |c| field(c, "code"));
            Diag {
                level: field(m, "level"),
                code,
                at,
                message: field(m, "rendered"),
            }
        })
        .collect();
    let built = out.status.success();
    let errors = diags.iter().any(|d| d.level == "error");
    assert!(
        built || errors,
        "cargo check {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    (diags, built)
}

/// Copy `from` to `to`, recursively, leaving out `target` directories.
fn copy(from: &Path, to: &Path) {
    if from.is_dir() {
        fs::create_dir_all(to).unwrap();
        for entry in fs::read_dir(from).unwrap() {
            let name = entry.unwrap().file_name();
            if name != "target" {
                copy(&from.join(&name), &to.join(&name));
            }
        }
    } else {
        fs::create_dir_all(to.parent().unwrap()).unwrap();
        fs::copy(from, to).unwrap();
    }
}

/// The errors that name a private function at a call or a re-export.
const PRIVACY: &[&str] = &["E0603", "E0624", "E0364"];

/// rustc's answer to which product `pub fn`s only tests call. In a copy of
/// the tree every product `pub fn` becomes `pub(crate) fn`; then `cargo
/// check` builds the workspace's libraries, binaries and examples and the
/// benchmark harness, and every fn a privacy error names is made `pub`
/// again, until both build. The fns left private that rustc warns are never used are
/// the census, resolved per type. Returns their keys, sorted, and the
/// rounds it took.
fn census() -> (Vec<String>, usize) {
    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR")).join("census");
    let (tree, target) = (scratch.join("tree"), scratch.join("target"));
    let _ = fs::remove_dir_all(&tree);
    for part in [
        "Cargo.toml",
        "Cargo.lock",
        "crates",
        "src",
        "examples",
        "shims",
    ] {
        copy(&Path::new(ROOT).join(part), &tree.join(part));
    }
    for part in ["Cargo.toml", "Cargo.lock", "src"] {
        let part = Path::new("benchmark").join(part);
        copy(&Path::new(ROOT).join(&part), &tree.join(&part));
    }
    // (file, line index, key) of every fn made private, and the files' lines.
    let mut private = Vec::new();
    let mut files = std::collections::HashMap::new();
    let write =
        |file: &str, lines: &[String]| fs::write(tree.join(file), lines.join("\n") + "\n").unwrap();
    for (file, src) in read_sources(PRODUCT) {
        let mut lines: Vec<String> = src.lines().map(String::from).collect();
        for (i, key) in pub_fns(&file, &src) {
            lines[i] = lines[i].replacen("pub ", "pub(crate) ", 1);
            private.push((file.clone(), i, key));
        }
        write(&file, &lines);
        files.insert(file, lines);
    }
    let builds: [&[&str]; 2] = [
        &["--workspace", "--lib", "--bins", "--examples"],
        &["--manifest-path", "benchmark/Cargo.toml"],
    ];
    let mut rounds = 0;
    loop {
        rounds += 1;
        let mut warnings = Vec::new();
        let mut errors = None;
        for args in builds {
            match check(&tree, &target, args) {
                (diags, true) => warnings.extend(diags),
                (diags, false) => {
                    errors = Some(diags);
                    break;
                }
            }
        }
        let Some(errors) = errors else {
            let mut dead: Vec<String> = warnings
                .iter()
                .filter(|d| d.code == "dead_code")
                .flat_map(|d| &d.at)
                .filter_map(|(f, l)| private.iter().find(|(pf, pi, _)| pf == f && pi + 1 == *l))
                .map(|(_, _, key)| key.clone())
                .collect();
            dead.sort();
            dead.dedup();
            return (dead, rounds);
        };
        let named = |(file, i, key): &(String, usize, String), d: &Diag| match d.code.as_str() {
            // A re-export points at the `use`: the free fns of that name in its crate.
            "E0364" => {
                let name = name_of(key);
                let free = *key == format!("{}::{name}", stem(file));
                let in_crate = |f: &String| {
                    let krate = &f[..f.find("src/").unwrap_or(0)];
                    file.starts_with(&format!("{krate}src/"))
                };
                free && d.message.contains(&format!("`{name}`"))
                    && d.at.iter().any(|(f, _)| in_crate(f))
            }
            _ => d.at.iter().any(|(f, l)| f == file && *l == i + 1),
        };
        let privacy: Vec<&Diag> = errors
            .iter()
            .filter(|d| PRIVACY.contains(&d.code.as_str()))
            .collect();
        let (public, still): (Vec<_>, Vec<_>) = private
            .into_iter()
            .partition(|p| privacy.iter().any(|d| named(p, d)));
        let rendered: Vec<&str> = errors.iter().map(|d| d.message.as_str()).collect();
        assert!(
            !public.is_empty(),
            "the census names no fn in: {}",
            rendered.join("\n")
        );
        let mut touched = Vec::new();
        for (file, i, _) in public {
            let line = &mut files.get_mut(&file).unwrap()[i];
            *line = line.replacen("pub(crate) ", "pub ", 1);
            touched.push(file);
        }
        touched.dedup();
        for file in touched {
            write(&file, &files[&file]);
        }
        private = still;
    }
}

/// The census is `UNCALLED` less the examples' rows (the census builds the
/// examples): every fn it finds has a stated need, and every other stated
/// need is for a fn with no caller. Slow (two `cargo check`s a round), so
/// CI runs it:
/// `cargo test --test source_rules -- --ignored`.
#[test]
#[ignore]
fn rustc_finds_no_pub_fn_only_tests_call() {
    let start = std::time::Instant::now();
    let (found, rounds) = census();
    let secs = start.elapsed().as_secs_f64();
    println!(
        "census: {} fns in {rounds} rounds, {secs:.0} s: {found:#?}",
        found.len()
    );
    let mut stated: Vec<String> = UNCALLED
        .iter()
        .filter(|(_, need)| !matches!(need, Example(_)))
        .map(|(key, _)| key.to_string())
        .collect();
    stated.sort();
    assert_eq!(
        found, stated,
        "the census (left) against UNCALLED's needs (right)"
    );
}
