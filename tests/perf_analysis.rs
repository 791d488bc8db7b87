//! Acceptance tests for the performance-diagnosis layer, end to end
//! through the CLI:
//!
//! * `gpmr analyze` of a faulted 8-rank SIO run's recording names the
//!   bounding stage and surfaces at least one finding, and its
//!   critical-path stage attribution reconciles with the makespan within
//!   1%;
//! * `gpmr perf diff` exits non-zero (an `Err` from dispatch, which the
//!   binary maps to exit code 2) on a synthetic 2x regression, on two
//!   sets recorded at different scales and on a set whose fields do not
//!   have the types `perf record` writes, and zero on an identical
//!   recording.

use std::path::PathBuf;
use std::sync::OnceLock;

use gpmr::telemetry::json;
use gpmr_bench::perf::{PerfScenario, SCENARIOS};
use gpmr_cli::dispatch;
use gpmr_telemetry::baseline::{diff_sets, BaselineSet, Verdict};

fn run(tokens: &[&str]) -> Result<String, gpmr_cli::CliError> {
    dispatch(tokens.iter().copied())
}

/// The gate's 4-rank SIO scenario.
fn sio_4rank() -> PerfScenario {
    *SCENARIOS
        .iter()
        .find(|s| s.name == "sio_4rank")
        .expect("a gate scenario")
}

/// The recording of an 8-rank SIO run with six forced transfer failures.
fn faulted_sio() -> &'static str {
    static EVENTS: OnceLock<PathBuf> = OnceLock::new();
    let events = EVENTS.get_or_init(|| {
        let dir = std::env::temp_dir().join("gpmr_perf_analysis_faulted");
        std::fs::create_dir_all(&dir).unwrap();
        let events = dir.join("events.jsonl");
        run(&[
            "run",
            "--benchmark",
            "sio",
            "--gpus",
            "8",
            "--size",
            "200000",
            "--fault-plan",
            "xfail:0->1@0..1*6",
            "--events-out",
            events.to_str().unwrap(),
        ])
        .unwrap();
        events
    });
    events.to_str().unwrap()
}

#[test]
fn faulted_analyze_names_bounding_stage_and_findings() {
    let out = run(&["analyze", "--events", faulted_sio()]).unwrap();
    assert!(out.contains("bounding stage:"), "{out}");
    // Six forced transfer failures exceed the retry-hotspot threshold, so
    // the report must carry at least one named finding.
    assert!(!out.contains("findings: none"), "{out}");
    assert!(out.contains("TransferRetryHotspot"), "{out}");
    // All 8 ranks appear in the activity breakdown.
    for r in 0..8 {
        assert!(
            out.contains(&format!("rank {r}:")),
            "missing rank {r}:\n{out}"
        );
    }
}

#[test]
fn critical_path_attribution_reconciles_with_makespan() {
    let json_out = run(&["analyze", "--events", faulted_sio(), "--json"]).unwrap();
    let v = json::parse(&json_out).expect("analyze --json emits valid JSON");
    let makespan = v.get("makespan_s").and_then(json::Value::as_f64).unwrap();
    assert!(makespan > 0.0);
    let stage_sum: f64 = v
        .get("stages")
        .and_then(json::Value::as_arr)
        .unwrap()
        .iter()
        .map(|s| s.get("seconds").and_then(json::Value::as_f64).unwrap())
        .sum();
    let drift = (stage_sum - makespan).abs() / makespan;
    assert!(
        drift < 0.01,
        "critical-path stage attribution ({stage_sum}s) drifts {:.3}% from \
         the makespan ({makespan}s)",
        drift * 100.0
    );
    assert!(
        !v.get("findings")
            .and_then(json::Value::as_arr)
            .unwrap()
            .is_empty(),
        "{json_out}"
    );
}

#[test]
fn perf_gate_fails_on_regression_and_passes_on_identical() {
    // One real scenario measurement stands in for the committed baseline.
    let sc = sio_4rank();
    let (baseline, _) = gpmr_bench::perf::run_scenario(&sc, 4096);

    let set = |b| BaselineSet {
        scale: 4096,
        tolerance: 0.15,
        baselines: vec![b],
    };

    // Identical re-measurement: PASS.
    let (same, _) = gpmr_bench::perf::run_scenario(&sc, 4096);
    let verdict = diff_sets(&set(baseline.clone()), &set(same), 0.15).verdict;
    assert_eq!(verdict, Verdict::Pass);

    // Synthetic 2x makespan regression: FAIL.
    let mut worse = baseline.clone();
    worse.makespan_ns *= 2;
    let verdict = diff_sets(&set(baseline.clone()), &set(worse.clone()), 0.15).verdict;
    assert_eq!(verdict, Verdict::Fail);

    // And through the CLI: dispatch must return Err (the binary exits 2).
    let dir = std::env::temp_dir().join("gpmr_perf_gate_test");
    std::fs::create_dir_all(&dir).unwrap();
    let base_path = dir.join("base.json");
    let worse_path = dir.join("worse.json");
    std::fs::write(&base_path, set(baseline.clone()).to_json()).unwrap();
    std::fs::write(&worse_path, set(worse).to_json()).unwrap();

    let ok = run(&[
        "perf",
        "diff",
        "--baseline",
        base_path.to_str().unwrap(),
        "--against",
        base_path.to_str().unwrap(),
    ])
    .unwrap();
    assert!(ok.contains("verdict: PASS"), "{ok}");

    let err = run(&[
        "perf",
        "diff",
        "--baseline",
        base_path.to_str().unwrap(),
        "--against",
        worse_path.to_str().unwrap(),
    ])
    .unwrap_err();
    assert!(err.to_string().contains("FAIL"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A set recorded at another scale ran other workloads. The diff used to
/// compare them scenario by scenario and exit 0 (here: WARN, "makespan
/// improved -49.9%").
#[test]
fn a_diff_across_scales_fails_and_names_both_scales() {
    let sc = sio_4rank();
    let set = |scale| BaselineSet {
        scale,
        tolerance: 0.10,
        baselines: vec![gpmr_bench::perf::run_scenario(&sc, scale).0],
    };
    let (at_8192, at_4096) = (set(8192), set(4096));
    let report = diff_sets(&at_8192, &at_4096, 0.10);
    assert_eq!(report.verdict, Verdict::Fail, "{}", report.render_text());
    // A zero scale is a scale like any other: it used to skip the guard and
    // diff against every scale (WARN, not FAIL).
    let unscaled = BaselineSet {
        scale: 0,
        ..at_8192.clone()
    };
    assert_eq!(diff_sets(&unscaled, &at_8192, 0.10).verdict, Verdict::Fail);
    assert_eq!(diff_sets(&at_8192, &at_8192, 0.10).verdict, Verdict::Pass);

    let dir = std::env::temp_dir().join("gpmr_perf_scale_test");
    std::fs::create_dir_all(&dir).unwrap();
    let [old, new] = ["old.json", "new.json"].map(|f| dir.join(f));
    std::fs::write(&old, at_8192.to_json()).unwrap();
    std::fs::write(&new, at_4096.to_json()).unwrap();
    let err = run(&[
        "perf",
        "diff",
        "--baseline",
        old.to_str().unwrap(),
        "--against",
        new.to_str().unwrap(),
    ])
    .unwrap_err()
    .to_string();
    assert!(err.contains("verdict: FAIL"), "{err}");
    assert!(
        err.contains("scale 8192") && err.contains("scale 4096"),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A JSON object's fields.
type Fields = Vec<(String, json::Value)>;

/// An edit of a baseline set's fields.
type Edit = fn(&mut Fields);

/// `BENCH_PR6.json` with `edit` applied to its parsed tree.
fn edited_bench(edit: impl FnOnce(&mut Fields)) -> String {
    let text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_PR6.json")).unwrap();
    let mut set = json::parse(&text).unwrap();
    let json::Value::Obj(fields) = &mut set else {
        panic!("a set is an object")
    };
    edit(fields);
    set.render()
}

/// The fields of the set's first scenario, `wo_1rank`.
fn first_scenario(set: &mut Fields) -> &mut Fields {
    let (_, json::Value::Arr(scenarios)) = set.iter_mut().find(|(k, _)| k == "scenarios").unwrap()
    else {
        panic!("scenarios is an array")
    };
    let json::Value::Obj(first) = &mut scenarios[0] else {
        panic!("a scenario is an object")
    };
    first
}

/// Set field `key` of `fields` to the JSON text `raw`.
fn set_field(fields: &mut [(String, json::Value)], key: &str, raw: &str) {
    fields.iter_mut().find(|(k, _)| k == key).unwrap().1 = json::parse(raw).unwrap();
}

/// A baseline set's fields used to be read through `unwrap_or` and `as
/// u64`: a string scale read as 0, so the scale guard was skipped and the
/// diff passed (as it did for a scale written as 0); a makespan of -5 read as 0 ("makespan improved -100.0%");
/// a counter given as a string was dropped. Each is now an error naming
/// the scenario and the field, and `perf diff` exits 2 on it.
#[test]
fn a_baseline_set_is_read_with_the_types_perf_record_writes() {
    let bench = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_PR6.json");
    let same = run(&["perf", "diff", "--baseline", bench, "--against", bench]).unwrap();
    assert_eq!(same.matches("(makespan +0.00%)").count(), 11, "{same}");
    assert!(BaselineSet::from_json(&edited_bench(|_| {})).is_ok());

    let cases: [(&str, Edit); 8] = [
        ("\"scale\"", |s| set_field(s, "scale", "\"128\"")),
        ("\"scale\"", |s| set_field(s, "scale", "-64")),
        ("\"scale\"", |s| set_field(s, "scale", "0")),
        ("\"tolerance\"", |s| s.retain(|(k, _)| k != "tolerance")),
        ("\"makespan_ns\"", |s| {
            set_field(first_scenario(s), "makespan_ns", "-5")
        }),
        ("\"imbalance_cv\"", |s| {
            set_field(first_scenario(s), "imbalance_cv", "null")
        }),
        ("\"bounding_stage\"", |s| {
            first_scenario(s).retain(|(k, _)| k != "bounding_stage")
        }),
        ("\"counters.engine.chunks_dispatched\"", |s| {
            let (_, json::Value::Obj(counters)) = first_scenario(s)
                .iter_mut()
                .find(|(k, _)| k == "counters")
                .unwrap()
            else {
                panic!("counters is an object")
            };
            set_field(counters, "engine.chunks_dispatched", "\"16\"");
        }),
    ];
    let dir = std::env::temp_dir().join("gpmr_perf_strict_test");
    std::fs::create_dir_all(&dir).unwrap();
    let copy = dir.join("copy.json");
    for (i, (field, edit)) in cases.into_iter().enumerate() {
        let text = edited_bench(edit);
        let err = BaselineSet::from_json(&text).expect_err(field);
        assert!(err.contains(field), "case {i}: {err}");
        if i >= 4 {
            assert!(err.contains("scenario \"wo_1rank\""), "case {i}: {err}");
        }
        std::fs::write(&copy, &text).unwrap();
        let path = copy.to_str().unwrap();
        let err = run(&["perf", "diff", "--baseline", bench, "--against", path]).unwrap_err();
        assert!(err.to_string().contains(field), "case {i}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
