//! Acceptance tests for the performance-diagnosis layer, end to end
//! through the CLI:
//!
//! * `gpmr analyze` of a faulted 8-rank SIO run's recording names the
//!   bounding stage and surfaces at least one finding, and its
//!   critical-path stage attribution reconciles with the makespan within
//!   1%;
//! * `gpmr perf diff` exits non-zero (an `Err` from dispatch, which the
//!   binary maps to exit code 2) on a synthetic 2x regression and on two
//!   sets recorded at different scales, and zero on an identical
//!   recording.

use std::path::PathBuf;
use std::sync::OnceLock;

use gpmr::telemetry::json;
use gpmr_cli::dispatch;
use gpmr_telemetry::baseline::{diff, diff_sets, BaselineSet, Verdict};

fn run(tokens: &[&str]) -> Result<String, gpmr_cli::CliError> {
    dispatch(tokens.iter().copied())
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
    let sc = gpmr_bench::perf::scenario("sio_4rank").unwrap();
    let (baseline, _) = gpmr_bench::perf::run_scenario(&sc, 4096);

    // Identical re-measurement: PASS.
    let (same, _) = gpmr_bench::perf::run_scenario(&sc, 4096);
    assert_eq!(diff(&baseline, &same, 0.15).verdict, Verdict::Pass);

    // Synthetic 2x makespan regression: FAIL.
    let mut worse = baseline.clone();
    worse.makespan_ns *= 2;
    assert_eq!(diff(&baseline, &worse, 0.15).verdict, Verdict::Fail);

    // And through the CLI: dispatch must return Err (the binary exits 2).
    let dir = std::env::temp_dir().join("gpmr_perf_gate_test");
    std::fs::create_dir_all(&dir).unwrap();
    let base_path = dir.join("base.json");
    let worse_path = dir.join("worse.json");
    let set = |b| BaselineSet {
        scale: 4096,
        tolerance: 0.15,
        baselines: vec![b],
    };
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
    let sc = gpmr_bench::perf::scenario("sio_4rank").unwrap();
    let set = |scale| BaselineSet {
        scale,
        tolerance: 0.10,
        baselines: vec![gpmr_bench::perf::run_scenario(&sc, scale).0],
    };
    let (at_8192, at_4096) = (set(8192), set(4096));
    let report = diff_sets(&at_8192, &at_4096, 0.10);
    assert_eq!(report.verdict, Verdict::Fail, "{}", report.render_text());
    // An unrecorded scale (0, from a set without the field) is not refused.
    let unscaled = BaselineSet {
        scale: 0,
        ..at_8192.clone()
    };
    assert_eq!(diff_sets(&unscaled, &at_8192, 0.10).verdict, Verdict::Pass);

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
