//! Golden CLI bytes: what `gpmr run` and `gpmr analyze --json` print for
//! every paper benchmark, pinned as `(len, FNV-1a)` pairs recorded on the
//! commit before the CLI, the perf gate and the paper bins moved onto the
//! one app table in `gpmr-apps` — the way
//! `journal_bytes_match_the_build_that_introduced_the_format` pins
//! journals. A digest that drifts means a generator, chunk size, constant
//! or report line changed under some benchmark.

use gpmr::core::journal::fnv1a;
use gpmr_cli::dispatch;

const SIO: &str = "--benchmark sio --size 40000";
const WO: &str = "--benchmark wo --size 60000 --scale 64";
const KMC: &str = "--benchmark kmc --size 20000";
const LR: &str = "--benchmark lr --size 30000";

fn json_makespan(json: &str) -> f64 {
    let parsed = gpmr::telemetry::json::parse(json).expect("analyze --json parses");
    let makespan = parsed.get("makespan_s").and_then(|m| m.as_f64());
    makespan.expect("analysis has a makespan")
}

#[test]
fn cli_bytes_match_the_build_before_the_app_table() {
    let cases = [
        (
            "run --benchmark mm --size 64 --gpus 1".to_string(),
            (154, 0xad41_8c8b_4d3c_2fa4),
        ),
        (
            "run --benchmark mm --size 128 --gpus 4".to_string(),
            (156, 0xa50e_2f96_6915_aaef),
        ),
        (format!("run {SIO} --gpus 1"), (233, 0xbb6d_97f2_7570_55d4)),
        (format!("run {SIO} --gpus 4"), (232, 0xfbba_2ccb_9d5e_cd70)),
        (format!("run {WO} --gpus 1"), (220, 0x5aa0_d5ad_5ded_a196)),
        (format!("run {WO} --gpus 4"), (222, 0x3741_ae71_ae59_55f1)),
        (format!("run {KMC} --gpus 1"), (237, 0x4238_0bb3_da00_6229)),
        (
            format!("run {KMC} --gpus 4 --trace"),
            (940, 0x6a2e_4c8e_7f54_26fc),
        ),
        (format!("run {LR} --gpus 1"), (269, 0xa46e_1b90_88e5_6d02)),
        (format!("run {LR} --gpus 4"), (271, 0x08b9_30ea_e254_1777)),
        (
            format!("run {SIO} --gpus 4 --zipf 1.05 --partition range"),
            (286, 0x870f_bb49_2db7_36cf),
        ),
        (
            format!("run {WO} --gpus 4 --zipf 1.05 --partition range"),
            (275, 0x1b60_1988_6b31_45d3),
        ),
        (
            format!("run {SIO} --gpus 4 --fault-plan kill:1@1e-4;xfail:0->2@0..1e-2*2"),
            (313, 0x9a2d_21e1_2f80_00bc),
        ),
        (
            format!("run {SIO} --gpus 4 --pipeline-depth 1 --gpu-direct"),
            (232, 0xa5a7_1fa0_568e_d691),
        ),
        // Without skew flags `analyze` always ran what `run` runs; with
        // them it ran the unflagged job, so those bytes changed on purpose
        // and `analyze_runs_the_job_run_runs` pins them instead.
        (
            format!("analyze {SIO} --gpus 4 --json"),
            (1401, 0x618d_364d_7017_c0cc),
        ),
        (
            format!("analyze {WO} --gpus 4 --json"),
            (1383, 0xe1a5_0110_35f7_aadd),
        ),
        (
            format!("analyze {KMC} --gpus 4 --json"),
            (1406, 0xa1e6_bd81_c47d_b1eb),
        ),
        (
            format!("analyze {LR} --gpus 4 --json"),
            (1277, 0x5a81_6805_a346_3c76),
        ),
    ];
    let mut drifted = Vec::new();
    for (line, expect) in &cases {
        let out = dispatch(line.split(' ')).unwrap_or_else(|e| panic!("{line}: {e}"));
        let got = (out.len(), fnv1a(out.as_bytes()));
        if got != *expect {
            drifted.push(format!("{line}: ({}, {:#018x})", got.0, got.1));
        }
    }
    assert!(
        drifted.is_empty(),
        "CLI output (len, fnv1a) drifted:\n{}",
        drifted.join("\n")
    );
}

/// HELP promises `analyze --benchmark` "plus the RUN OPTIONS above":
/// under `--zipf`/`--partition` it analyzes the skewed, range-partitioned
/// job `run` times (it used to run the uniform round-robin one), and
/// `--journal` writes the journal `run` writes.
#[test]
fn analyze_runs_the_job_run_runs() {
    let dir = std::env::temp_dir().join("gpmr_cli_golden_analyze");
    std::fs::create_dir_all(&dir).unwrap();
    for (bench, run_time) in [
        ("--benchmark sio --size 200000", "2.040ms"),
        ("--benchmark wo --size 200000 --scale 64", "2.760ms"),
    ] {
        let skewed = format!("{bench} --gpus 4 --zipf 1.05 --partition range");
        let ran = dispatch(format!("run {skewed}").split(' ')).unwrap();
        let time_line = format!("simulated time : {run_time}\n");
        assert!(ran.contains(&time_line), "{bench}:\n{ran}");

        let analyzed = dispatch(format!("analyze {skewed} --json").split(' ')).unwrap();
        let makespan_ms = json_makespan(&analyzed) * 1e3;
        assert_eq!(format!("{makespan_ms:.3}ms"), run_time, "{bench}");
        // The unflagged job is a different one: the flags reached analyze.
        let plain = dispatch(format!("analyze {bench} --gpus 4 --json").split(' ')).unwrap();
        assert_ne!(json_makespan(&plain), json_makespan(&analyzed), "{bench}");

        let journals = ["run", "analyze"].map(|command| {
            let path = dir.join(format!("{command}.gpj"));
            let line = format!("{command} {skewed} --journal {}", path.display());
            dispatch(line.split(' ')).unwrap();
            std::fs::read(&path).unwrap()
        });
        assert!(!journals[0].is_empty(), "{bench}");
        assert_eq!(journals[0], journals[1], "{bench}: journals differ");
    }
    std::fs::remove_dir_all(&dir).ok();

    let err = dispatch("analyze --benchmark mm --size 64".split(' ')).unwrap_err();
    assert!(err.to_string().contains("analyze supports"), "{err}");
}
