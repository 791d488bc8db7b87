//! Golden CLI bytes: what `gpmr run` and `gpmr analyze --json` of its
//! recording print for every paper benchmark, pinned as `(len, FNV-1a)`
//! pairs recorded on the commit before the CLI, the perf gate and the
//! paper bins moved onto the one app table in `gpmr-apps` — the way
//! `journal_bytes_match_the_build_that_introduced_the_format` pins
//! journals. A digest that drifts means a generator, chunk size, constant
//! or report line changed under some benchmark. The paper artifacts are
//! pinned the same way, to what the binaries `gpmr paper` replaced
//! printed. MM's two digests were re-recorded once, when it moved onto
//! the round driver and took the common report: its `simulated time`
//! lines are asserted beside them.

use std::path::Path;

use gpmr::core::journal::fnv1a;
use gpmr_cli::dispatch;

const SIO: &str = "--benchmark sio --size 40000";
const WO: &str = "--benchmark wo --size 60000 --scale 64";
const KMC: &str = "--benchmark kmc --size 20000";
const LR: &str = "--benchmark lr --size 30000";

/// What `analyze --json` prints for the recording of `run … --gpus 4`, for
/// four benchmarks: the bytes `analyze` printed when it ran the job itself.
const ANALYZED: [(&str, (usize, u64)); 4] = [
    (SIO, (1401, 0x618d_364d_7017_c0cc)),
    (WO, (1383, 0xe1a5_0110_35f7_aadd)),
    (KMC, (1406, 0xa1e6_bd81_c47d_b1eb)),
    (LR, (1277, 0x5a81_6805_a346_3c76)),
];

fn digest(bytes: &[u8]) -> (usize, u64) {
    (bytes.len(), fnv1a(bytes))
}

fn workload(name: &str) -> String {
    format!("{}/workloads/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// `analyze --json` of the recording `run <run> --events-out` writes under `dir`.
fn analyze_recording(run: &str, dir: &Path) -> String {
    std::fs::create_dir_all(dir).unwrap();
    let events = dir.join("events.jsonl").display().to_string();
    let line = format!("run {run} --events-out {events}");
    dispatch(line.split(' ')).unwrap_or_else(|e| panic!("{line}: {e}"));
    dispatch(["analyze", "--events", &events, "--json"]).unwrap()
}

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
            (222, 0xaa02_f2ea_d452_23ac),
        ),
        (
            "run --benchmark mm --size 128 --gpus 4".to_string(),
            (223, 0x7ce8_c881_153e_762d),
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

    // MM's makespans from before the round driver, at two toy sizes and
    // at the paper's 64 ranks.
    for (line, time) in [
        ("--size 64 --gpus 1", "1.904ms"),
        ("--size 128 --gpus 4", "3.207ms"),
        ("--size 512 --gpus 64 --scale 32", "72.776ms"),
    ] {
        let out = dispatch(format!("run --benchmark mm {line}").split(' ')).unwrap();
        let time_line = format!("simulated time : {time}\n");
        assert!(out.contains(&time_line), "{line}:\n{out}");
        // The rate counts order² elements, not the order.
        assert!(!out.contains("throughput     : 0.0 M"), "{line}:\n{out}");
    }
}

/// `analyze` of `run`'s recording analyzes the job `run` timed: under
/// `--zipf`/`--partition`, the skewed, range-partitioned one (when
/// `analyze` ran jobs itself it once ran the uniform round-robin one).
#[test]
fn analyze_runs_the_job_run_runs() {
    let dir = std::env::temp_dir().join("gpmr_cli_golden_analyze");
    for (bench, run_time) in [
        ("--benchmark sio --size 200000", "2.040ms"),
        ("--benchmark wo --size 200000 --scale 64", "2.760ms"),
    ] {
        let skewed = format!("{bench} --gpus 4 --zipf 1.05 --partition range");
        let ran = dispatch(format!("run {skewed}").split(' ')).unwrap();
        let time_line = format!("simulated time : {run_time}\n");
        assert!(ran.contains(&time_line), "{bench}:\n{ran}");

        let analyzed = analyze_recording(&skewed, &dir);
        let makespan_ms = json_makespan(&analyzed) * 1e3;
        assert_eq!(format!("{makespan_ms:.3}ms"), run_time, "{bench}");
        // The unflagged job is a different one: the flags reached the run.
        let plain = analyze_recording(&format!("{bench} --gpus 4"), &dir);
        assert_ne!(json_makespan(&plain), json_makespan(&analyzed), "{bench}");
    }

    // MM, on the round driver, is analyzed like the rest: the recording
    // spans both rounds on one clock and names a stage for all of it.
    let analyzed = analyze_recording("--benchmark mm --gpus 4 --size 128", &dir);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        format!("{:.3}ms", json_makespan(&analyzed) * 1e3),
        "3.207ms"
    );
    let parsed = gpmr::telemetry::json::parse(&analyzed).unwrap();
    let stages = parsed.get("stages").and_then(|s| s.as_arr()).unwrap();
    for stage in stages {
        let name = stage.get("stage").and_then(|n| n.as_str()).unwrap();
        let share = stage.get("share").and_then(|s| s.as_f64()).unwrap();
        assert!(name != "Other" || share < 0.01, "{analyzed}");
    }
}

/// `gpmr paper` prints, byte for byte, what the eight table and figure
/// binaries it replaced printed: at a scale small enough for the debug
/// profile, and at 2^62, where MM's block sizing used to overflow (those
/// digests are the release binaries', which wrapped silently).
#[test]
fn paper_bytes_match_the_binaries_they_replace() {
    let at = |artifact: &str, scale: u64| format!("paper {artifact} --scale {scale}");
    let cases = [
        (at("table1", 1 << 20), (991, 0xb73f_cc49_d96f_03c3)),
        (at("table2", 1 << 20), (880, 0xc07e_f040_e6ac_b686)),
        (at("table3", 1 << 20), (725, 0xd9a8_9a98_8409_77c8)),
        (at("fig2", 1 << 20), (1220, 0x1ffe_7a52_6013_39f5)),
        (at("fig2 --csv", 1 << 20), (1784, 0x4200_f442_4f7f_438e)),
        (at("fig3", 1 << 20), (7673, 0xeb57_6bbe_f1f3_caa7)),
        (at("fig3 --csv", 1 << 20), (11094, 0xd25c_eb58_f230_4617)),
        (at("weak", 1 << 20), (1346, 0xd373_ff4a_984d_abf6)),
        (at("weak --full", 1 << 20), (7858, 0xb231_3ba0_ffb2_e83c)),
        (at("ablations", 1 << 20), (2639, 0x51a0_e0ee_c1a4_ec3c)),
        (at("fig2", 1 << 62), (1232, 0x861f_b349_29db_e2a6)),
        (at("fig3", 1 << 62), (7685, 0x1026_3d51_5c11_64fa)),
        (at("table2", 1 << 62), (1291, 0x2a74_c5af_0738_91e4)),
        (at("table3", 1 << 62), (1022, 0x9526_a597_8e1c_9589)),
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
        "paper output (len, fnv1a) drifted:\n{}",
        drifted.join("\n")
    );
}

/// `gpmr serve` prints, byte for byte, what the job service printed when
/// it still ran every pass to completion at dispatch and replayed it to
/// stop it; the demo's flight recorder writes the same postmortem files
/// but one. A postmortem is compared by its file, not by stdout, which
/// names the directory. job6 misses its deadline after its map stage has
/// ended: its postmortem now splices the pass's own recording, with the
/// Bin, Sort and Reduce it was running, where the replay showed a run
/// stopped with nothing in flight (8375 bytes, `0x1260_5c61_6169_e340`).
#[test]
fn serve_bytes_match_the_service_that_replayed_its_stops() {
    let mut drifted = Vec::new();
    let mut check = |what: String, got: (usize, u64), expect: (usize, u64)| {
        if got != expect {
            drifted.push(format!("{what}: ({}, {:#018x})", got.0, got.1));
        }
    };
    for (name, expect) in [
        ("service_demo.wl", (2490, 0xa66a_fdbe_4aa6_9010)),
        ("slo_overload.wl", (3261, 0x7af6_02e8_c90c_c886)),
        ("slo_overload_batch.wl", (3275, 0x6f06_ebb7_7a0e_cf5b)),
    ] {
        let out = dispatch(["serve", "--workload", &workload(name)]).unwrap();
        check(format!("serve {name}"), digest(out.as_bytes()), expect);
    }

    let dir = std::env::temp_dir().join("gpmr_cli_golden_flight");
    std::fs::remove_dir_all(&dir).ok();
    let demo = workload("service_demo.wl");
    let dir_arg = dir.to_string_lossy().into_owned();
    dispatch(["serve", "--workload", &demo, "--flight-dir", &dir_arg]).unwrap();
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    files.sort();
    let expect = [
        (
            "postmortem-0001-cancelled-job1.json",
            (2360, 0x6b50_fc2f_b221_6f5f),
        ),
        (
            "postmortem-0002-deadline-missed-job6.json",
            (10120, 0xaf5c_bdba_77c4_8ce6),
        ),
        (
            "postmortem-0003-gpu-lost-job7.json",
            (28760, 0xc106_f08d_e0d9_015b),
        ),
    ];
    assert_eq!(files, expect.map(|(f, _)| f), "postmortem files");
    for (file, expect) in expect {
        let bytes = std::fs::read(dir.join(file)).unwrap();
        check(file.to_string(), digest(&bytes), expect);
        let trace = String::from_utf8(bytes).unwrap();
        gpmr::telemetry::export::validate_perfetto(&trace).unwrap();
    }
    let job6 = std::fs::read_to_string(dir.join(expect[1].0)).unwrap();
    assert!(job6.contains(r#""name":"job6""#), "{job6}");
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        drifted.is_empty(),
        "serve output (len, fnv1a) drifted:\n{}",
        drifted.join("\n")
    );
}

/// Every view of a run is an output of that run, and keeps the bytes of
/// the command that used to re-run it: `analyze` of a `run --events-out`
/// recording prints what `analyze --benchmark` printed (the `ANALYZED`
/// digests), and `serve --slo-out` (text, JSON, HTML) and `serve
/// --metrics-out` (Prometheus, JSON) write, for each committed workload,
/// what `slo report` and `metrics export` printed.
#[test]
fn every_view_of_a_run_keeps_its_bytes() {
    let dir = std::env::temp_dir().join("gpmr_cli_golden_views");
    let at = |file: &str| dir.join(file).display().to_string();
    let mut drifted = Vec::new();
    let mut check = |what: String, got: (usize, u64), expect: (usize, u64)| {
        if got != expect {
            drifted.push(format!("{what}: ({}, {:#018x})", got.0, got.1));
        }
    };
    for (bench, expect) in ANALYZED {
        let out = analyze_recording(&format!("{bench} --gpus 4"), &dir);
        check(
            format!("analyze of {bench}"),
            digest(out.as_bytes()),
            expect,
        );
    }
    // In the order of `forms` below.
    let views = [
        (
            "service_demo.wl",
            [
                (636, 0xdada_88b8_9fe4_6e23),
                (1167, 0xbc14_74cd_0fe4_0f0c),
                (1137, 0x3ebf_03b1_e805_77cf),
                (3212, 0xef20_5b6a_ae25_16b9),
                (594, 0xf441_ac38_b984_6df2),
            ],
        ),
        (
            "slo_overload.wl",
            [
                (421, 0x9d67_fc1d_1ed1_205f),
                (796, 0xb71d_8ab5_ce4e_6f3f),
                (958, 0xe16b_be22_5a02_8fcb),
                (2123, 0x796f_b010_3bad_5e0d),
                (359, 0xe92b_44e6_a3f9_a871),
            ],
        ),
        (
            "slo_overload_batch.wl",
            [
                (421, 0x413c_3652_3b8e_3da9),
                (783, 0x0530_b5be_1e96_0ecb),
                (958, 0x96b0_c4c4_725d_b4e3),
                (2272, 0xcf6a_eacd_bb57_5248),
                (411, 0xca22_d23b_a8ce_8b72),
            ],
        ),
    ];
    // Each `serve` writes one SLO form, the first two beside a metrics
    // file (telemetry on), the third alone (telemetry off).
    let serves = [
        &["--slo-out", "slo.txt", "--metrics-out", "metrics.prom"][..],
        &["--slo-out", "slo.json", "--metrics-out", "metrics.json"],
        &["--slo-out", "slo.html"],
    ];
    let forms = [
        "slo.txt",
        "slo.json",
        "slo.html",
        "metrics.prom",
        "metrics.json",
    ];
    for (name, expect) in views {
        for sinks in serves {
            let mut line = vec!["serve".to_string(), "--workload".into(), workload(name)];
            let file_at = |w: &&str| {
                if w.starts_with("--") {
                    w.to_string()
                } else {
                    at(w)
                }
            };
            line.extend(sinks.iter().map(file_at));
            dispatch(line).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        for (form, expect) in forms.into_iter().zip(expect) {
            let got = digest(&std::fs::read(at(form)).unwrap());
            check(format!("{name} {form}"), got, expect);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        drifted.is_empty(),
        "views (len, fnv1a) drifted:\n{}",
        drifted.join("\n")
    );
}

/// Table 4 counts this repository's own source lines, which move with
/// every edit to an app: its rows and columns are pinned, not its bytes.
#[test]
fn paper_table4_counts_every_app_beside_the_paper() {
    let out = dispatch(["paper", "table4"]).unwrap();
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines[0], "Table 4 — benchmark source lines of code");
    assert_eq!(
        lines[2],
        "benchmark  Phoenix (paper)  Mars (paper)  GPMR (paper)  this repo (GPMR port)"
    );
    let paper = [
        ("MM", "317", "235", "214"),
        ("KMC", "345", "152", "129"),
        ("WO", "231", "140", "397"),
        ("SIO", "—", "—", "—"),
        ("LR", "—", "—", "—"),
    ];
    for (line, (name, phoenix, mars, gpmr)) in lines[4..9].iter().zip(paper) {
        let cells: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(cells[..4], [name, phoenix, mars, gpmr], "{line}");
        let ours: usize = cells[4].parse().unwrap_or_else(|_| panic!("{line}"));
        assert!(ours > 50, "{line}");
    }
    assert!(lines[10].starts_with("Counting rule:"), "{out}");
}
