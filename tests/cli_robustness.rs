//! No argument value panics the process: commands are driven through
//! `gpmr_cli::dispatch` exactly as the binary drives them, in the debug
//! profile, where integer overflow is a panic rather than a wrap.

use gpmr_cli::dispatch;

/// WO, KMC, MM and `gpmr kmeans` draw a second random stream from the
/// seed after `--seed`. At `u64::MAX` that was `seed + 1`: exit 101 in
/// a debug build, a silent wrap in release.
#[test]
fn the_largest_seed_runs_every_command_that_derives_a_second_one() {
    for command in [
        "run --benchmark wo --size 20000",
        "run --benchmark kmc --size 10000",
        "run --benchmark mm --size 64",
        "analyze --benchmark wo --size 20000",
        "analyze --benchmark kmc --size 10000",
        "kmeans --points 2000 --k 4 --iterations 2",
    ] {
        let line = format!("{command} --gpus 2 --seed {}", u64::MAX);
        let out = dispatch(line.split(' ')).unwrap_or_else(|e| panic!("{command}: {e}"));
        assert!(!out.is_empty(), "{command} printed nothing");
    }
}

/// The chunk autotuner multiplied pipeline depth by `--scale`: at 2^62
/// the product wrapped to zero (a division by zero, in release too), at
/// `u64::MAX` it overflowed. The CLI had its own copy of the function;
/// now `run`, `analyze` and `perf record` all reach the harness's, which
/// saturates.
#[test]
fn the_largest_scales_run_every_command_that_sizes_chunks() {
    let recording = std::env::temp_dir().join("gpmr_cli_robustness_scale.json");
    for scale in [1u64 << 62, u64::MAX] {
        for command in [
            "run --benchmark sio --size 2000".to_string(),
            "analyze --benchmark sio --size 2000".to_string(),
            format!("perf record --out {}", recording.display()),
        ] {
            let line = format!("{command} --scale {scale}");
            let out = dispatch(line.split(' ')).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert!(!out.is_empty(), "{line} printed nothing");
        }
    }
    std::fs::remove_file(&recording).ok();
}

/// `--gpus` sizes a cluster in seven commands and was range-checked in
/// two: `kmeans --gpus 0` divided by zero, `serve --gpus 100000` built
/// 100 000 devices per engine slot. One bound for all of them.
#[test]
fn every_command_that_builds_a_cluster_bounds_gpus() {
    let wl = concat!(env!("CARGO_MANIFEST_DIR"), "/workloads/service_demo.wl");
    for command in [
        "run --benchmark sio --size 2000".to_string(),
        "analyze --benchmark sio --size 2000".to_string(),
        "kmeans --points 100".to_string(),
        format!("serve --workload {wl}"),
        format!("slo report --workload {wl}"),
        format!("metrics export --workload {wl}"),
        "info".to_string(),
    ] {
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

/// Kernels ran on a process-wide worker pool sized by an environment
/// variable, one spawned thread per requested worker: at 4 000 000 000
/// `gpmr run` aborted (exit 134) inside the spawn loop, at 100 000 under
/// an address-space limit it panicked there. Nothing reads the variable
/// now and the process spawns no thread.
#[test]
fn no_environment_variable_sizes_a_thread_pool() {
    std::env::set_var("GPMR_WORKER_THREADS", "4000000000");
    let line = "run --benchmark wo --size 200000 --gpus 2";
    let out = dispatch(line.split(' ')).unwrap_or_else(|e| panic!("{line}: {e}"));
    assert!(out.contains("simulated time"), "{out}");
}
