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
