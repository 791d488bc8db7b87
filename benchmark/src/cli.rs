//! Command line and the guard rails checked before anything is measured.

use std::path::PathBuf;

use crate::workloads::NAMES;

/// Environment variables that change the code path under test. A run
/// with one of them set would measure a different program.
const FORBIDDEN_ENV: [&str; 3] = [
    "GPMR_EXEC_BACKEND",
    "GPMR_SORT_DIGIT_BITS",
    "GPMR_SORT_FUSE",
];

pub const USAGE: &str = "\
usage: run.sh --workload <name> [--seed N] [--seconds S] [--trace 0|1]
       run.sh --smoke [--seed N]
workloads: sio_sort_8rank wo_map_8rank paper5_64rank serve_mix";

#[derive(Clone, Debug)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Internal: run passes on the default worker pool and print their
    /// median wall and CPU seconds (the `sim_gpu.pool.*_ratio` probe).
    pub pool_child: bool,
    pub out_dir: PathBuf,
}

pub fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 20.0,
        trace: false,
        smoke: false,
        pool_child: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| {
            argv.next()
                .ok_or_else(|| format!("{flag} needs {what}\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !NAMES.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name:?}\n{USAGE}"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                };
            }
            "--out-dir" => args.out_dir = PathBuf::from(value("a directory")?),
            "--smoke" => args.smoke = true,
            "--pool-child" => args.pool_child = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if args.smoke == args.workload.is_some() {
        return Err(format!("give either --workload or --smoke\n{USAGE}"));
    }
    Ok(args)
}

/// Refuse to start when the environment selects another code path.
pub fn check_environment() -> Result<(), String> {
    for name in FORBIDDEN_ENV {
        if std::env::var_os(name).is_some() {
            return Err(format!(
                "{name} is set: it changes the code path under test; unset it"
            ));
        }
    }
    Ok(())
}
