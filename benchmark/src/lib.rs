//! The gpmr benchmark harness: one run is one workload in one process.
//!
//! A plain run (`--trace 0`) sets the workload up, runs one untimed
//! warm-up pass, then times identical passes for `--seconds` and reports
//! the eight end-to-end metrics. A traced run (`--trace 1`, the
//! `gpmr-benchmark-traced` binary) records spans around every call into a
//! layer, reads the repo's own telemetry, replays each layer's public
//! functions and reports the per-layer metrics; it never feeds an
//! end-to-end number. See `README.md` beside this crate.

mod cli;
mod host;
mod layers;
mod trace;
mod workloads;

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::{Command, ExitCode};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use gpmr::telemetry::json::Value;

use cli::Args;
use host::{median, quantile, Stopwatch};
use trace::{Metrics, Tracer};
use workloads::{PassOutcome, Workload};

/// Set-ups per plain run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Timed passes a plain run makes at least, however short `--seconds`.
const MIN_PASSES: usize = 3;
/// Timed plain passes of a traced run and of the worker-pool probe.
const PROBE_PASSES: usize = 3;

/// A counting allocator, installed by the traced binary only. The counts
/// are statistics read between passes, so `Relaxed` is enough.
pub struct CountingAlloc {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

impl CountingAlloc {
    #[allow(clippy::new_without_default)]
    pub const fn new() -> Self {
        CountingAlloc {
            allocs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    fn count(&self, size: usize) {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(size as u64, Ordering::Relaxed);
    }

    fn snapshot(&self) -> (u64, u64) {
        (
            self.allocs.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
        )
    }
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged, so `System`'s guarantees carry over; the counters
// never touch the allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.count(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Entry point of both binaries. `counter` is the traced binary's
/// allocator.
pub fn run(counter: Option<&'static CountingAlloc>) -> ExitCode {
    let started = Instant::now();
    let args = match cli::parse(std::env::args().skip(1)).and_then(|a| {
        cli::check_environment()?;
        Ok(a)
    }) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("gpmr-benchmark: {message}");
            return ExitCode::from(2);
        }
    };
    if args.trace != counter.is_some() {
        eprintln!("gpmr-benchmark: --trace 1 runs the gpmr-benchmark-traced binary and --trace 0 the plain one; use run.sh");
        return ExitCode::from(2);
    }

    host::pin_mmap_threshold();
    // One busy thread: kernels run inline on the calling thread. Set
    // before the repo reads it (first pool use); no thread exists yet.
    if !args.pool_child {
        std::env::set_var("GPMR_WORKER_THREADS", "1");
    }
    // The service journals into the system temporary directory; keep
    // that inside the benchmark's own output directory.
    let scratch = args.out_dir.join("tmp");
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("gpmr-benchmark: cannot create {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    std::env::set_var("TMPDIR", &scratch);

    // Every worker thread is busy during a kernel.
    let workers = gpmr::sim_gpu::worker_threads();
    if workers > host::nproc() {
        eprintln!(
            "gpmr-benchmark: the load needs {workers} busy threads but only {} cores are available",
            host::nproc()
        );
        return ExitCode::from(2);
    }

    if args.pool_child {
        pool_child(&args);
        return ExitCode::SUCCESS;
    }
    println!(
        "host: nproc={} worker_threads={workers} seed={} loadavg_1m={}",
        host::nproc(),
        args.seed,
        host::loadavg_1m()
    );
    let ok = if args.smoke {
        // Run all four even when one fails.
        let results: Vec<bool> = workloads::NAMES
            .iter()
            .map(|name| plain_run(name, &args, Instant::now()))
            .collect();
        results.iter().all(|&ok| ok)
    } else {
        let name = args.workload.as_deref().expect("checked by the parser");
        match counter {
            Some(counter) => traced_run(name, &args, counter),
            None => plain_run(name, &args, started),
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Time `passes` (at least) identical passes for `seconds`; every pass
/// must repeat `expect` exactly. Returns per-pass `(wall, cpu)` seconds
/// and whether all passes agreed.
fn timed_passes(
    wl: &dyn Workload,
    expect: &PassOutcome,
    seconds: f64,
    passes: usize,
) -> (Vec<f64>, Vec<f64>, bool) {
    let mut tr = Tracer::new(false);
    let (mut walls, mut cpus, mut same) = (Vec::new(), Vec::new(), true);
    let began = Instant::now();
    while walls.len() < passes || began.elapsed().as_secs_f64() < seconds {
        let sw = Stopwatch::start();
        let outcome = wl.pass(&mut tr);
        let (wall, cpu) = sw.elapsed();
        walls.push(wall);
        cpus.push(cpu);
        if outcome != *expect {
            eprintln!(
                "gpmr-benchmark: pass {} differs from the warm-up pass:\n  {outcome:?}\n  {expect:?}",
                walls.len()
            );
            same = false;
        }
    }
    (walls, cpus, same)
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) {
    for (name, value, unit) in metrics.iter() {
        println!("{name:<44} {value:>16.6} {unit}");
    }
    let line = Value::Obj(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::Num(attempted as f64)),
        ("failed".into(), Value::Num(failed as f64)),
        ("metrics".into(), metrics.to_value()),
    ]);
    println!("{}", line.render());
}

/// A plain run: the eight end-to-end metrics of one workload.
fn plain_run(name: &str, args: &Args, started: Instant) -> bool {
    let mut tr = Tracer::new(false);
    // The first set-up is timed from process start. The memory peak is
    // that of the passes: set-up builds CPU references that outweigh them.
    let mut wl = workloads::setup(name, args.seed, args.smoke, &mut tr);
    let peak_is_of_passes = host::reset_peak_rss();
    let warm = wl.pass(&mut tr);
    let mut setups = vec![started.elapsed().as_secs_f64()];

    let (seconds, passes) = if args.smoke {
        (0.0, 2)
    } else {
        (args.seconds, MIN_PASSES)
    };
    let (walls, cpus, mut same) = timed_passes(wl.as_ref(), &warm, seconds, passes);
    // Read the high-water mark before setting up again: memory freed by
    // this workload stays with the allocator, so the later set-ups stack
    // on top of it and would be what the peak measures.
    let peak_rss_mb = host::peak_rss_mb();

    // Set up again for the median; each frees its predecessor first,
    // outside the clock.
    for _ in 1..if args.smoke { 1 } else { SETUPS } {
        drop(wl);
        let began = Instant::now();
        wl = workloads::setup(name, args.seed, args.smoke, &mut tr);
        same &= wl.pass(&mut tr) == warm;
        setups.push(began.elapsed().as_secs_f64());
    }

    let wall_s = median(&walls);
    let attempted = warm.attempted * walls.len() as u64;
    let failed = warm.failed * walls.len() as u64;
    let mut m = Metrics::default();
    m.put("setup_s", median(&setups), "s");
    m.put("wall_s", wall_s, "s");
    m.put("cpu_s", median(&cpus), "s");
    m.put("peak_rss_mb", peak_rss_mb, "MiB");
    m.put("sim_makespan_s", warm.sim_makespan_s, "s");
    m.put("sim_job_p50_s", median(&warm.job_latencies_s), "s");
    m.put("sim_job_p95_s", quantile(&warm.job_latencies_s, 0.95), "s");
    m.put("ok_share", warm.ok as f64 / warm.attempted as f64, "ratio");

    println!(
        "{name}: {} timed passes, {} set-ups, {} jobs per pass, loadavg_1m={}",
        walls.len(),
        setups.len(),
        warm.job_latencies_s.len(),
        host::loadavg_1m()
    );
    if !peak_is_of_passes {
        println!("note: /proc/self/clear_refs is not writable, so peak_rss_mb includes the set-up");
    }
    println!(
        "derived: sim_makespan_s / wall_s = {:.6} simulated seconds per wall second",
        warm.sim_makespan_s / wall_s
    );
    let correct = same && failed == 0;
    print_result(correct, attempted, failed, &m);
    correct
}

/// The worker-pool probe: the same passes on the default pool
/// (`GPMR_WORKER_THREADS` as the parent set it). Prints median wall and
/// CPU seconds.
fn pool_child(args: &Args) {
    let name = args.workload.as_deref().expect("checked by the parser");
    let mut tr = Tracer::new(false);
    let wl = workloads::setup(name, args.seed, args.smoke, &mut tr);
    let warm = wl.pass(&mut tr);
    let (walls, cpus, _) = timed_passes(wl.as_ref(), &warm, 0.0, PROBE_PASSES);
    println!("{} {}", median(&walls), median(&cpus));
}

/// Run the pool probe in a child process and return its medians.
fn probe_pool(name: &str, args: &Args) -> (f64, f64) {
    let exe = std::env::current_exe().expect("own executable path");
    let plain = exe.with_file_name("gpmr-benchmark");
    let out = Command::new(plain)
        .args(["--pool-child", "--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .arg("--out-dir")
        .arg(&args.out_dir)
        .env("GPMR_WORKER_THREADS", host::nproc().to_string())
        .output()
        .expect("start the worker-pool probe");
    assert!(
        out.status.success(),
        "worker-pool probe failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let mut nums = text
        .split_whitespace()
        .map(|n| n.parse::<f64>().expect("probe prints two numbers"));
    (
        nums.next().expect("probe wall"),
        nums.next().expect("probe cpu"),
    )
}

/// A traced run: the per-layer metrics of one workload.
fn traced_run(name: &str, args: &Args, counter: &'static CountingAlloc) -> bool {
    let mut tr = Tracer::new(true);
    let mut m = Metrics::default();

    // Pass 0 of the span file is the set-up.
    let wl = workloads::setup(name, args.seed, false, &mut tr);
    let warm = wl.pass(&mut Tracer::new(false));
    m.put("apps.generate_s", tr.total_s("apps.generate", 0), "s");
    m.put("apps.reference_s", tr.total_s("apps.reference", 0), "s");

    // Plain passes under this binary's allocator: the base of every
    // "share" below, and the allocation and fault counts of a pass.
    let (allocs0, bytes0) = counter.snapshot();
    let usage0 = host::usage();
    let (walls, cpus, mut same) = timed_passes(wl.as_ref(), &warm, 0.0, PROBE_PASSES);
    let (allocs1, bytes1) = counter.snapshot();
    let usage1 = host::usage();
    let (plain_wall_s, plain_cpu_s) = (median(&walls), median(&cpus));
    let n = walls.len() as f64;
    m.put(
        "host.allocs_per_pass",
        (allocs1 - allocs0) as f64 / n,
        "count",
    );
    m.put(
        "host.alloc_mb_per_pass",
        (bytes1 - bytes0) as f64 / n / (1024.0 * 1024.0),
        "MiB",
    );
    m.put(
        "host.minor_faults_per_pass",
        (usage1.minor_faults - usage0.minor_faults) as f64 / n,
        "count",
    );
    let (user, sys) = (usage1.user_s - usage0.user_s, usage1.sys_s - usage0.sys_s);
    m.put("host.sys_share", sys / (user + sys), "ratio");

    // The traced pass.
    let pass = tr.next_pass();
    let sw = Stopwatch::start();
    let (outcome, seen) = tr.span("pass", |tr| wl.traced_pass(pass, plain_wall_s, tr, &mut m));
    let traced_wall_s = sw.elapsed().0;
    if outcome != warm {
        eprintln!("gpmr-benchmark: the traced pass differs from the plain passes:\n  {outcome:?}\n  {warm:?}");
        same = false;
    }
    m.put("apps.chunk_s", tr.total_s("apps.chunk", pass), "s");
    m.put("apps.verify_s", tr.total_s("apps.verify", pass), "s");
    m.put("core.engine.run_job_s", seen.engine_s, "s");
    m.put(
        "core.engine.us_per_chunk",
        seen.engine_s / seen.counts.chunks_dispatched.max(1) as f64 * 1e6,
        "us",
    );
    seen.report(&mut m);

    tr.next_pass();
    layers::replay(&seen, &args.out_dir.join("tmp"), &mut tr, &mut m);

    drop(wl);
    let (pool_wall_s, pool_cpu_s) = tr.span("layers.pool_probe", |_| probe_pool(name, args));
    m.put(
        "sim_gpu.pool.wall_ratio",
        pool_wall_s / plain_wall_s,
        "ratio",
    );
    m.put("sim_gpu.pool.cpu_ratio", pool_cpu_s / plain_cpu_s, "ratio");

    let path = args.out_dir.join(format!("trace-{name}.json"));
    if let Err(e) = std::fs::write(&path, tr.to_json(name)) {
        eprintln!("gpmr-benchmark: cannot write {}: {e}", path.display());
        return false;
    }
    println!(
        "{name}: traced pass {traced_wall_s:.3} s against {plain_wall_s:.3} s plain; spans in {}",
        path.display()
    );
    let failed = warm.failed;
    let correct = same && failed == 0;
    print_result(correct, warm.attempted, failed, &m);
    correct
}
