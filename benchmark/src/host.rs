//! Host-side clocks and process accounting (Linux only).
//!
//! Wall time comes from `std::time::Instant`. Process CPU time is read
//! with `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)` — nanosecond resolution,
//! unlike the 10 ms tick behind `/proc/self/stat` — and the fault and
//! user/system split with `getrusage(RUSAGE_SELF)`. Both are declared here
//! because the build has no `libc` crate.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` of 64-bit Linux: two `timeval`s and fourteen `long`s.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    /// `ru_maxrss` .. `ru_nivcsw`; index 4 is `ru_minflt`.
    longs: [i64; 14],
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const RUSAGE_SELF: i32 = 0;
const M_MMAP_THRESHOLD: i32 = -3;
/// Buffers from this size up are mapped and unmapped one by one.
const MMAP_THRESHOLD_BYTES: i32 = 512 * 1024;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Pin glibc malloc's mmap threshold. Setting it at all turns off glibc's
/// *dynamic* threshold, which otherwise climbs to 32 MiB as large buffers
/// are freed and moves them onto the heap, where freed memory stays with
/// the allocator. With that on, a pass's peak resident set is decided by
/// whether a buffer a few hundred bytes longer than last time still fits
/// a free block: 286 to 394 MiB over four seeds of `sio_sort_8rank`.
/// Pinned, every large buffer is mapped and unmapped, the peak measures
/// live memory and repeats within 0.1 %. The price is page faults: at
/// 512 KiB about a tenth more host time on that workload (at glibc's
/// initial 128 KiB, which also catches its 167 KB buckets, two fifths).
pub fn pin_mmap_threshold() {
    // SAFETY: `mallopt` only stores a tunable; called at start-up, before
    // any other thread exists.
    let rc = unsafe { mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES) };
    assert_eq!(rc, 1, "mallopt(M_MMAP_THRESHOLD) failed");
}

/// Reset the peak resident set size to the current one, so that a later
/// [`peak_rss_mb`] covers only what ran in between. Returns whether the
/// kernel allowed it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// CPU seconds (user + system, all threads) this process has consumed.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` with the 64-bit Linux
    // layout, and the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// User/system CPU seconds and minor page faults of this process.
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    pub minor_faults: u64,
}

pub fn usage() -> Usage {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a valid, writable `rusage` with the 64-bit Linux
    // layout (144 bytes), and RUSAGE_SELF is always accepted.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let secs = |tv: Timeval| tv.tv_sec as f64 + tv.tv_usec as f64 * 1e-6;
    Usage {
        user_s: secs(ru.ru_utime),
        sys_s: secs(ru.ru_stime),
        minor_faults: ru.longs[4].max(0) as u64,
    }
}

/// A wall + CPU stopwatch.
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            wall: Instant::now(),
            cpu: process_cpu_s(),
        }
    }

    /// `(wall seconds, CPU seconds)` since `start`.
    pub fn elapsed(&self) -> (f64, f64) {
        (
            self.wall.elapsed().as_secs_f64(),
            process_cpu_s() - self.cpu,
        )
    }
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// One-minute load average.
pub fn loadavg_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|n| n.parse().ok()))
        .unwrap_or(f64::NAN)
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Median of a non-empty sample (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Quantile `q` in `[0, 1]` of a non-empty sample, linearly interpolated
/// between the two nearest order statistics.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, frac) = (pos.floor() as usize, pos.fract());
    match v.get(lo + 1) {
        Some(&next) => v[lo] + frac * (next - v[lo]),
        None => v[lo],
    }
}
