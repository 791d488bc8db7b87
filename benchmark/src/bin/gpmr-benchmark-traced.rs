//! The traced benchmark binary: per-layer metrics. Only this binary
//! counts allocations, so the plain one measures the program as shipped.

use gpmr_benchmark::CountingAlloc;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc::new();

fn main() -> std::process::ExitCode {
    gpmr_benchmark::run(Some(&ALLOCATOR))
}
