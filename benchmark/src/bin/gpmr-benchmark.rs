//! The plain benchmark binary: end-to-end metrics, system allocator.

fn main() -> std::process::ExitCode {
    gpmr_benchmark::run(None)
}
