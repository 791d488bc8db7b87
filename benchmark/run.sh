#!/usr/bin/env bash
# The benchmark command: build the harness from source, then run it.
#   run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   run.sh --smoke
# Run from the repository root or anywhere else; builds into
# $CARGO_TARGET_DIR, or benchmark/target when that is unset.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

# A traced run is a separate binary (it installs a counting allocator).
bin=gpmr-benchmark
prev=
for arg in "$@"; do
    if [[ $prev == --trace && $arg == 1 ]]; then
        bin=gpmr-benchmark-traced
    fi
    prev=$arg
done

exec "$target/release/$bin" --out-dir "$here/out" "$@"
