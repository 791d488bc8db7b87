#!/usr/bin/env bash
# Does the benchmark repeat? Two sets of runs of the same build, the sets
# interleaved run by run (A1 B1 A2 B2 ...), run i of both sets on seed i.
#   selfcheck.sh [runs-per-set, default 5, at least 5]
# Prints each end-to-end metric's median, quartiles and spread (quartile
# distance over median) per set, and fails unless
#   - the two medians agree within half the metric's bound, and
#   - every spread except setup_s's stays within the metric's bound.
# A spread above a third of the bound is flagged: lengthen the run
# (`run_seconds` in BENCHMARK.json), do not widen the bound.
# The table it prints is committed as NOISE.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
runs="${1:-5}"
if (( runs < 5 )); then
    echo "selfcheck.sh: at least 5 runs per set" >&2
    exit 2
fi

# Build once, so that no run pays for it.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

exec python3 - "$here" "$runs" <<'EOF'
import json, statistics, subprocess, sys

here, runs = sys.argv[1], int(sys.argv[2])
spec = json.load(open(f"{here}/../BENCHMARK.json"))
seconds = spec["run_seconds"]

def run(workload, seed):
    out = subprocess.run(
        ["bash", f"{here}/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result
    return {k: v["value"] for k, v in result["metrics"].items()}

def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med

failed = False
print("| workload | metric | set | median | q1 | q3 | spread | bound | verdict |")
print("|---|---|---|---|---|---|---|---|---|")
for w in spec["workloads"]:
    sets = ([], [])
    for i in range(runs):
        for s in sets:
            s.append(run(w["name"], i + 1))
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        stats = [summary([r[name] for r in s]) for s in sets]
        drift = abs(stats[1][0] - stats[0][0]) / stats[0][0]
        for label, (med, q1, q3, spread) in zip("AB", stats):
            verdict = "ok"
            if name != "setup_s" and spread > bound:
                verdict, failed = "FAIL spread > bound", True
            elif name != "setup_s" and spread > bound / 3:
                verdict = "wide (> bound/3)"
            if label == "B":
                if drift > bound / 2:
                    verdict, failed = f"FAIL medians differ {drift:.2%}", True
                else:
                    verdict += f"; medians differ {drift:.2%}"
            print(f"| {w['name']} | {name} | {label} | {med:.6g} | {q1:.6g} | {q3:.6g} "
                  f"| {spread:.2%} | {bound:.1%} | {verdict} |")
    sys.stdout.flush()
sys.exit(1 if failed else 0)
EOF
