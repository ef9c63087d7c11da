#!/usr/bin/env bash
# A/B throughput gate: HEAD against a base commit, same host, interleaved.
#
#   ci/perf_ab.sh [REF]        (default: origin/main)
#
# The base is the merge base of HEAD and REF. The script builds the
# `ccbench` package twice, once from a separate checkout of the base and
# once from the working tree, each into its own target directory. It then
# runs `paper-1x2` and `contention-inf` for ROUNDS interleaved rounds of
# SECONDS_PER_RUN each, alternating which side runs first, and fails when
# the median per-round HEAD/base `events_per_sec` ratio of either
# workload is below MIN_RATIO. Both sides run on the same host within
# seconds of each other, so runner speed cancels out of the ratio and a
# 10% loss shows where the 30%-of-archive floors cannot see it.
#
# WORK names the directory for the checkout, builds and target dirs
# (default: a fresh temporary directory).
set -euo pipefail

ROUNDS=5
SECONDS_PER_RUN=5
MIN_RATIO=0.95
WORKLOADS=(paper-1x2 contention-inf)

root=$(git rev-parse --show-toplevel)
base_sha=$(git -C "$root" merge-base HEAD "${1:-origin/main}")
work=${WORK:-$(mktemp -d)}
mkdir -p "$work/base-src"
echo "base $base_sha, head: working tree at $(git -C "$root" rev-parse HEAD), work dir $work"

git -C "$root" archive "$base_sha" | tar -x -C "$work/base-src"
build() { # source-dir target-dir
    CARGO_TARGET_DIR="$2" cargo build --release --offline --quiet \
        --manifest-path "$1/ccbench/Cargo.toml"
}
build "$work/base-src" "$work/base-target"
build "$root" "$work/head-target"
bin_base="$work/base-target/release/ccbench"
bin_head="$work/head-target/release/ccbench"

# One run's events/sec from the result line; a run that is not correct or
# has failed operations fails the gate.
rate() { # binary workload seed
    "$1" --workload "$2" --seed "$3" --seconds "$SECONDS_PER_RUN" --trace 0 | tail -n 1 |
        python3 -c '
import json, sys
r = json.load(sys.stdin)
if not r["correct"] or r["failed"]:
    sys.exit("run not correct or has failed operations: %s" % r)
print(r["metrics"]["events_per_sec"]["value"])'
}

status=0
for wl in "${WORKLOADS[@]}"; do
    ratios=()
    for round in $(seq 1 "$ROUNDS"); do
        if ((round % 2)); then
            b=$(rate "$bin_base" "$wl" "$round")
            h=$(rate "$bin_head" "$wl" "$round")
        else
            h=$(rate "$bin_head" "$wl" "$round")
            b=$(rate "$bin_base" "$wl" "$round")
        fi
        r=$(python3 -c "print($h / $b)")
        printf '%-15s round %d  base %12.0f  head %12.0f  head/base %.3f\n' \
            "$wl" "$round" "$b" "$h" "$r"
        ratios+=("$r")
    done
    if ! python3 - "$wl" "$MIN_RATIO" "${ratios[@]}" <<'PY'; then
import statistics, sys
wl, floor, ratios = sys.argv[1], float(sys.argv[2]), [float(x) for x in sys.argv[3:]]
median = statistics.median(ratios)
wins = sum(r > 1 for r in ratios)
ok = median >= floor
print(f"{wl:<15} median head/base {median:.3f} (head faster in {wins}/{len(ratios)} rounds): "
      f"{'PASS' if ok else 'FAIL'} against {floor}")
sys.exit(0 if ok else 1)
PY
        status=1
    fi
done
exit "$status"
