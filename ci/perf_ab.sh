#!/usr/bin/env bash
# A/B throughput gate: HEAD against a base commit, same host, interleaved.
#
#   ci/perf_ab.sh [REF]        (default: origin/main)
#
# The base is the merge base of HEAD and REF. The script builds the
# `ccbench` package twice, once from a separate checkout of the base and
# once from the working tree, each into its own target directory. It then
# runs each workload for ROUNDS interleaved rounds of SECONDS_PER_RUN,
# alternating which side runs first, and fails when the median per-round
# HEAD/base ratio of a gated metric crosses that workload's bound (the
# constants below). Both sides run on the same host within seconds of
# each other, so runner speed cancels out of the ratio and a 10% loss
# shows at the paper and contention points. exp-scale is a crash guard:
# its run-to-run spread is 0.06-0.16 (ccbench/README.md), so its rate
# bound only catches gross losses, and its RSS bound is the one
# BENCHMARK.json gives the metric.
#
# WORK names the directory for the checkout, builds and target dirs
# (default: a fresh temporary directory).
set -euo pipefail

ROUNDS=5
SECONDS_PER_RUN=5
WORKLOADS=(paper-1x2 contention-inf exp-scale)
# Lowest allowed median HEAD/base events_per_sec ratio, per workload.
declare -A MIN_EPS_RATIO=([paper-1x2]=0.95 [contention-inf]=0.95 [exp-scale]=0.80)
# Highest allowed median HEAD/base peak_rss_mib ratio; unset means ungated.
declare -A MAX_RSS_RATIO=([exp-scale]=1.15)

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

# One run's events/sec and peak RSS (MiB) from the result line; a run
# that is not correct or has failed operations fails the gate.
measure() { # binary workload seed
    "$1" --workload "$2" --seed "$3" --seconds "$SECONDS_PER_RUN" --trace 0 | tail -n 1 |
        python3 -c '
import json, sys
r = json.load(sys.stdin)
if not r["correct"] or r["failed"]:
    sys.exit("run not correct or has failed operations: %s" % r)
m = r["metrics"]
print(m["events_per_sec"]["value"], m["peak_rss_mib"]["value"])'
}

# Compares the median of the per-round ratios with a bound; fails when the
# median is on the wrong side of it.
check() { # workload metric higher|lower bound ratio...
    python3 - "$@" <<'PY'
import statistics, sys
wl, metric, better, bound = sys.argv[1], sys.argv[2], sys.argv[3], float(sys.argv[4])
ratios = [float(x) for x in sys.argv[5:]]
median = statistics.median(ratios)
if better == "higher":
    ok, wins, rel = median >= bound, sum(r > 1 for r in ratios), ">="
else:
    ok, wins, rel = median <= bound, sum(r < 1 for r in ratios), "<="
print(f"{wl:<15} {metric:<14} median head/base {median:.3f} "
      f"(head better in {wins}/{len(ratios)} rounds): "
      f"{'PASS' if ok else 'FAIL'} against {rel} {bound}")
sys.exit(0 if ok else 1)
PY
}

status=0
for wl in "${WORKLOADS[@]}"; do
    eps_ratios=()
    rss_ratios=()
    for round in $(seq 1 "$ROUNDS"); do
        if ((round % 2)); then
            b=$(measure "$bin_base" "$wl" "$round")
            h=$(measure "$bin_head" "$wl" "$round")
        else
            h=$(measure "$bin_head" "$wl" "$round")
            b=$(measure "$bin_base" "$wl" "$round")
        fi
        read -r b_eps b_rss <<<"$b"
        read -r h_eps h_rss <<<"$h"
        eps_r=$(python3 -c "print($h_eps / $b_eps)")
        rss_r=$(python3 -c "print($h_rss / $b_rss)")
        printf '%-15s round %d  events/s base %12.0f head %12.0f  %.3f  ' \
            "$wl" "$round" "$b_eps" "$h_eps" "$eps_r"
        printf 'peak RSS MiB base %7.1f head %7.1f  %.3f\n' "$b_rss" "$h_rss" "$rss_r"
        eps_ratios+=("$eps_r")
        rss_ratios+=("$rss_r")
    done
    check "$wl" events_per_sec higher "${MIN_EPS_RATIO[$wl]}" "${eps_ratios[@]}" || status=1
    if [[ -n ${MAX_RSS_RATIO[$wl]:-} ]]; then
        check "$wl" peak_rss_mib lower "${MAX_RSS_RATIO[$wl]}" "${rss_ratios[@]}" || status=1
    fi
done
exit "$status"
