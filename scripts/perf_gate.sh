#!/usr/bin/env bash
# Simulator-throughput gate: HEAD against a base commit, measured by
# perf/ (perf/README.md) from outside the simulator.
#
# Checks the base out in a temporary git worktree, then runs every
# BENCHMARK.json workload on both sides as alternating pairs: pair i
# runs seed i on the two sides back to back, and which side goes first
# alternates from one run to the next.  Each side builds its own
# perf/ from its own sources.  The untraced reports then go to HEAD's
# perf/compare.py, whose exit status is the gate's: 1 on a metric
# worse than its BENCHMARK.json bound beyond the base's spread, on a
# stats_crc mismatch within a pair, or on a run that reported itself
# incorrect.
#
# Usage: perf_gate.sh <base-ref>
# Run from anywhere inside the repository, on a quiet host: every
# invocation is one process, one at a time, which keeps up to two CPUs
# busy (a simulating thread, and on blocking single-core workloads a
# helper that generates the next trace chunk).  At the
# settings below, one invocation takes about 6 s on a 4-vCPU KVM
# guest, so the gate takes about 5 min, the two builds included.
set -u

# Pairs per workload and timed seconds per invocation.  The detection
# floor and false-alarm rate measured at these settings are in
# EXPERIMENTS.md ("The throughput gate"); measure them again before
# changing either.
pairs=6
seconds=2

usage() {
  echo "usage: perf_gate.sh <base-ref>" >&2
  exit 2
}
[ $# -eq 1 ] || usage

root=$(git rev-parse --show-toplevel) || exit 2
base=$(git -C "$root" rev-parse --verify --quiet "$1^{commit}") || {
  echo "perf_gate: '$1' does not name a commit" >&2
  exit 2
}
if ! git -C "$root" cat-file -e "$base:perf/run.sh" 2>/dev/null; then
  echo "perf_gate: base $base has no perf/run.sh to compare against" >&2
  exit 2
fi

work=$(mktemp -d) || exit 2
cleanup() {
  git -C "$root" worktree remove --force "$work/base" >/dev/null 2>&1
  rm -rf "$work"
}
trap cleanup EXIT
trap 'cleanup; trap - EXIT; exit 130' INT TERM HUP

git -C "$root" worktree add --detach --quiet "$work/base" "$base" ||
  exit 2
mkdir -p "$work/reports/base" "$work/reports/head" "$work/logs"

workloads=$(python3 -c '
import json, sys
for w in json.load(open(sys.argv[1]))["workloads"]:
    print(w["name"])' "$root/BENCHMARK.json") || exit 2

echo "perf_gate: base $base vs HEAD $(git -C "$root" rev-parse HEAD)," \
     "$pairs pairs x ${seconds} s per workload"

# One untraced invocation of one side, report and log under $work.
run_side() {
  local side=$1 workload=$2 seed=$3 dir
  if [ "$side" = base ]; then dir=$work/base; else dir=$root; fi
  (cd "$dir" && bash perf/run.sh --workload "$workload" --seed "$seed" \
     --seconds "$seconds" --trace 0 \
     --report "$work/reports/$side/$workload.$seed.json") \
    > "$work/logs/$side.$workload.$seed.log" 2>&1
}

for seed in $(seq 1 "$pairs"); do
  # Which side goes first flips from workload to workload and, for
  # each workload, from seed to seed.
  turn=$seed
  for workload in $workloads; do
    order="base head"
    [ $((turn % 2)) -eq 0 ] && order="head base"
    turn=$((turn + 1))
    for side in $order; do
      run_side "$side" "$workload" "$seed"
      if [ ! -s "$work/reports/$side/$workload.$seed.json" ]; then
        echo "perf_gate: $side $workload seed $seed wrote no report:" >&2
        tail -n 20 "$work/logs/$side.$workload.$seed.log" >&2
        exit 1
      fi
    done
  done
  echo "perf_gate: pair $seed of $pairs done"
done

python3 "$root/perf/compare.py" "$work/reports/base" "$work/reports/head"
