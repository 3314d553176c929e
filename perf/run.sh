#!/usr/bin/env bash
# Build and run the simulator benchmark (see perf/README.md).
#
#   perf/run.sh --workload <name> --seed <n> --seconds <s> --trace 0|1
#               [--refs <n>] [--report <file>]
#                    one invocation; the last stdout line is the JSON result
#   perf/run.sh      every workload: seeds 0 and 1 untraced, seed 0 traced
#   perf/run.sh --quick
#                    every workload at 1 M refs, one rep, untraced and
#                    traced, then --self-check at 1 M refs
#   perf/run.sh --self-check
#                    at seed 0 the benchmark's driver path, simulateSystem
#                    and the traced path give the same stats crc
#
# The benchmark is built from ../src into .bench_build/perf (Release) on
# every call; an up-to-date build costs about a second.  Observability
# files, span traces and per-run reports go to .bench_build/perf-out.
set -u

here=$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)
root=$(dirname -- "$here")
build="$root/.bench_build/perf"
out="$root/.bench_build/perf-out"

# A workload is defined by its code alone: an exported RAMPAGE_CORES or
# RAMPAGE_AUDIT must not change what it runs.
for var in $(compgen -e); do
  case "$var" in RAMPAGE_*) unset "$var" ;; esac
done

if [ ! -d "$root/src" ]; then
  echo "perf/run.sh: simulator sources not found at $root/src" >&2
  exit 1
fi

mkdir -p "$root/.bench_build" || exit 1
jobs=$(nproc)
[ "$jobs" -gt 4 ] && jobs=4
if ! { cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release &&
       cmake --build "$build" -j "$jobs" --target rampage_perf; } \
     > "$root/.bench_build/perf-build.log" 2>&1; then
  tail -n 40 "$root/.bench_build/perf-build.log" >&2
  echo "perf/run.sh: build failed (log: .bench_build/perf-build.log)" >&2
  exit 1
fi
bin="$build/rampage_perf"

read -r load1 _ < /proc/loadavg
if awk -v l="$load1" -v n="$(nproc)" 'BEGIN { exit !(l > n / 2) }'; then
  echo "perf/run.sh: warning: 1-minute load $load1 is above nproc/2;" \
       "timings will be noisy" >&2
fi

commit=unknown
if top=$(git -C "$root" rev-parse --show-toplevel 2>/dev/null) &&
   [ "$top" = "$root" ]; then
  commit=$(git -C "$root" rev-parse HEAD)
  git -C "$root" diff --quiet HEAD 2>/dev/null || commit="$commit+dirty"
fi
common=(--expected "$here/expected_crc.json" --out-dir "$out"
        --commit "$commit")

# One invocation, echoed; fails unless it printed "correct": true.
run() {
  local output
  output=$("$bin" "${common[@]}" "$@")
  local rc=$?
  printf '%s\n' "$output"
  [ $rc -eq 0 ] || return 1
  case "$(printf '%s\n' "$output" | tail -n 1)" in
    *'"correct": true'*) return 0 ;;
  esac
  return 1
}

case "${1:-}" in
  --self-check)
    shift
    exec "$bin" --self-check --out-dir "$out" "$@"
    ;;
  --quick)
    status=0
    for w in $("$bin" --list); do
      run --workload "$w" --seed 0 --refs 1000000 --seconds 0 --trace 0 ||
        status=1
      run --workload "$w" --seed 0 --refs 1000000 --seconds 0 --trace 1 ||
        status=1
    done
    "$bin" --self-check --refs 1000000 --out-dir "$out" || status=1
    exit $status
    ;;
  "")
    status=0
    mkdir -p "$out/reports" || exit 1
    for w in $("$bin" --list); do
      for seed in 0 1; do
        run --workload "$w" --seed "$seed" --trace 0 \
            --report "$out/reports/$w.seed$seed.json" || status=1
      done
      run --workload "$w" --seed 0 --trace 1 \
          --report "$out/reports/$w.seed0.traced.json" || status=1
    done
    exit $status
    ;;
  *)
    exec "$bin" "${common[@]}" "$@"
    ;;
esac
