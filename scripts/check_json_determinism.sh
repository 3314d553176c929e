#!/usr/bin/env bash
# A bench's --json report holds simulated numbers only, so it must be
# byte-identical across runs and worker-pool sizes.  Runs each checked
# bench at the golden harness's pinned tiny scale with --jobs 1 and
# --jobs 4 and byte-compares the two reports: table3_runtimes (two
# independent sweeps) and ablation_variable_pagesize (a probe sweep
# whose results pick the points of a second sweep).
#
# Usage: check_json_determinism.sh [bench-dir]   (default: build/bench)
set -u

bench_dir="${1:-build/bench}"
benches="table3_runtimes ablation_variable_pagesize"
for name in $benches; do
  if [ ! -x "$bench_dir/$name" ]; then
    echo "check_json_determinism: missing bench binary" \
         "'$bench_dir/$name'" >&2
    exit 1
  fi
done

# Every RAMPAGE_* knob but the pinned scale is unset.
for var in $(compgen -e); do
  case "$var" in RAMPAGE_*) unset "$var" ;; esac
done
RAMPAGE_REFS=40000
RAMPAGE_QUANTUM=4000
export RAMPAGE_REFS RAMPAGE_QUANTUM

tmp=$(mktemp -d) || exit 1
trap 'rm -rf "$tmp"' EXIT
trap 'rm -rf "$tmp"; trap - EXIT; exit 130' INT TERM HUP

status=0
for name in $benches; do
  for jobs in 1 4; do
    if ! "$bench_dir/$name" --json "$tmp/$name.jobs$jobs.json" \
         --jobs "$jobs" >/dev/null 2>&1; then
      echo "check_json_determinism: $name --jobs $jobs exited" \
           "nonzero" >&2
      exit 1
    fi
  done
  if cmp -s "$tmp/$name.jobs1.json" "$tmp/$name.jobs4.json"; then
    echo "check_json_determinism: $name --json ok"
  else
    echo "check_json_determinism: $name --json differs between" \
         "--jobs 1 and --jobs 4:" >&2
    diff "$tmp/$name.jobs1.json" "$tmp/$name.jobs4.json" | head -20 >&2
    status=1
  fi
done
exit $status
