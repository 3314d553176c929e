#!/usr/bin/env bash
# A bench's --json report holds simulated numbers only, so it must be
# byte-identical across runs and worker-pool sizes.  Runs
# table3_runtimes at the golden harness's pinned tiny scale with
# --jobs 1 and --jobs 4 and byte-compares the two reports.
#
# Usage: check_json_determinism.sh [bench-dir]   (default: build/bench)
set -u

bench_dir="${1:-build/bench}"
bin="$bench_dir/table3_runtimes"
if [ ! -x "$bin" ]; then
  echo "check_json_determinism: missing bench binary '$bin'" >&2
  exit 1
fi

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

for jobs in 1 4; do
  if ! "$bin" --json "$tmp/jobs$jobs.json" --jobs "$jobs" \
       >/dev/null 2>&1; then
    echo "check_json_determinism: table3_runtimes --jobs $jobs" \
         "exited nonzero" >&2
    exit 1
  fi
done
if cmp -s "$tmp/jobs1.json" "$tmp/jobs4.json"; then
  echo "check_json_determinism: table3_runtimes --json ok"
  exit 0
fi
echo "check_json_determinism: table3_runtimes --json differs between" \
     "--jobs 1 and --jobs 4:" >&2
diff "$tmp/jobs1.json" "$tmp/jobs4.json" | head -20 >&2
exit 1
