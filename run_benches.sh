#!/bin/sh
# Regenerate every table/figure at the default scale, one log per bench.
# Each bench's stdout+stderr is captured; a failing bench is reported
# and makes the whole script exit nonzero, but the rest still run.
# Paper benches additionally write a machine-readable JSON report
# (results + full stats dumps) to results/<name>.json via --json.
# Every number in it is simulated, so it is byte-identical across
# runs and job counts; simulator throughput is measured by perf/.
#
# Every bench that simulates runs each simulation as a point on the
# SweepRunner worker pool; --jobs defaults to the machine's core count
# (override with RAMPAGE_JOBS=n).  Results are identical for any job
# count.
#
# Fault-tolerance knobs (all optional, all preserving byte-identical
# output when a campaign completes); the benches read them directly:
#   RAMPAGE_DEADLINE=<seconds>  per-point deadline (--point-deadline)
#   RAMPAGE_ISOLATE=1           fork each point so a crash in one
#                               point cannot take down the campaign
#                               (--isolate)
mkdir -p results
jobs="${RAMPAGE_JOBS:-$(nproc 2>/dev/null || echo 1)}"
status=0
for b in build/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  name=$(basename "$b")
  echo "=== $name ==="
  case "$name" in
    # The fuzz harness is not a paper bench: it has its own CLI and
    # CI steps (quick pass, corpus replay, nightly soak).
    rampage_fuzz) continue ;;
    *) set -- --json "results/$name.json" --jobs "$jobs" ;;
  esac
  if "$b" "$@" >"results/$name.txt" 2>&1; then
    cat "results/$name.txt"
  else
    rc=$?
    cat "results/$name.txt"
    echo "!!! $name failed with exit status $rc" >&2
    status=1
  fi
done

exit $status
