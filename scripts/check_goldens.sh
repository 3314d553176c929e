#!/usr/bin/env bash
# Golden-stdout harness: the refactor-safety net for the paper tables.
#
# Runs the pinned benches at a tiny fixed scale and diffs their stdout
# byte-for-byte against the committed goldens in tests/golden/.  Any
# drift — a reordered stat, a reformatted cell, a changed count —
# fails loudly with the diff, so "the benches still print exactly what
# they printed" is machine-checked on every CI run instead of eyeballed.
#
# Usage: check_goldens.sh [bench-dir]        (default: build/bench)
# Regenerate after an *intentional* output change:
#   check_goldens.sh --update [bench-dir]
set -u

update=0
if [ "${1:-}" = "--update" ]; then
  update=1
  shift
fi
bench_dir="${1:-build/bench}"
script_dir=$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)
golden_dir="$script_dir/../tests/golden"

# The pinned scale: small enough to run in seconds, large enough to
# exercise faults, evictions and context switches in every bench.
# Every other RAMPAGE_* knob is unset, so the caller's environment
# cannot change what runs.
for var in $(compgen -e); do
  case "$var" in RAMPAGE_*) unset "$var" ;; esac
done
RAMPAGE_REFS=40000
RAMPAGE_QUANTUM=4000
RAMPAGE_JOBS=2
export RAMPAGE_REFS RAMPAGE_QUANTUM RAMPAGE_JOBS

tmp=$(mktemp) || exit 1
# Clean the scratch file on normal exit AND on interruption — a ^C
# mid-diff must not leave temp litter, and must still exit nonzero.
trap 'rm -f "$tmp"' EXIT
trap 'rm -f "$tmp"; trap - EXIT; exit 130' INT TERM HUP

benches="table3_runtimes table4_ctx_switch fig4_overheads fig_cores_sweep"
status=0
missing=0
for name in $benches; do
  bin="$bench_dir/$name"
  golden="$golden_dir/$name.stdout"
  if [ ! -x "$bin" ]; then
    echo "check_goldens: missing bench binary '$bin'" >&2
    status=1
    continue
  fi
  if ! "$bin" > "$tmp" 2>/dev/null; then
    echo "check_goldens: $name exited with nonzero status" >&2
    status=1
    continue
  fi
  if [ $update -eq 1 ]; then
    mkdir -p "$golden_dir"
    cp "$tmp" "$golden"
    echo "check_goldens: updated $golden"
    continue
  fi
  if [ ! -f "$golden" ]; then
    echo "check_goldens: MISSING golden '$golden' (run with --update)" >&2
    missing=$((missing + 1))
    status=1
    continue
  fi
  if cmp -s "$golden" "$tmp"; then
    echo "check_goldens: $name ok"
  else
    echo "check_goldens: $name stdout DIFFERS from $golden:" >&2
    diff -u "$golden" "$tmp" >&2
    status=1
  fi
done
if [ "$missing" -gt 0 ]; then
  echo "check_goldens: $missing golden file(s) missing — failing" >&2
fi

# Second pass with the timeline-observability features ON: event
# tracing and interval stats write their files elsewhere, so stdout
# must still match the very same goldens byte-for-byte.  This is the
# machine check for "observability is side-effect-free".
if [ $update -eq 0 ] && [ $status -eq 0 ]; then
  obs_tmp=$(mktemp -d) || exit 1
  trap 'rm -f "$tmp"; rm -rf "$obs_tmp"' EXIT
  RAMPAGE_TRACE_OUT="$obs_tmp/trace"
  RAMPAGE_STATS_INTERVAL=4000
  export RAMPAGE_TRACE_OUT RAMPAGE_STATS_INTERVAL
  for name in $benches; do
    bin="$bench_dir/$name"
    golden="$golden_dir/$name.stdout"
    [ -x "$bin" ] && [ -f "$golden" ] || continue
    if ! "$bin" > "$tmp" 2>/dev/null; then
      echo "check_goldens: $name (tracing on) exited nonzero" >&2
      status=1
      continue
    fi
    if cmp -s "$golden" "$tmp"; then
      echo "check_goldens: $name ok (tracing on)"
    else
      echo "check_goldens: $name stdout DIFFERS with tracing on —" \
           "observability is not side-effect-free:" >&2
      diff -u "$golden" "$tmp" >&2
      status=1
    fi
  done
  unset RAMPAGE_TRACE_OUT RAMPAGE_STATS_INTERVAL
fi
exit $status
