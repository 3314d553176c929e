#!/usr/bin/env bash
# Byte-identity check between two builds of the paper benches.
#
# Runs every paper bench of both builds at a pinned scale with event
# tracing and interval stats on, each bench in its own temporary
# directory, and compares what the two builds wrote: stdout, every
# <base>.<point>.trace.json and <base>.<point>.intervals.jsonl file,
# and the "stats" dump of every result in the --json report, paired
# by result label (a result under a label only one build reports is a
# difference).  Each differing file, result or stat key is named.  Two passes cover both ways
# the simulator steps a chunk:
#   paranoid  audits after every L2/SRAM miss, so every reference runs
#             as its own access batch; epochs every 4000 references;
#   batched   audits at boundaries only, so traced references run in
#             whole batches; epochs every 3001 references, which
#             divides neither the 4096-reference chunk nor the
#             4000-reference quantum, so batches end mid-chunk.
# A change that claims to leave the model's numbers alone (a refactor,
# a deleted code path) must pass this against its parent build.
#
# Usage: compare_builds.sh <parent-bench-dir> <change-bench-dir>
#                          [--allow STAT]...
#   --allow STAT  a stat key that may differ (e.g. audit.checks when
#                 an audit invariant was removed); its differences are
#                 reported but do not fail the check.
#
# "Every paper bench" is every executable in the change's bench dir
# except rampage_fuzz.  Exit status: 0 when
# everything outside the allowed keys is identical, 1 on any other
# difference (or a bench that fails or is missing from one build),
# 2 on a usage error.
set -u

usage() {
  echo "usage: compare_builds.sh <parent-bench-dir> <change-bench-dir>" \
       "[--allow STAT]..." >&2
  exit 2
}

[ $# -ge 2 ] || usage
parent_dir=$(cd "$1" 2>/dev/null && pwd) || usage
change_dir=$(cd "$2" 2>/dev/null && pwd) || usage
shift 2
allow=()
while [ $# -gt 0 ]; do
  case $1 in
    --allow)
      [ $# -ge 2 ] || usage
      allow+=("$2")
      shift 2
      ;;
    *) usage ;;
  esac
done

# The pinned scale (as scripts/check_goldens.sh) with both timeline
# outputs on; each pass sets the audit level and epoch length.  Every
# other RAMPAGE_* knob is unset.
for var in $(compgen -e); do
  case "$var" in RAMPAGE_*) unset "$var" ;; esac
done
RAMPAGE_JOBS=1
RAMPAGE_REFS=40000
RAMPAGE_QUANTUM=4000
RAMPAGE_TRACE_OUT=t
export RAMPAGE_JOBS RAMPAGE_REFS RAMPAGE_QUANTUM RAMPAGE_TRACE_OUT

work=$(mktemp -d) || exit 1
trap 'rm -rf "$work"' EXIT
trap 'rm -rf "$work"; trap - EXIT; exit 130' INT TERM HUP

is_paper_bench() {
  case $(basename "$1") in
    rampage_fuzz) return 1 ;;
  esac
  [ -f "$1" ] && [ -x "$1" ]
}

# Run one build's bench in its own directory; output stays there.
run_bench() {
  mkdir -p "$3" && cd "$3" && "$1/$2" --json r.json > stdout 2> stderr
}

# Compare one bench's two output directories: the file set, each
# stdout/trace/interval file byte for byte, and the per-result stats.
compare_outputs() {
  python3 - "$@" <<'EOF'
import json
import os
import sys

name, a_dir, b_dir, *allow = sys.argv[1:]
status = 0


def outputs(d):
    return sorted(f for f in os.listdir(d)
                  if f == "stdout" or f.endswith(".trace.json")
                  or f.endswith(".intervals.jsonl"))


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


a_files, b_files = outputs(a_dir), outputs(b_dir)
for f in sorted(set(a_files) ^ set(b_files)):
    side = "parent" if f in a_files else "change"
    print(f"compare_builds: {name}: {f} only in the {side} build")
    status = 1
for f in sorted(set(a_files) & set(b_files)):
    if read(os.path.join(a_dir, f)) != read(os.path.join(b_dir, f)):
        print(f"compare_builds: {name}: {f} differs")
        status = 1

try:
    a_res = json.loads(read(os.path.join(a_dir, "r.json")))["results"]
    b_res = json.loads(read(os.path.join(b_dir, "r.json")))["results"]
except (OSError, ValueError, KeyError) as err:
    print(f"compare_builds: {name}: unreadable JSON report: {err}")
    sys.exit(1)


def by_label(results):
    """Key each result by its label (and the label's occurrence count,
    should a bench record one label twice), so an inserted or reordered
    result leaves every other pair intact."""
    keyed, seen = {}, {}
    for r in results:
        label = r.get("label", "?")
        seen[label] = seen.get(label, 0) + 1
        keyed[(label, seen[label])] = r
    return keyed


def show(key):
    label, n = key
    return label if n == 1 else f"{label} (#{n})"


a_by, b_by = by_label(a_res), by_label(b_res)
for key in sorted(set(a_by) ^ set(b_by)):
    side = "parent" if key in a_by else "change"
    print(f"compare_builds: {name}: result '{show(key)}' only in the "
          f"{side} build")
    status = 1
allowed = {}
for key in sorted(set(a_by) & set(b_by)):
    label = show(key)
    a_stats = a_by[key].get("stats", {})
    b_stats = b_by[key].get("stats", {})
    for key in sorted(set(a_stats) | set(b_stats)):
        av, bv = a_stats.get(key), b_stats.get(key)
        if av == bv:
            continue
        if key in allow:
            allowed[key] = allowed.get(key, 0) + 1
            continue
        print(f"compare_builds: {name}: {label}: stat {key}: "
              f"{av} -> {bv}")
        status = 1
note = ", ".join(f"{k} differs in {n} result(s)"
                 for k, n in sorted(allowed.items()))
if status == 0:
    print(f"compare_builds: {name} ok" + (f" (allowed: {note})"
                                          if note else ""))
elif note:
    print(f"compare_builds: {name}: allowed: {note}")
sys.exit(status)
EOF
}

status=0
names=()
for bin in "$parent_dir"/*; do
  is_paper_bench "$bin" || continue
  name=$(basename "$bin")
  if ! is_paper_bench "$change_dir/$name"; then
    echo "compare_builds: $name is missing from the change build"
    status=1
  fi
done
for bin in "$change_dir"/*; do
  is_paper_bench "$bin" || continue
  name=$(basename "$bin")
  if ! is_paper_bench "$parent_dir/$name"; then
    echo "compare_builds: $name is missing from the parent build"
    status=1
    continue
  fi
  names+=("$name")
done

if [ ${#names[@]} -eq 0 ]; then
  echo "compare_builds: no paper benches in both builds" >&2
  exit 1
fi

for pass in paranoid batched; do
  case $pass in
    paranoid) RAMPAGE_AUDIT=paranoid RAMPAGE_STATS_INTERVAL=4000 ;;
    batched) RAMPAGE_AUDIT=boundaries RAMPAGE_STATS_INTERVAL=3001 ;;
  esac
  export RAMPAGE_AUDIT RAMPAGE_STATS_INTERVAL
  for name in "${names[@]}"; do
    out_parent=$work/$pass/parent/$name
    out_change=$work/$pass/change/$name
    # The two builds run side by side; each writes only its own dir.
    (run_bench "$parent_dir" "$name" "$out_parent") &
    parent_pid=$!
    (run_bench "$change_dir" "$name" "$out_change")
    change_rc=$?
    wait "$parent_pid"
    parent_rc=$?
    if [ "$parent_rc" -ne 0 ] || [ "$change_rc" -ne 0 ]; then
      echo "compare_builds: $pass/$name exited $parent_rc (parent) /" \
           "$change_rc (change); stderr tails:"
      tail -n 5 "$out_parent/stderr" "$out_change/stderr"
      status=1
      continue
    fi
    compare_outputs "$pass/$name" "$out_parent" "$out_change" \
                    "${allow[@]}" || status=1
  done
done

[ $status -eq 0 ] && echo "compare_builds: all ${#names[@]} benches" \
                         "identical in both passes outside the" \
                         "allowed stats"
exit $status
