#!/usr/bin/env python3
"""Compare two sets of benchmark runs: a parent commit and a change.

Each directory holds the report files (``--report <file>``) of untraced
benchmark invocations, one file per invocation.  Runs pair up by
workload and seed, so run the two sides with the same seeds and
alternate which side goes first in each pair (perf/README.md shows the
loop).  For each workload and each end-to-end metric of BENCHMARK.json
the script prints both sides' medians and quartiles and a verdict:

  improved    at least 10 pairs, the change wins at least 9 in 10 of
              them, and the medians differ by more than the parent's
              own spread (its interquartile range);
  worse       the change's median is worse than the parent's by more
              than the metric's bound and by more than the parent's
              spread;
  unresolved  the spread of either side is wider than the bound and
              not every change run beats every parent run, or the gap
              exceeds the bound but not the spread, or the change looks
              better on fewer than 10 pairs;
  unchanged   otherwise.

A change meant only to speed the simulator up must not change what it
simulates, so a pair whose stats_crc differs is an error, as is a run
that reported itself incorrect.

Usage: compare.py <parent_dir> <change_dir>
Exit status: 0 when nothing is worse, 1 on a worse metric, a stats_crc
mismatch or an incorrect run, 2 on unreadable input.
"""

import json
import os
import statistics
import sys

MIN_PAIRS = 10
WIN_SHARE = 0.9

BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "BENCHMARK.json")


def fail_input(message):
    print(f"compare: {message}", file=sys.stderr)
    sys.exit(2)


def load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as err:
        fail_input(f"cannot read {path}: {err}")
    except json.JSONDecodeError as err:
        fail_input(f"{path} is not valid JSON: {err}")


def load_runs(directory):
    """Untraced reports in a directory, keyed by (workload, seed, n)."""
    if not os.path.isdir(directory):
        fail_input(f"{directory} is not a directory")
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        path = os.path.join(directory, name)
        doc = load_json(path)
        if not isinstance(doc, dict) or "workload" not in doc \
                or "metrics" not in doc:
            fail_input(f"{path} is not a benchmark report")
        if doc.get("trace"):
            continue
        key = (doc["workload"], doc.get("seed"))
        n = sum(1 for k in runs if k[:2] == key)
        runs[key + (n,)] = (path, doc)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def wins(parent, change, better):
    """Pairs in which the change reads better than the parent."""
    sign = 1 if better == "higher" else -1
    return sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)


def verdict(parent, change, better, bound):
    """Verdict on paired samples of one metric (see module docstring)."""
    sign = 1 if better == "higher" else -1
    pairs = len(parent)
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    if p_med <= 0 or c_med <= 0:
        return "unresolved"  # only a failed run reports a zero
    p_q1, p_q3 = quartiles(parent)
    c_q1, c_q3 = quartiles(change)
    p_iqr = p_q3 - p_q1
    gain = sign * (c_med - p_med) / p_med  # > 0: the change is better
    beyond_spread = abs(c_med - p_med) > p_iqr
    spread = max(p_iqr / p_med, (c_q3 - c_q1) / c_med)
    all_better = min(sign * c for c in change) > max(sign * p
                                                     for p in parent)
    if gain > 0 and beyond_spread and \
            wins(parent, change, better) >= WIN_SHARE * pairs:
        return "improved" if pairs >= MIN_PAIRS else "unresolved"
    if gain < -bound:
        return "worse" if beyond_spread else "unresolved"
    if spread > bound and not all_better:
        return "unresolved"
    return "unchanged"


def main(argv):
    if len(argv) != 3:
        print("usage: compare.py <parent_dir> <change_dir>",
              file=sys.stderr)
        return 2
    metrics = load_json(BENCHMARK)["end_to_end"]
    parent_runs = load_runs(argv[1])
    change_runs = load_runs(argv[2])
    keys = sorted(set(parent_runs) & set(change_runs))
    if not keys:
        fail_input("no runs pair up (same workload and seed on both sides)")

    status = 0
    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        for key in keys:
            path, doc = runs[key]
            if not doc.get("correct"):
                print(f"compare: {side} run {path} reported incorrect "
                      f"output", file=sys.stderr)
                status = 1
    for key in keys:
        (p_path, p), (c_path, c) = parent_runs[key], change_runs[key]
        if p.get("refs") == c.get("refs") and \
                p.get("stats_crc") != c.get("stats_crc"):
            print(f"compare: stats_crc mismatch for {key[0]} seed {key[1]}:"
                  f" {p.get('stats_crc')} ({p_path}) vs "
                  f"{c.get('stats_crc')} ({c_path})", file=sys.stderr)
            status = 1

    print(f"{'workload':24} {'metric':12} {'parent median [q1, q3]':>36} "
          f"{'change median [q1, q3]':>36} {'change':>8} {'wins':>6}  "
          f"verdict")
    for workload in sorted({k[0] for k in keys}):
        wkeys = [k for k in keys if k[0] == workload]
        for metric in metrics:
            name = metric["name"]
            try:
                parent = [parent_runs[k][1]["metrics"][name]["value"]
                          for k in wkeys]
                change = [change_runs[k][1]["metrics"][name]["value"]
                          for k in wkeys]
            except (KeyError, TypeError):
                fail_input(f"a {workload} report lacks metric {name}")
            result = verdict(parent, change, metric["better"],
                             metric["bound"])
            if result == "worse":
                status = 1
            won = wins(parent, change, metric["better"])
            cells = []
            for values in (parent, change):
                q1, q3 = quartiles(values)
                cells.append(f"{statistics.median(values):.5g} "
                             f"[{q1:.5g}, {q3:.5g}]")
            p_med = statistics.median(parent)
            delta = statistics.median(change) / p_med - 1 if p_med else 0
            print(f"{workload:24} {name:12} {cells[0]:>36} {cells[1]:>36} "
                  f"{delta:+8.2%} {won:>3}/{len(wkeys):<2}  {result}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
