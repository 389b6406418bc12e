#!/usr/bin/env python3
"""Paired comparison of two builds on the Aurora III benchmark.

    python3 perfbench/compare.py --parent ../aurora-parent --change . \\
        [--pairs 10] [--workloads fig4_paired,serve_fleet]

PARENT and CHANGE are roots of two source checkouts with identical
benchmark code (BENCHMARK.json and perfbench/). For each workload it
runs at least ten parent/change pairs, alternating which side goes
first, with the same fresh seed on both sides of a pair, each run as
long as BENCHMARK.json's run_seconds. Per workload
and end-to-end metric it prints each side's median and quartiles, the
share of pairs the change won (ties count for neither side), and a
verdict:

  better      the change won at least 9/10 of the pairs and the medians
              differ by more than the parent's own quartile spread
  worse       the change's median is worse than the parent's by more
              than the metric's bound
  unresolved  the parent's own spread exceeds the bound, unless every
              change run beat every parent run
  same        none of the above: no regression within the bound

Any run that fails its output checks is reported and makes the exit
status non-zero.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

MIN_PAIRS = 10
# Pair i runs seed SEED_BASE + i on both sides.
SEED_BASE = 1000


def bench_identity(root):
    """Digest of the benchmark's own files in a checkout."""
    h = hashlib.sha256()
    with open(os.path.join(root, "BENCHMARK.json"), "rb") as f:
        h.update(f.read())
    bench = os.path.join(root, "perfbench")
    for dirpath, dirnames, filenames in os.walk(bench):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, bench).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def run_once(root, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if not lines:
        return None, f"exit {p.returncode}: {p.stderr.strip()[-300:]}"
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None, f"exit {p.returncode}: no result line"
    if p.returncode != 0 or not result.get("correct"):
        return result, f"exit {p.returncode}, correct={result.get('correct')}"
    return result, None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(metric, parent, change):
    """Classify one metric's paired runs (see the module docstring)."""
    higher = metric["better"] == "higher"
    sign = 1.0 if higher else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    spread = (p3 - p1) / abs(pm) if pm else 0.0
    all_better = (min(change) > max(parent)) if higher \
        else (max(change) < min(parent))
    worse_by = sign * (pm - cm) / abs(pm) if pm else 0.0
    if spread > metric["bound"]:
        label = "better" if all_better else "unresolved"
    elif wins >= 0.9 * len(parent) and abs(cm - pm) > (p3 - p1):
        label = "better"
    elif worse_by > metric["bound"]:
        label = "worse"
    else:
        label = "same"
    return wins, spread, label


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--pairs", type=int, default=MIN_PAIRS)
    ap.add_argument("--workloads", help="comma-separated subset")
    ap.add_argument("--json", help="also write every run's values here")
    opts = ap.parse_args()
    if opts.pairs < MIN_PAIRS:
        ap.error(f"--pairs must be at least {MIN_PAIRS}")
    parent_root = os.path.abspath(opts.parent)
    change_root = os.path.abspath(opts.change)
    if bench_identity(parent_root) != bench_identity(change_root):
        ap.error("the two checkouts carry different benchmark code; "
                 "compare them with identical BENCHMARK.json and perfbench/")
    with open(os.path.join(parent_root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    if opts.workloads:
        wanted = opts.workloads.split(",")
        unknown = set(wanted) - set(workloads)
        if unknown:
            ap.error(f"unknown workloads: {sorted(unknown)}")
        workloads = wanted

    sides = {"parent": parent_root, "change": change_root}
    runs = {w: {"parent": [], "change": []} for w in workloads}
    failures = []
    for w in workloads:
        for i in range(opts.pairs):
            seed = SEED_BASE + i
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            pair = {}
            for side in order:
                result, err = run_once(sides[side], w, seed, seconds)
                if err:
                    failures.append(f"{w} seed {seed} {side}: {err}")
                pair[side] = result
                print(f"{w} pair {i + 1}/{opts.pairs} seed {seed} {side}: "
                      f"{'FAILED ' + err if err else 'ok'}",
                      file=sys.stderr, flush=True)
            if all(pair.get(s) for s in sides):
                for side in sides:
                    runs[w][side].append(pair[side]["metrics"])

    header = (f"{'workload':16s} {'metric':22s} {'parent median [q1, q3]':>32s} "
              f"{'change median [q1, q3]':>32s} {'delta':>8s} {'won':>6s} "
              f"{'spread':>7s} {'bound':>6s} verdict")
    print(header)
    report = []
    for w in workloads:
        n = len(runs[w]["parent"])
        for m in spec["end_to_end"]:
            if n == 0:
                print(f"{w:16s} {m['name']:22s} no complete pairs")
                continue
            p = [r[m["name"]]["value"] for r in runs[w]["parent"]]
            c = [r[m["name"]]["value"] for r in runs[w]["change"]]
            wins, spread, label = verdict(m, p, c)
            p1, pm, p3 = quartiles(p)
            c1, cm, c3 = quartiles(c)
            delta = (cm - pm) / abs(pm) * 100 if pm else 0.0
            print(f"{w:16s} {m['name']:22s} "
                  f"{pm:12.6g} [{p1:.5g}, {p3:.5g}]".ljust(72) +
                  f"{cm:12.6g} [{c1:.5g}, {c3:.5g}]".rjust(33) +
                  f" {delta:+7.2f}% {wins:2d}/{n:<3d} {spread:7.3f} "
                  f"{m['bound']:6.3f} {label}")
            report.append({"workload": w, "metric": m["name"],
                           "unit": m["unit"], "parent": p, "change": c,
                           "won": wins, "pairs": n, "spread": spread,
                           "verdict": label})
    for f in failures:
        print(f"FAILED: {f}")
    if opts.json:
        with open(opts.json, "w") as f:
            json.dump({"seconds": seconds, "rows": report,
                       "failures": failures}, f, indent=1)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
