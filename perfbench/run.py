#!/usr/bin/env python3
"""Aurora III benchmark: build, run one workload, check, report.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload fig4_paired --seed 7 --seconds 20 --trace 0

It builds perfbench/ (which pulls in the repository's libraries) into
.bench_build/cmake, measures set-up time over several fresh launches,
runs the workload once, checks every output, and prints as its last
stdout line one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics of BENCHMARK.json with --trace 0,
the per-layer metrics with --trace 1. A line before it records the
host context. Exit status is 0 only when the run completed and every
output check passed.

    python3 perfbench/run.py --record-digests 0-31

recomputes and stores the output digests of the core workloads for
those seeds in perfbench/expected_digests.json (each by two
independent paths that must agree).
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
BINARY = os.path.join(BUILD, "aurora_perfbench")
SHARDD = os.path.join(BUILD, "aurora", "tools", "aurora_shardd")
DIGESTS = os.path.join(HERE, "expected_digests.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS = ("fig4_paired", "fig9_fp_seeded", "serve_fleet")
# Workloads whose output set is fixed by the seed, so a digest can be
# recorded. serve_fleet's set depends on --seconds (its grid count).
DIGEST_WORKLOADS = ("fig4_paired", "fig9_fp_seeded")
SETUP_LAUNCHES = 40
RUN_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 850
MAX_NOTES = 8


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def host_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Configure once, then (re)build the benchmark and the shard worker."""
    if not any(os.path.exists(os.path.join(BUILD, f))
               for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", BUILD, "--target", "aurora_perfbench",
                    "--parallel", str(host_cpus())],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_identity():
    """Commit when the checkout is a git repository; always a content hash."""
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], check=True,
                capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    h = hashlib.sha256()
    for top in ("src", "tools"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return commit, h.hexdigest()[:16]


def launch(args, tmp_rel, timeout):
    """Run the benchmark binary once in a fresh scratch dir; parse its JSON."""
    tmp = os.path.join(ROOT, tmp_rel)
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(os.path.dirname(tmp), exist_ok=True)
    cmd = [BINARY, "--tmp", tmp_rel, "--shardd", SHARDD,
           "--spawn-ns", str(time.monotonic_ns())] + args
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"benchmark run exceeded {timeout} s")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = [ln for ln in out.splitlines() if ln.strip()]
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write(err[-4000:])
        raise RuntimeError(f"benchmark binary exited {proc.returncode}")
    # The daemon's own warnings (one per failed fleet) go to stderr;
    # keep the tail for diagnosis without flooding the log.
    if err.strip():
        tail = err.strip().splitlines()
        log(f"binary stderr: {len(tail)} lines, last: {tail[-1]}")
    return json.loads(lines[-1])


def load_digests():
    try:
        with open(DIGESTS) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def declared_metrics(trace):
    with open(SPEC) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def run(opts):
    build()
    nproc = host_cpus()
    commit, source = source_identity()
    expected = load_digests().get(opts.workload, {}).get(str(opts.seed))
    base = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--trace", str(opts.trace)]
    if expected:
        base += ["--expect-digest", expected]
    tmp_rel = os.path.join(".bench_build", "run", f"{opts.workload}-{os.getpid()}")

    setup = []

    def time_setup(launches):
        # Set-up is process start to first timed call; take the median
        # of several fresh launches so one slow exec does not decide it.
        for _ in range(launches):
            r = launch(base + ["--setup-only"], tmp_rel, 60)
            if not r["correct"]:
                raise RuntimeError(f"set-up failed: {r['notes'][:MAX_NOTES]}")
            setup.append(r["metrics"]["setup_s"]["value"])

    # Half the launches before the measured run and half after, so the
    # median spans two moments of the host's load rather than one.
    if not opts.trace:
        time_setup(SETUP_LAUNCHES // 2)

    trace_out = os.path.join(ROOT, ".bench_build", "traces",
                             f"{opts.workload}-seed{opts.seed}.trace.json")
    if opts.trace:
        os.makedirs(os.path.dirname(trace_out), exist_ok=True)
        base += ["--trace-out", trace_out]
    result = launch(base, tmp_rel, RUN_TIMEOUT_S)
    metrics = result["metrics"]
    if not opts.trace:
        time_setup(SETUP_LAUNCHES - SETUP_LAUNCHES // 2)
        setup.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setup)

    ctx = dict(result["context"])
    ctx.update({"cpu_model": cpu_model(), "host_nproc": nproc,
                "commit": commit, "source_sha256": source,
                "trace": opts.trace, "seconds": opts.seconds,
                "digest": result["digest"],
                "digest_checked_against": "recorded" if expected
                else "independent recomputation",
                "setup_launches": len(setup)})
    print("context: " + json.dumps(ctx, sort_keys=True))
    if result["failure_codes"]:
        print("failed grids by code: " +
              json.dumps(result["failure_codes"], sort_keys=True))
    notes = result["notes"]
    for note in notes[:MAX_NOTES]:
        log(note)
    if len(notes) > MAX_NOTES:
        log(f"... {len(notes) - MAX_NOTES} more notes")
    if opts.trace:
        print(f"chrome trace: {os.path.relpath(trace_out, ROOT)}")

    out = {}
    for m in declared_metrics(opts.trace):
        got = metrics.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            raise RuntimeError(f"metric {m['name']} missing or not in {m['unit']}")
        out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": out}))
    return 0 if result["correct"] else 1


def record_digests(seed_range):
    """Recompute and store core-workload digests for a range of seeds."""
    lo, _, hi = seed_range.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    build()
    table = load_digests()
    for workload in DIGEST_WORKLOADS:
        for seed in seeds:
            # No expected digest is passed, so the binary checks its
            # SweepRunner pass against direct core::simulate calls.
            r = launch(["--workload", workload, "--seed", str(seed),
                        "--seconds", "0.001", "--trace", "0"],
                       os.path.join(".bench_build", "run", "record"),
                       RUN_TIMEOUT_S)
            if not r["correct"]:
                raise RuntimeError(f"{workload} seed {seed}: {r['notes']}")
            table.setdefault(workload, {})[str(seed)] = r["digest"]
            log(f"{workload} seed {seed}: {r['digest']}")
    for workload in table:
        table[workload] = dict(sorted(table[workload].items(),
                                      key=lambda kv: int(kv[0])))
    with open(DIGESTS, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-digests", metavar="LO-HI")
    opts = p.parse_args()
    try:
        if opts.record_digests:
            return record_digests(opts.record_digests)
        if not opts.workload:
            p.error("--workload is required")
        return run(opts)
    except (RuntimeError, OSError, subprocess.SubprocessError,
            json.JSONDecodeError, KeyError) as e:
        log(f"error: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
