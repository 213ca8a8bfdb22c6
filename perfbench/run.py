#!/usr/bin/env python3
"""rqsim benchmark: build, run one workload (or all), check, report.

    python3 perfbench/run.py --workload grover20-deep --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py                      # every workload, tracing off
    python3 perfbench/run.py --trace 1            # every workload, traced run

Builds the library from this checkout's sources together with the
benchmark binary (perfbench/CMakeLists.txt) into .bench_build/, runs the
benchmark's own arithmetic tests, then runs the workload. Every metric is
printed as `name = value unit`; the full results document, with the host
stamp and sample counts, is written to .bench_results/. With --workload,
the last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end_to_end metrics of BENCHMARK.json (--trace 0) or its
per_layer metrics (--trace 1). The exit code is nonzero when the build
fails, a metric is missing, or any output check failed.
"""
import argparse
import fcntl
import hashlib
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(ROOT, ".bench_results")
WORKLOADS = ["grover20-deep", "ghz24-wide", "service-mix"]
RUN_TIMEOUT_S = 160


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; serialized by a lock."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "Makefile")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                      "perfbench_stats_test", "-j", str(os.cpu_count() or 1)])
        steps.append([os.path.join(BUILD, "perfbench_stats_test"), "--gtest_brief=1"])
        for step in steps:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                log("perfbench: step failed:", " ".join(step))
                return False
    return True


def source_stamp():
    """Git commit when available, and a digest of the library's sources
    (a benchmark checkout need not be a git repository)."""
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    digest = hashlib.sha256()
    for top in ["src", "CMakeLists.txt"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in sorted(files):
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def run_workload(spec, workload, seed, seconds, trace):
    os.makedirs(RESULTS, exist_ok=True)
    out = os.path.join(RESULTS, f"{workload}-seed{seed}-trace{trace}.json")
    if os.path.exists(out):
        os.remove(out)
    command = [os.path.join(BUILD, "perfbench"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace), "--out", out]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s")
        return None
    if done.returncode != 0 or not os.path.exists(out):
        log(f"perfbench: {workload} exited with {done.returncode}")
        return None
    with open(out) as handle:
        result = json.load(handle)
    result["host"].update(source_stamp())
    with open(out, "w") as handle:
        json.dump(result, handle, indent=1)

    required = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    print(f"== {workload} seed={seed} trace={trace} seconds={seconds}")
    for name, metric in metrics.items():
        samples = result["samples"].get(name)
        note = f"  (n={samples})" if samples is not None else ""
        print(f"{workload}: {name} = {metric['value']} {metric['unit']}{note}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{workload}: failed_frac = {failed / max(attempted, 1)} ratio "
          f"(failed {failed} of {attempted} attempted operations)")
    host = result["host"]
    print(f"{workload}: host compiler={host.get('compiler')!r} "
          f"build_type={host.get('build_type')} flags={host.get('rqsim_flags')!r} "
          f"commit={host['git_commit']} sources={host['source_sha256'][:16]}")
    print(f"{workload}: results written to {os.path.relpath(out, ROOT)}")

    selected = {}
    for entry in required:
        metric = metrics.get(entry["name"])
        value = None if metric is None else metric["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            log(f"perfbench: {workload}: metric {entry['name']} not measured")
            return None
        if metric["unit"] != entry["unit"]:
            log(f"perfbench: {workload}: {entry['name']} unit {metric['unit']} "
                f"!= {entry['unit']}")
            return None
        selected[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return {"correct": bool(result["correct"]) and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": selected}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    started = time.monotonic()
    if not build():
        return 1
    log(f"perfbench: build ready in {time.monotonic() - started:.1f} s")

    if args.workload:
        line = run_workload(spec, args.workload, args.seed, seconds, args.trace)
        if line is None:
            return 1
        print(json.dumps(line), flush=True)
        return 0 if line["correct"] else 1

    ok = True
    for workload in WORKLOADS:
        line = run_workload(spec, workload, args.seed, seconds, args.trace)
        ok = ok and line is not None and line["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
