#!/usr/bin/env python3
"""Repository benchmark: build, self-test and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload serve_warm --seed 1 --seconds 30 --trace 0

Builds perfbench/ (and the library sources it compiles) into .bench_build,
runs the harness self-tests, then runs the workload in a fresh process. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. `--workload all` runs every workload, each
in its own process, and prints one such line per workload.

Exits 0 only if the build, the self-tests and every output check pass.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["serve_warm", "serve_ingest", "train"]
BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root):
    src = os.path.join(root, "perfbench")
    out = os.path.join(root, BUILD_DIR)
    if not os.path.isfile(os.path.join(root, "src", "serving",
                                       "online_server.h")):
        log("perfbench: library sources (src/) not found; run from the "
            "repository root")
        return None
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        rc = subprocess.call(
            ["cmake", "-S", src, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if rc != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    rc = subprocess.call(["cmake", "--build", out, "-j", jobs],
                         stdout=sys.stderr, stderr=sys.stderr)
    return out if rc == 0 else None


def expected_metrics(root, trace):
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(root, out, args, workload):
    workdir = os.path.join(out, "work-%d-%s" % (os.getpid(), workload))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [os.path.join(out, "perfbench"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("perfbench: %s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return None, 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        log("perfbench: %s printed no result (exit %d)" % (workload,
                                                           proc.returncode))
        return None, proc.returncode or 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("perfbench: malformed result keys %s" % sorted(result))
        return None, 1
    want = expected_metrics(root, args.trace)
    if want is not None and set(result["metrics"]) != want:
        log("perfbench: metrics differ from BENCHMARK.json: %s" %
            sorted(set(result["metrics"]) ^ want))
        result["correct"] = False
    rc = proc.returncode
    if not result["correct"] and rc == 0:
        rc = 1
    return result, rc


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = os.getcwd()
    out = build(root)
    if out is None:
        log("perfbench: build failed")
        return 2
    if subprocess.call([os.path.join(out, "perfbench_selftest")],
                       stdout=sys.stderr) != 0:
        log("perfbench: harness self-tests failed")
        return 1

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results, worst = [], 0
    for w in workloads:
        result, rc = run_workload(root, out, args, w)
        worst = worst or rc
        if result is None:
            return rc or 1
        results.append(result)
    for result in results:
        print(json.dumps(result))
    return worst


if __name__ == "__main__":
    sys.exit(main())
