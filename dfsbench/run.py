#!/usr/bin/env python3
"""Builds and runs the DFS benchmark from the root of a source checkout.

    python3 dfsbench/run.py --workload <hot_read|shared_write|stream> \\
        --seed <n> --seconds <s> --trace <0|1>
    python3 dfsbench/run.py --self-test

The first call configures and builds dfsbench/ (which pulls in the
repository's src/ libraries) under .bench_build/dfsbench; later calls only
rebuild what changed. The benchmark's report lines come first on stdout and
its last line is one JSON object with the keys correct, attempted, failed and
metrics. With --trace 1 the spans of the traced phase are written to
.bench_build/dfsbench/trace/<workload>.csv and the about-zero predictions of
dfsbench/plan.json are checked against the per-layer metrics.

--self-test builds and runs the content checker's own test.
"""

import argparse
import fnmatch
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "dfsbench")
WORKLOADS = ("hot_read", "shared_write", "stream")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("dfsbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log, timeout):
    """Runs cmd with its output appended to log; returns the exit code."""
    with open(log, "a") as out:
        try:
            return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT, cwd=ROOT,
                                  timeout=timeout).returncode
        except subprocess.TimeoutExpired:
            return -1


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no DFS sources next to the benchmark (expected %s)" %
             os.path.join(ROOT, "src"))
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            if ("CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE) not in f.read():
                shutil.rmtree(BUILD)  # configured for another checkout
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(cache):
        if run_logged(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                      log, BUILD_TIMEOUT_S) != 0:
            fail("configure failed; see " + log)
    if run_logged(["cmake", "--build", BUILD, "-j", jobs, "--target", target],
                  log, BUILD_TIMEOUT_S) != 0:
        with open(log) as f:
            sys.stderr.write("".join(f.readlines()[-40:]))
        fail("build failed; see " + log)
    return os.path.join(BUILD, target)


def check_predictions(workload, metrics):
    """Prints whether each about-zero prediction of plan.json holds."""
    with open(os.path.join(HERE, "plan.json")) as f:
        plan = json.load(f)
    for p in plan["predictions"]:
        if p["workload"] != workload:
            continue
        names = sorted(n for n in metrics
                       if any(fnmatch.fnmatch(n, pat) for pat in p["metrics"]))
        for name in names:
            value = metrics[name]["value"]
            ok = value < p["below"]
            print("# prediction %s: %s = %.6g, expected below %g (%s)" %
                  ("holds" if ok else "FAILS", name, value, p["below"], p["why"]))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        binary = build("checker_test")
        sys.exit(subprocess.run([binary], cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode)
    if args.workload is None:
        ap.error("--workload is required")

    binary = build("dfsbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(BUILD, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(trace_dir, args.workload + ".csv")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out after %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("benchmark exited with code %d" % proc.returncode)
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    if args.trace:
        check_predictions(args.workload, result["metrics"])
    print(lines[-1])


if __name__ == "__main__":
    main()
