#!/usr/bin/env python3
"""Build the benchmark driver from source and run one workload.

Usage (from the repository root):
  python3 perfbench/run.py --workload serve-admit --seed 1 --seconds 10 --trace 0

Workloads: serve-admit, wire-saturated, multicell-storm (see
perfbench/README.md).  The driver binary is built with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); the first run
builds the facsp library too, later runs only check that it is current.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics;
a traced run also writes .bench_out/<workload>.trace.json and validates it
with tools/trace_summary.py.

Build output and a readable metrics table go to stderr.  The last line on
stdout is one JSON object: correct, attempted, failed, metrics.  Exit status
is 0 only when the build succeeded and every correctness check passed; when
the build fails nothing is printed on stdout.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve-admit", "wire-saturated", "multicell-storm")
# The driver itself stops within a few seconds of --seconds; this only
# guards against a wedged socket.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown CPU"


def build():
    """Configure (first time) and build the driver; return its path."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "facsp_perfbench"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout)
            log("perfbench: build failed: " + " ".join(cmd))
            return None
    return os.path.join(build_dir, "facsp_perfbench")


def check_trace(path):
    """Validate a traced run's span file with the repository's own tool."""
    tool = os.path.join(ROOT, "tools", "trace_summary.py")
    proc = subprocess.run([sys.executable, tool, path, "--require-category",
                           "bench", "--min-events", "1"],
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    log(proc.stdout.rstrip())
    return proc.returncode == 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expect-admitted", type=int, default=None,
                        help="self-test only: every pass must admit exactly N")
    args = parser.parse_args(argv)

    log(f"machine: {os.cpu_count()} CPUs, {cpu_model()}")
    binary = build()
    if binary is None:
        return 1

    out_dir = os.path.join(ROOT, ".bench_out")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    if args.expect_admitted is not None:
        cmd += ["--expect-admitted", str(args.expect_admitted)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {args.workload} did not finish in {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"perfbench: no result (exit status {proc.returncode})")
        return 1
    result = json.loads(lines[-1])

    if args.trace and result["correct"]:
        trace = os.path.join(out_dir, f"{args.workload}.trace.json")
        if not check_trace(trace):
            log(f"perfbench: {trace} failed trace validation")
            result["correct"] = False

    log(f"{args.workload} (seed {args.seed}, trace {args.trace}): "
        f"correct={result['correct']} attempted={result['attempted']} "
        f"failed={result['failed']}")
    for name, m in result["metrics"].items():
        log(f"  {name:<38} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result), flush=True)
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
