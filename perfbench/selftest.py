#!/usr/bin/env python3
"""Self-test of the benchmark: short runs of every workload, plus the gate.

Usage (from the repository root):
  python3 perfbench/selftest.py [--seconds 1]

For each workload in BENCHMARK.json it runs perfbench/run.py untraced and
traced and checks that the run passed its correctness gate and that the
reported metric names and units are exactly the ones BENCHMARK.json
declares (end-to-end metrics untraced, per-layer metrics traced), with every
end-to-end value positive.  perfbench/manifest.json must map every
per-layer metric and describe every workload.

Negative case: serve-admit with a wrong expected admitted count must fail
the gate (non-zero exit, "correct": false).

Exit status 0 when every check holds.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seconds, trace, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", str(seconds), "--trace",
           str(trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "manifest.json")) as f:
        manifest = json.load(f)
    problems = []

    def expect(cond, what):
        print(("ok    " if cond else "FAIL  ") + what, flush=True)
        if not cond:
            problems.append(what)

    layer_names = [m["name"] for m in bench["per_layer"]]
    expect(sorted(layer_names) == sorted(manifest["layer_to_end_to_end"]),
           "manifest maps exactly the per-layer metrics")
    expect(sorted(w["name"] for w in bench["workloads"]) ==
           sorted(manifest["workloads"]),
           "manifest describes exactly the workloads")

    for w in bench["workloads"]:
        name = w["name"]
        for trace, declared in ((0, bench["end_to_end"]),
                                (1, bench["per_layer"])):
            rc, result, err = run(name, args.seconds, trace)
            label = f"{name} --trace {trace}"
            if result is None:
                expect(False, f"{label}: printed a result (stderr: {err[-500:]})")
                continue
            expect(rc == 0 and result["correct"], f"{label}: passes its gate")
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{label}: result has exactly the four keys")
            expect(result["attempted"] >= 1 and result["failed"] == 0,
                   f"{label}: attempted >= 1, failed == 0")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in declared}
            expect(got == want, f"{label}: metric names and units match BENCHMARK.json")
            values = [v["value"] for v in result["metrics"].values()]
            expect(all(isinstance(v, (int, float)) and math.isfinite(v)
                       for v in values), f"{label}: every value is finite")
            if trace == 0:
                expect(all(v > 0 for v in values),
                       f"{label}: every end-to-end value is positive")
            else:
                path = os.path.join(ROOT, ".bench_out", f"{name}.trace.json")
                expect(os.path.exists(path), f"{label}: wrote {path}")

    rc, result, _ = run("serve-admit", args.seconds, 0,
                        ("--expect-admitted", "1"))
    expect(rc != 0 and result is not None and result["correct"] is False,
           "serve-admit with a wrong expected admitted count fails the gate")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
