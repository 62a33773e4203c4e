#!/usr/bin/env python3
"""Fail when a benchmark regresses past the recorded baseline.

Compares a google-benchmark JSON report (``--benchmark_format=json``)
against the ``current_ns`` values recorded in bench/BENCH_inference.json.
A guarded benchmark fails the check when its fresh per-operation time
exceeds ``factor`` x the recorded baseline (default 1.25, i.e. a 25%
regression budget that absorbs container noise but catches real
regressions such as an accidentally disabled fast path).

For batch benchmarks that report ``items_per_second`` the per-item time
is compared, matching how the baseline file records them.

``--rate`` switches to flat throughput mode for custom-main benches
(bench_multicell's ``FACSP_BENCH_JSON`` output): report and baseline are
both flat ``{"key": number}`` objects, guarded keys are rates
(higher = better), and a key fails when the fresh rate drops below
``baseline / factor``.

Usage:
  bench/bench_inference_micro --benchmark_format=json > /tmp/bench.json
  tools/check_bench_regression.py /tmp/bench.json bench/BENCH_inference.json \
      --bench BM_FacsPDecide [--factor 1.25]
  FACSP_BENCH_JSON=/tmp/mc.json bench/bench_multicell
  tools/check_bench_regression.py /tmp/mc.json bench/BENCH_multicell.json \
      --rate --bench sparse100_events_s --bench sparse1000_events_s

Repetition runs (``--benchmark_repetitions=N`` or ``->Repetitions(N)``)
are handled: aggregate rows (mean/median/stddev) are skipped, the
``/repeats:N`` name suffix is stripped, and the minimum across the
repetitions is compared (the least-noisy estimate of the true cost).

Exit status: 0 when every guarded benchmark is within budget, 1 on
regression or when a guarded benchmark is missing from either file.
``--selftest`` runs the built-in unit checks instead (wired as a ctest).
"""

import argparse
import json
import sys


class ReportError(Exception):
    """A malformed benchmark report entry (bad fields, not a regression)."""


def base_name(name):
    """Benchmark family name: strip the '/repeats:N' and '/real_time'
    segments google-benchmark appends for repetitions and UseRealTime() at
    registration time, so a guard on BM_X matches however the bench was
    run."""
    return "/".join(p for p in name.split("/")
                    if not p.startswith("repeats:") and p != "real_time")


def per_op_ns(entry):
    """Per-operation (per-item for batch benches) time in nanoseconds."""
    name = entry.get("name", "<unnamed>")
    if "items_per_second" in entry:
        ips = entry["items_per_second"]
        # 0.0 (forgot SetItemsProcessed, or a zero-item run) must be a clear
        # diagnostic, not a ZeroDivisionError traceback.
        if not isinstance(ips, (int, float)) or ips <= 0:
            raise ReportError(
                f"{name}: items_per_second is {ips!r}; cannot derive the "
                "per-item time (does the bench call SetItemsProcessed with "
                "a positive count?)"
            )
        return 1e9 / ips
    if "real_time" not in entry or "time_unit" not in entry:
        raise ReportError(f"{name}: entry has no real_time/time_unit")
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}.get(entry["time_unit"])
    if scale is None:
        raise ReportError(f"{name}: unknown time_unit '{entry['time_unit']}'")
    return entry["real_time"] * scale


def measured_times(report):
    """Map family name -> min per-op ns across iteration rows."""
    measured = {}
    for entry in report.get("benchmarks", []):
        if entry.get("run_type") == "aggregate":
            continue
        name = base_name(entry["name"])
        ns = per_op_ns(entry)
        measured[name] = min(ns, measured.get(name, ns))
    return measured


def check_rates(report, baseline, guarded, factor):
    """Throughput guard (--rate): returns the list of failed keys, printing
    one verdict line per guarded key.  Rates are higher-is-better, so the
    floor is baseline / factor."""
    failed = []
    for name in guarded:
        base = baseline.get(name)
        got = report.get(name)
        if not isinstance(base, (int, float)) or base <= 0:
            print(f"FAIL {name}: no positive baseline rate recorded")
            failed.append(name)
            continue
        if not isinstance(got, (int, float)) or got <= 0:
            print(f"FAIL {name}: missing from benchmark report")
            failed.append(name)
            continue
        floor = base / factor
        verdict = "FAIL" if got < floor else "ok"
        print(
            f"{verdict:4s} {name}: {got:.1f}/s vs baseline {base:.1f}/s "
            f"(floor {floor:.1f})"
        )
        if got < floor:
            failed.append(name)
    return failed


def selftest():
    entries = [
        {"name": "BM_A/repeats:3", "run_type": "iteration",
         "items_per_second": 1e9},
        {"name": "BM_A/repeats:3", "run_type": "iteration",
         "items_per_second": 2e9},
        {"name": "BM_A/repeats:3_mean", "run_type": "aggregate",
         "items_per_second": 1.5e9},
        {"name": "BM_B/64", "run_type": "iteration",
         "real_time": 2.0, "time_unit": "us"},
    ]
    measured = measured_times({"benchmarks": entries})
    assert measured == {"BM_A": 0.5, "BM_B/64": 2000.0}, measured

    for bad in (
        {"name": "BM_C", "items_per_second": 0.0},
        {"name": "BM_C", "items_per_second": None},
        {"name": "BM_C", "real_time": 1.0},  # no time_unit
        {"name": "BM_C", "real_time": 1.0, "time_unit": "h"},
    ):
        try:
            per_op_ns(bad)
        except ReportError:
            pass
        else:
            raise AssertionError(f"accepted malformed entry {bad}")

    assert base_name("BM_X/repeats:5") == "BM_X"
    assert base_name("BM_X/256/repeats:5") == "BM_X/256"
    assert base_name("BM_X/256") == "BM_X/256"
    assert base_name("BM_X/real_time") == "BM_X"
    assert base_name("BM_X/repeats:3/real_time") == "BM_X"

    # --rate mode: within budget, below the floor, missing, bad baseline.
    baseline = {"a_events_s": 1000.0, "b_events_s": 500.0, "bad": 0}
    assert check_rates({"a_events_s": 900.0}, baseline,
                       ["a_events_s"], 1.25) == []
    assert check_rates({"a_events_s": 700.0}, baseline,
                       ["a_events_s"], 1.25) == ["a_events_s"]
    assert check_rates({"a_events_s": 900.0}, baseline,
                       ["b_events_s"], 1.25) == ["b_events_s"]
    assert check_rates({"bad": 5.0}, baseline, ["bad"], 1.25) == ["bad"]
    print("selftest ok")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--selftest", action="store_true",
                        help="run the built-in unit checks and exit")
    if "--selftest" in sys.argv[1:]:
        return selftest()
    parser.add_argument("report", help="google-benchmark JSON report")
    parser.add_argument("baseline", help="baseline file (BENCH_inference.json)")
    parser.add_argument(
        "--bench",
        action="append",
        default=None,
        help="benchmark name to guard (repeatable; default: BM_FacsPDecide)",
    )
    parser.add_argument(
        "--factor",
        type=float,
        default=1.25,
        help="regression budget multiplier over current_ns (default 1.25)",
    )
    parser.add_argument(
        "--rate",
        action="store_true",
        help="flat throughput mode: report/baseline are {key: rate} objects, "
        "fail when a guarded rate drops below baseline / factor",
    )
    args = parser.parse_args()
    guarded = args.bench or ["BM_FacsPDecide"]

    with open(args.report) as f:
        report = json.load(f)
    with open(args.baseline) as f:
        baseline = json.load(f)
    if args.rate:
        return 1 if check_rates(report, baseline, guarded, args.factor) else 0
    baseline = baseline["benchmarks"]

    try:
        measured = measured_times(report)
    except ReportError as e:
        print(f"error: {e}")
        return 1

    failed = False
    for name in guarded:
        if name not in baseline or baseline[name].get("current_ns") is None:
            print(f"FAIL {name}: no current_ns baseline recorded")
            failed = True
            continue
        if name not in measured:
            print(f"FAIL {name}: missing from benchmark report")
            failed = True
            continue
        limit = baseline[name]["current_ns"] * args.factor
        got = measured[name]
        verdict = "FAIL" if got > limit else "ok"
        print(
            f"{verdict:4s} {name}: {got:.1f} ns vs baseline "
            f"{baseline[name]['current_ns']} ns (limit {limit:.1f})"
        )
        failed = failed or got > limit

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
