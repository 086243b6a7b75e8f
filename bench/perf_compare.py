#!/usr/bin/env python3
"""Compare perfbench on two checkouts on one machine and fail on regression.

Usage:
    perf_compare.py --base ROOT --head ROOT [--pairs 7] [--seconds 5]
                    [--workload NAME ...] [--trace]

For each workload in the head's BENCHMARK.json (or each --workload given),
runs --pairs pairs of

    python3 <root>/perfbench/run.py --workload W --seed 1 --seconds S --trace 0

once on the base checkout and once on the head checkout, alternating which
side runs first so a drift in machine speed hits both, and reads the last
JSON line of each run. Each side builds its own perfbench tree on its first
run.

--trace then runs --pairs more alternating pairs per workload with
--trace 1 and prints each per-layer metric's median per side and the
head/base ratio. One traced run per side sizes a layer no better than about
2x on a shared machine; medians of several are what a layer delta quotes.
The traced pairs only report: they never change the exit status.

Exit status is 1 when
  - a head run reports "correct": false, or the head's failed/attempted
    share of a workload is larger than the base's;
  - a head median is worse than the base median by more than the metric's
    relative `bound` in the head's BENCHMARK.json (0.25 = 25 %).
A metric whose base runs spread (interquartile range over median) wider
than its bound cannot be judged at this many pairs: unless every head run
reads better than every base run, it is printed as "unresolved" and does
not fail.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN_TIMEOUT_S = 1800  # the first run of each side also builds perfbench


def run_perfbench(root: str, workload: str, seconds: float,
                  trace: bool) -> dict:
    """One perfbench run; returns its result line."""
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", f"{seconds:g}",
           "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"{root}: {workload} printed no result line "
                           f"(exit {proc.returncode})") from None


def failed_share(runs: list[dict]) -> float:
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def quartile_spread(values: list[float]) -> float:
    """Interquartile range relative to the median."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / median if median else float("inf")


def compare(workload: str, base: list[dict], head: list[dict],
            metrics: list[dict]) -> list[str]:
    """Prints the workload's table; returns its failures."""
    failures = [f"{workload}: head run {i + 1} reports correct: false"
                for i, r in enumerate(head) if not r["correct"]]
    for i, r in enumerate(base):
        if not r["correct"]:
            print(f"warning: {workload}: base run {i + 1} reports correct: false")
    base_share, head_share = failed_share(base), failed_share(head)
    if head_share > base_share:
        failures.append(f"{workload}: failed share {head_share:.4f} > "
                        f"base {base_share:.4f}")

    print(f"\n{workload}: failed share base {base_share:.4f}, "
          f"head {head_share:.4f}")
    print(f"  {'metric':12s} {'base':>11s} {'head':>11s} {'change':>8s} "
          f"{'base iqr':>9s} {'bound':>6s}  verdict")
    for m in metrics:
        name, bound = m["name"], m["bound"]
        # An incorrect run reports no metrics.
        b = [r["metrics"][name]["value"] for r in base if name in r["metrics"]]
        h = [r["metrics"][name]["value"] for r in head if name in r["metrics"]]
        if not b or not h:
            print(f"  {name:12s} not reported by {'head' if b else 'base'}")
            continue
        bmed, hmed = statistics.median(b), statistics.median(h)
        change = (hmed - bmed) / bmed if bmed else 0.0
        worse = change if m["better"] == "lower" else -change
        all_better = (max(h) < min(b) if m["better"] == "lower"
                      else min(h) > max(b))
        spread = quartile_spread(b)
        if spread > bound and not all_better:
            verdict = "unresolved"
        elif worse > bound:
            verdict = "REGRESSION"
            failures.append(f"{workload}: {name} {change:+.1%} "
                            f"(bound {bound:.0%})")
        else:
            verdict = "ok"
        print(f"  {name:12s} {bmed:11.4g} {hmed:11.4g} {change:+8.1%} "
              f"{spread:9.1%} {bound:6.0%}  {verdict}")
    return failures


def run_pairs(args, workload: str, trace: bool) -> dict[str, list[dict]]:
    """--pairs alternating base/head runs; prints one line per run."""
    runs = {"base": [], "head": []}
    label = f"{workload}{' traced' if trace else ''}"
    for pair in range(args.pairs):
        order = ("base", "head") if pair % 2 == 0 else ("head", "base")
        for side in order:
            root = args.base if side == "base" else args.head
            try:
                run = run_perfbench(root, workload, args.seconds, trace)
            except RuntimeError as error:
                if not trace:
                    raise
                print(f"warning: {label} {side}: {error}", flush=True)
                continue
            runs[side].append(run)
            values = " ".join(f"{name}={m['value']:.4g}"
                              for name, m in run["metrics"].items()
                              if not trace or m["value"])
            print(f"{label} pair {pair + 1}/{args.pairs} {side}: "
                  f"correct={run['correct']} failed={run['failed']}/"
                  f"{run['attempted']} {values}", flush=True)
    return runs


def report_layers(workload: str, base: list[dict], head: list[dict],
                  metrics: list[dict]) -> None:
    """Prints the median of each per-layer metric per side and their ratio.
    A metric both sides read as 0 throughout (a layer the workload never
    calls) is counted, not listed."""
    print(f"\n{workload} per layer: medians of {len(base)} base and "
          f"{len(head)} head traced runs")
    print(f"  {'metric':34s} {'base':>11s} {'head':>11s} {'head/base':>9s}")
    silent = 0
    for m in metrics:
        name = m["name"]
        b = [r["metrics"][name]["value"] for r in base if name in r["metrics"]]
        h = [r["metrics"][name]["value"] for r in head if name in r["metrics"]]
        if not any(b) and not any(h):
            silent += 1
            continue
        bmed = statistics.median(b) if b else float("nan")
        hmed = statistics.median(h) if h else float("nan")
        ratio = f"{hmed / bmed:9.3f}" if b and h and bmed else f"{'n/a':>9s}"
        print(f"  {name:34s} {bmed:11.4g} {hmed:11.4g} {ratio}")
    print(f"  ({silent} per-layer metrics read 0 on both sides)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="base checkout root")
    parser.add_argument("--head", required=True, help="head checkout root")
    parser.add_argument("--pairs", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=5)
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="compare only this workload (repeatable; "
                             "default: every workload in BENCHMARK.json)")
    parser.add_argument("--trace", action="store_true",
                        help="also run traced pairs and print per-layer "
                             "medians (report only)")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with open(os.path.join(args.head, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    known = [w["name"] for w in spec["workloads"]]
    unknown = [w for w in args.workload or [] if w not in known]
    if unknown:
        parser.error(f"unknown workload {', '.join(unknown)} "
                     f"(choose from {', '.join(known)})")

    failures = []
    for workload in args.workload or known:
        runs = run_pairs(args, workload, False)
        failures += compare(workload, runs["base"], runs["head"],
                            spec["end_to_end"])
        if args.trace:
            traced = run_pairs(args, workload, True)
            report_layers(workload, traced["base"], traced["head"],
                          spec["per_layer"])

    if failures:
        print("\nFAIL:")
        for f in failures:
            print("  " + f)
        return 1
    print(f"\nOK: head within every bound over {args.pairs} pairs")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, subprocess.SubprocessError, RuntimeError,
            ValueError, KeyError) as error:
        print(f"perf_compare: {error}", file=sys.stderr)
        sys.exit(1)
