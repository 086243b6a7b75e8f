#!/usr/bin/env python3
"""End-to-end benchmark of the softfet simulator.

Builds perfbench/ (the softfet libraries plus the softfet_perfbench binary)
in an optimized configuration, runs one seeded workload, checks its outputs
and exact counters, and prints one JSON result line last:

    python3 perfbench/run.py --workload mc_inverter --seed 1 --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics. `--smoke` runs every workload at a tiny size and checks
the schema, the output checks and the exact counters in seconds.
`--record` stores the run's counters as the reference for its seed and size.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "softfet_perfbench")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("mc_inverter", "grid_droop", "service_mix")
RUN_TIMEOUT_S = 170
SMOKE_SECONDS = 1


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure on every run, so the build info names the commit and flags
    in use, then build incrementally; cmake output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   check=True, stdout=sys.stderr)


def run_workload(workload, seed, seconds, trace, smoke):
    """Runs the binary; relays its notes to stdout and returns its report."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--netlists", os.path.join(ROOT, "examples", "netlists")]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: softfet_perfbench exited with {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def reference_key(raw, seconds):
    size = "smoke" if raw["smoke"] else "full"
    return (f"{raw['workload']}/{size}/seed={int(raw['seed'])}"
            f"/seconds={seconds:g}/trace={int(raw['trace'])}")


def load_reference():
    with open(REFERENCE) as f:
        return json.load(f)


def counter_mismatches(raw, seconds):
    """Counters that differ from, or are missing against, the recorded
    reference for this key."""
    entry = load_reference().get("counters", {}).get(reference_key(raw, seconds))
    if entry is None:
        return None
    return [f"{name}: {raw['counters'].get(name, 'missing')!r} != reference {want!r}"
            for name, want in sorted(entry.items())
            if raw["counters"].get(name) != want]


def record(raw, seconds):
    reference = load_reference()
    reference.setdefault("counters", {})[reference_key(raw, seconds)] = raw["counters"]
    with open(REFERENCE, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")


def problems(raw, seconds):
    """Every reason the run's output is not correct."""
    found = [f"check {c['name']} failed: {c['detail']}" for c in raw["failed_checks"]]
    mismatches = counter_mismatches(raw, seconds)
    if mismatches:
        found += ["counter " + m for m in mismatches]
    return found


def result_metrics(raw, trace, spec):
    """The contract's metrics: every end-to-end metric, or with --trace 1
    every per-layer metric (a layer this workload never calls reads 0)."""
    out = {}
    if not trace:
        for m in spec["end_to_end"]:
            value = raw["end_to_end"][m["name"]]
            out[m["name"]] = {"value": value["value"], "unit": m["unit"]}
        return out
    for m in spec["per_layer"]:
        name = m["name"]
        if name in raw["per_layer"]:
            value = raw["per_layer"][name]["value"]
        else:
            value = raw["counters"].get(name, 0)
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def print_env(raw):
    env = raw["env"]
    print(f"env: nproc={int(env['nproc'])} cpu=\"{env['cpu_model']}\" "
          f"compiler=\"{env['compiler']}\" build_type={env['build_type']} "
          f"build=\"{env['build_info']}\"")


def smoke(spec):
    """Tiny runs of every workload: schema, checks and exact counters."""
    failures = []
    for workload in WORKLOADS:
        for trace in (False, True):
            raw = run_workload(workload, 1, SMOKE_SECONDS, trace, True)
            found = problems(raw, SMOKE_SECONDS)
            if counter_mismatches(raw, SMOKE_SECONDS) is None:
                found.append("no reference counters for " +
                             reference_key(raw, SMOKE_SECONDS))
            metrics = result_metrics(raw, trace, spec)
            found += [f"metric {n} is not a number" for n, m in metrics.items()
                      if not isinstance(m["value"], (int, float))]
            if not trace:
                found += [f"end-to-end metric {n} is not positive"
                          for n, m in metrics.items() if not m["value"] > 0]
            status = "ok" if not found else "FAILED"
            print(f"smoke {workload} trace={int(trace)}: {status}")
            failures += [f"{workload}: {p}" for p in found]
    for f in failures:
        print("  " + f)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    build()
    if args.smoke:
        if args.record:
            for workload in WORKLOADS:
                for trace in (False, True):
                    record(run_workload(workload, 1, SMOKE_SECONDS, trace, True),
                           SMOKE_SECONDS)
        return smoke(spec)
    if args.workload is None:
        parser.error("--workload is required")

    raw = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                       False)
    print_env(raw)
    if args.record:
        record(raw, args.seconds)
    found = problems(raw, args.seconds)
    for p in found:
        print("incorrect: " + p)
    correct = not found
    print(json.dumps({
        "correct": correct,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": result_metrics(raw, bool(args.trace), spec) if correct else {},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, subprocess.SubprocessError, RuntimeError,
            ValueError, KeyError) as error:
        log(f"perfbench: {error}")
        sys.exit(1)
