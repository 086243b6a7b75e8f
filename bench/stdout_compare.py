#!/usr/bin/env python3
"""Run the same programs from two builds and diff what they print.

Usage:
    stdout_compare.py --base BUILD --head BUILD [--filter REGEX]

BUILD is a CMake build directory of this repository (e.g. a Release build
of the parent commit and one of the change). From each build it runs

  - every bench binary (one per bench/*.cpp of this checkout) and
    examples/quickstart, capturing stdout;
  - examples/netlist_runner on every examples/netlists/*.sp, once plain and
    once with --csv, capturing stdout and the CSV file.

Each capture ends with the program's exit code. Before comparing, the only
fields allowed to differ are masked: wall-clock timings ("<number> ms") and
the path of the "wrote ... to <path>" line. Anything else that differs is
printed as a unified diff, and the exit status is 1. --filter keeps only
the cases whose name matches REGEX.

A refactor that claims bitwise-identical results runs this against a build
of its parent commit. It needs two full builds, so it is not a CI step.
"""

from __future__ import annotations

import argparse
import difflib
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 900

WALL_MS = re.compile(r"\d+(?:\.\d+)?(?:[eE][-+]?\d+)? ?ms\b")
WROTE = re.compile(r"^(wrote .* to ).*$", re.MULTILINE)


def cases() -> list[tuple[str, list[str], bool]]:
    """(name, argv relative to a build dir, writes a CSV) per case."""
    out = []
    for source in sorted(os.listdir(os.path.join(ROOT, "bench"))):
        if source.endswith(".cpp"):
            stem = source[:-4]
            out.append((stem, ["bench/" + stem], False))
    out.append(("quickstart", ["examples/quickstart"], False))
    netlists = os.path.join(ROOT, "examples", "netlists")
    for deck in sorted(os.listdir(netlists)):
        if deck.endswith(".sp"):
            path = os.path.join(netlists, deck)
            runner = ["examples/netlist_runner", path]
            out.append(("netlist_runner " + deck, runner, False))
            out.append(("netlist_runner --csv " + deck, runner, True))
    return out


def capture(build: str, argv: list[str], csv: bool, scratch: str) -> str:
    """Masked stdout (plus CSV) and exit code of one case in one build."""
    cmd = [os.path.join(build, argv[0])] + argv[1:]
    csv_path = os.path.join(scratch, "out.csv")
    if csv:
        cmd += ["--csv", csv_path]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except FileNotFoundError:
        return f"missing: {cmd[0]}\n"
    text = WROTE.sub(r"\1<path>", WALL_MS.sub("<t> ms", proc.stdout))
    text += f"[exit {proc.returncode}]\n"
    if csv:
        try:
            with open(csv_path, encoding="utf-8") as f:
                text += "[csv]\n" + f.read()
            os.remove(csv_path)
        except FileNotFoundError:
            text += "[no csv written]\n"
    return text


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="base build directory")
    parser.add_argument("--head", required=True, help="head build directory")
    parser.add_argument("--filter", default="",
                        help="only run cases whose name matches this regex")
    args = parser.parse_args()

    selected = [c for c in cases() if re.search(args.filter, c[0])]
    differing = []
    with tempfile.TemporaryDirectory() as scratch:
        for name, argv, csv in selected:
            base = capture(args.base, argv, csv, scratch)
            head = capture(args.head, argv, csv, scratch)
            if base == head:
                print(f"same  {name}", flush=True)
                continue
            differing.append(name)
            print(f"DIFF  {name}", flush=True)
            sys.stdout.writelines(difflib.unified_diff(
                base.splitlines(keepends=True), head.splitlines(keepends=True),
                fromfile=f"base: {name}", tofile=f"head: {name}"))
    print(f"{len(selected) - len(differing)} of {len(selected)} cases "
          f"identical" + (f"; differ: {', '.join(differing)}"
                          if differing else ""))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
