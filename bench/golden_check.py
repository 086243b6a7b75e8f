#!/usr/bin/env python3
"""Run one program and compare its stdout with a committed golden file.

Usage:
    golden_check.py PROGRAM GOLDEN [--update]

Wall-clock fields ("<number> ms") are masked with stdout_compare.py's rule
before comparing, and the golden file is stored masked. Any other
difference, or a non-zero exit code, prints a unified diff and exits 1.
--update rewrites GOLDEN from the program's output instead.

`matches_golden` is the compare/diff/update step, shared with
tests/service_golden_check.py.
"""

from __future__ import annotations

import argparse
import difflib
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from stdout_compare import WALL_MS  # noqa: E402

RUN_TIMEOUT_S = 900
DIFF_COLUMNS = 240
DIFF_CONTEXT = 60


def matches_golden(golden: str, got: str, label: str, update: bool) -> bool:
    """With `update`, write `got` to `golden`; otherwise compare them and
    print a unified diff when they differ. Diff lines longer than
    DIFF_COLUMNS are shown as a window that starts DIFF_CONTEXT columns
    before the first differing column, so a change deep in a long JSON
    line stays visible."""
    if update:
        with open(golden, "w", encoding="utf-8") as f:
            f.write(got)
        return True
    with open(golden, encoding="utf-8") as f:
        want = f.read()
    if got == want:
        return True
    want_lines = want.splitlines(keepends=True)
    got_lines = got.splitlines(keepends=True)
    start = 0
    for a, b in zip(want_lines, got_lines):
        if a != b:
            start = max(0, len(os.path.commonprefix([a, b])) - DIFF_CONTEXT)
            break
    for line in difflib.unified_diff(want_lines, got_lines, golden, label):
        if len(line) > DIFF_COLUMNS:
            body = line[1 + start:1 + start + DIFF_COLUMNS]
            line = f"{line[0]}{'... ' if start else ''}{body} ...\n"
        sys.stdout.write(line)
    return False


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("program")
    parser.add_argument("golden")
    parser.add_argument("--update", action="store_true")
    args = parser.parse_args()

    proc = subprocess.run([args.program], capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout + proc.stderr)
        print(f"{args.program} exited with {proc.returncode}")
        return 1
    got = WALL_MS.sub("<t> ms", proc.stdout)
    return 0 if matches_golden(args.golden, got, args.program,
                               args.update) else 1


if __name__ == "__main__":
    sys.exit(main())
