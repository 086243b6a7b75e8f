#!/usr/bin/env python3
"""Run one program and compare its stdout with a committed golden file.

Usage:
    golden_check.py PROGRAM GOLDEN [--update]

Wall-clock fields ("<number> ms") are masked with stdout_compare.py's rule
before comparing, and the golden file is stored masked. Any other
difference, or a non-zero exit code, prints a unified diff and exits 1.
--update rewrites GOLDEN from the program's output instead.
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
    if args.update:
        with open(args.golden, "w", encoding="utf-8") as f:
            f.write(got)
        return 0
    with open(args.golden, encoding="utf-8") as f:
        want = f.read()
    if got == want:
        return 0
    sys.stdout.writelines(difflib.unified_diff(
        want.splitlines(keepends=True), got.splitlines(keepends=True),
        args.golden, args.program))
    return 1


if __name__ == "__main__":
    sys.exit(main())
