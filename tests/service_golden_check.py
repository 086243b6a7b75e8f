#!/usr/bin/env python3
"""Replay a request script through softfet_server and compare the response
transcript with a committed golden file.

Usage:
    service_golden_check.py SERVER SCRIPT GOLDEN [--update]

SERVER is the softfet_server binary, SCRIPT an NDJSON request file (one
request line per line, blank lines ignored). The script runs through
`SERVER --once --workers 1 --isolation MODE`, first in thread and then in
process isolation, in lockstep: each line is sent only after the previous
line's terminal response (result, error, cancelled or rejected) came back,
so admission verdicts such as `queue_depth` do not depend on scheduling,
and each job's lines arrive together in `seq` order (the server emits
nothing for a job after its terminal event). A line that is not valid JSON
waits for the `rejected` response with the empty id.

The transcript is the server's stdout without its `hello` line (build
provenance: git sha, pid, isolation mode), compared as the server printed
it: only `pid` and wall-time (`*_ms`) values are masked. Both modes must
match the one GOLDEN file; a difference prints a unified diff and exits 1.
--update rewrites GOLDEN from the thread-mode transcript and still checks
process mode against it.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import re
import subprocess
import sys
import threading

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "bench"))
from golden_check import matches_golden  # noqa: E402

TERMINAL = {"result", "error", "cancelled", "rejected"}
LINE_TIMEOUT_S = 300
MODES = ("thread", "process")
MASKED = re.compile(r'"(pid|[A-Za-z0-9_]*_ms)":-?[0-9][0-9.eE+-]*')


def request_id(line: str) -> str:
    """The id the server answers `line` under ("" for a malformed line)."""
    try:
        request = json.loads(line)
    except ValueError:
        return ""
    value = request.get("id") if isinstance(request, dict) else None
    return value if isinstance(value, str) else ""


def run(server: str, mode: str, script: list[str]) -> tuple[list[str], str]:
    """Replay `script`; returns (stdout lines, error text or "")."""
    proc = subprocess.Popen(
        [server, "--once", "--workers", "1", "--isolation", mode],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    lines: queue.Queue[str | None] = queue.Queue()

    def pump() -> None:
        for out in proc.stdout:
            lines.put(out.rstrip("\n"))
        lines.put(None)

    threading.Thread(target=pump, daemon=True).start()
    got: list[str] = []
    error = ""
    try:
        for request in script:
            proc.stdin.write(request + "\n")
            proc.stdin.flush()
            want = request_id(request)
            while True:
                out = lines.get(timeout=LINE_TIMEOUT_S)
                if out is None:
                    raise EOFError("server exited mid-script")
                got.append(out)
                event = json.loads(out)
                if event.get("id") == want and event.get("event") in TERMINAL:
                    break
        proc.stdin.close()
        while (out := lines.get(timeout=LINE_TIMEOUT_S)) is not None:
            got.append(out)
        if proc.wait(timeout=LINE_TIMEOUT_S) != 0:
            error = f"server exited with {proc.returncode}"
    except (queue.Empty, EOFError, ValueError, OSError) as e:
        error = f"{type(e).__name__}: {e}"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return got, error


def transcript(lines: list[str]) -> str:
    """Drop the `hello` line and mask `pid` and wall times."""
    return "".join(MASKED.sub(r'"\1":"<masked>"', line) + "\n"
                   for line in lines
                   if json.loads(line).get("event") != "hello")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("server")
    parser.add_argument("script")
    parser.add_argument("golden")
    parser.add_argument("--update", action="store_true")
    args = parser.parse_args()

    with open(args.script, encoding="utf-8") as f:
        script = [line.rstrip("\n") for line in f if line.strip()]

    failed = False
    for mode in MODES:
        lines, error = run(args.server, mode, script)
        if error:
            print(f"isolation {mode}: {error}")
            failed = True
        elif not matches_golden(args.golden, transcript(lines),
                                f"isolation {mode}",
                                args.update and mode == MODES[0]):
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
