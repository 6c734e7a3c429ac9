"""Run one command and report its own wall time, CPU time and peak RSS.

    python3 bench/launch.py REPORT TIMEOUT_S CMD...

The benchmark starts every child through this launcher. On Linux a process
takes over, at exec, the peak RSS of the address space it was forked from,
so a child spawned straight from the benchmark, which holds the generated
inputs, would report at least the benchmark's own peak. The launcher is
small, so what the command reports is its own. The report is one JSON
object, ``{"wall_s", "cpu_s", "rss_mb", "code"}``, where ``code`` is the
command's exit code (negative for a signal, as after a kill at the timeout).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def main(argv: list[str]) -> int:
    report, timeout_s, cmd = argv[0], float(argv[1]), argv[2:]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd)
    timer = threading.Timer(timeout_s, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(report, "w", encoding="utf-8") as fh:
        json.dump({
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "code": proc.returncode,
        }, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
