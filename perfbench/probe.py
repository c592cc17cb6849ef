"""Sample the machine's speed while a service workload runs.

    python3 perfbench/probe.py

Runs :func:`common.calibration_loop` on ``PROBE_VERTICES`` vertices every
``PERIOD`` seconds and prints one line per run, ``<clock at start> <CPU
seconds the loop took>``, until its standard input closes. CPU time, not wall time, so that waiting for a core
the daemon keeps busy does not count as slowness.
"""

from __future__ import annotations

import select
import sys
import time

from common import PROBE_VERTICES, calibration_loop, now

PERIOD = 0.05


def main() -> int:
    while True:
        ready, _, _ = select.select([sys.stdin], [], [], PERIOD)
        if ready and not sys.stdin.read(1):
            return 0
        started, cpu = now(), time.thread_time()
        calibration_loop(PROBE_VERTICES)
        print(f"{started!r} {time.thread_time() - cpu!r}", flush=True)


if __name__ == "__main__":
    raise SystemExit(main())
