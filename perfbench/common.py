"""Shared plumbing of the benchmark: paths, clocks, statistics, RSS, results.

Nothing here imports ``repro``; :func:`program_src` locates the program's
sources in the checkout the benchmark runs from, and the entry points put
that directory on ``sys.path`` (or ``PYTHONPATH`` for the daemon) themselves.
"""

from __future__ import annotations

import bisect
import gc
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: spans, tables and daemon logs of a run land here (ignored by git)
OUT_DIR = ROOT / ".perfbench_out"

MIB = 1024 * 1024


class SetupError(RuntimeError):
    """The benchmark cannot run here (no program sources, daemon never up)."""


def program_src() -> Path:
    """The program's ``src`` directory in this checkout, or :class:`SetupError`."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SetupError(f"no program sources under {src}; run from a full checkout")
    return src


def now() -> float:
    """The benchmark's one clock (monotonic, shared by every process)."""
    return time.perf_counter()


#: Seconds :func:`calibration_loop` takes on the reference machine (the
#: 2-vCPU Xeon the figures in README.md come from) when nothing slows it.
CALIBRATION_REFERENCE_S = 0.005
#: The speed probe's shorter loop, and its time at full speed: 0.095 of the
#: full loop's, measured on the reference machine with the two interleaved.
PROBE_VERTICES = 250
PROBE_REFERENCE_S = 0.095 * CALIBRATION_REFERENCE_S


def calibration_loop(vertices: int = 2000) -> int:
    """A fixed piece of pure-Python graph work: build a pseudo-random
    dict-of-sets graph on *vertices* vertices and walk it depth-first."""
    adj: dict[int, set[int]] = {}
    x = 12345
    for v in range(vertices):
        nbrs = adj.setdefault(v, set())
        for _ in range(3):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            u = x % (v + 1)
            nbrs.add(u)
            adj.setdefault(u, set()).add(v)
    seen, stack = {0}, [0]
    while stack:
        for u in sorted(adj[stack.pop()]):
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen)


class Clock:
    """Times in-process operations at the reference machine speed.

    On the reference machine, the same Python code runs up to 1.9x slower
    for stretches of 3 to 20 seconds, whatever the process does (another
    guest on the host competes for the core).
    A run median then reads the slow or the fast speed depending on when
    the run happened. So every timed call is bracketed by two runs of
    :func:`calibration_loop`, and its time is scaled by the reference time
    of that loop over the mean of the two measured ones: the result is the
    call's time at the machine's full speed. ``speeds`` keeps each call's
    factor (1.0 = full speed); ``raw`` keeps the unscaled times.
    """

    def __init__(self) -> None:
        self.speeds: list[float] = []
        self.raw: list[float] = []

    def _calibrate(self) -> float:
        started = now()
        calibration_loop()
        return now() - started

    def time(self, fn, *args, **kwargs):
        """``(result, seconds at reference speed)`` of one call.

        Garbage is collected first, before the clock starts: that resets the
        collector's generation counts, so a repeated operation triggers the
        same collections at the same points.
        """
        gc.collect()
        before = self._calibrate()
        started = now()
        result = fn(*args, **kwargs)
        seconds = now() - started
        speed = CALIBRATION_REFERENCE_S / ((before + self._calibrate()) / 2.0)
        self.speeds.append(speed)
        self.raw.append(seconds)
        return result, seconds * speed


class SpeedProbe:
    """The machine's speed over time, sampled on the side by ``probe.py``.

    Service latencies span two processes and a socket, where :class:`Clock`
    cannot bracket the work, so a probe process times a short calibration
    loop (:data:`PROBE_VERTICES`, about 0.5 ms) every 0.05 s while the
    daemon is set up and loaded, and a request's latency is scaled by the
    mean speed of the samples taken within a second of it. The slow stretches differ between cores,
    so a probe given a *core* runs on it, beside a daemon pinned there. The
    loop is kept far below a request's time, so that the probe, which costs
    about 1 % of that core, delays a request it overlaps by at most that much.
    """

    def __init__(self, core: int | None = None) -> None:
        self.proc = subprocess.Popen([sys.executable, str(HERE / "probe.py")], cwd=HERE,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                                     preexec_fn=pinned_to(core))
        self.times: list[float] = []
        self.costs: list[float] = []

    def stop(self) -> None:
        if self.proc.returncode is not None:
            return
        try:
            out, _ = self.proc.communicate(input="", timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        samples = sorted(tuple(map(float, line.split())) for line in out.splitlines() if line)
        self.times = [t for t, _ in samples]
        self.costs = [c for _, c in samples]

    def _window(self, start: float, end: float) -> list[float]:
        low = bisect.bisect_left(self.times, start - 0.05)
        high = bisect.bisect_right(self.times, end + 0.05)
        if low >= high:
            nearest = min(range(max(0, low - 1), min(len(self.times), low + 1)),
                          key=lambda i: abs(self.times[i] - start))
            low, high = nearest, nearest + 1
        return self.costs[low:high]

    def mean_speed(self, start: float, end: float) -> float:
        """The speed factor averaged over time between *start* and *end*:
        wall time times this is the time the same work takes at full speed."""
        if not self.times:
            return 1.0
        costs = self._window(start, end)
        return sum(PROBE_REFERENCE_S / cost for cost in costs) / len(costs)


def pinned_to(core: int | None):
    """A ``preexec_fn`` that pins the child process to *core* (None: no pin)."""
    if core is None:
        return None
    return lambda: os.sched_setaffinity(0, {core})


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        only = float(values[0]) if values else 0.0
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def peak_rss_mb() -> float:
    """High-water RSS of this process in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def current_rss_mb(pid: int | str = "self") -> float:
    """Current resident set of a process in MiB, from ``/proc/<pid>/statm``."""
    with open(f"/proc/{pid}/statm", encoding="ascii") as handle:
        resident_pages = int(handle.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") / MIB


def process_peak_rss_mb(pid: int) -> float:
    """High-water RSS (``VmHWM``) of another live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise SetupError(f"process {pid} reports no VmHWM")


@dataclass
class Outcome:
    """What one pass of a workload produced.

    ``attempted`` counts timed operations (library calls or HTTP requests);
    ``failed`` those that raised, answered with an error, or whose output
    failed a check. ``problems`` keeps the first messages for the report.
    """

    attempted: int = 0
    failed: int = 0
    check_failures: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    #: extra facts for the human-readable report (sizes, rounds, ...)
    facts: dict[str, object] = field(default_factory=dict)

    def fail(self, message: str, *, check: bool = True) -> None:
        self.failed += 1
        if check:
            self.check_failures += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def verdict(self, errors: list[str], what: str) -> bool:
        """Record one operation's check result; True when it passed."""
        if errors:
            self.fail(f"{what}: {'; '.join(errors[:3])}")
            return False
        return True
