"""Deterministic parallel map over independent tasks.

The execution contract every caller in this library leans on:

* **Determinism** — results are returned in task order and each task is a
  pure function of its payload (callers bind per-task RNG streams with
  :mod:`repro.runtime.streams`), so the output is bit-identical whatever the
  worker count, chunking, or completion order.
* **Graceful degradation** — parallel execution is only ever an
  optimisation. Any pool-level problem (unpicklable payloads, repeated chunk
  failure, a progress timeout, dead workers) abandons the pool and recomputes
  everything serially; the caller sees the same results either way, plus a
  :class:`~repro.runtime.stats.RunStats` explaining what happened.
* **Bounded retries** — a chunk that raises is resubmitted with exponential
  backoff up to ``max_retries`` times before the run falls back, so one
  transient worker hiccup (OOM-killed child, flaky I/O inside a task) does
  not serialise a whole sweep.

``ProcessPoolExecutor`` is used rather than threads because every hot path
here is pure-Python CPU work pinned by the GIL.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
import time
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any

from repro.runtime.stats import RunStats, Stopwatch
from repro.utils.validation import ReproError

#: environment variable consulted when callers pass ``jobs=None`` explicitly
#: asking for the ambient default (the CLI exports it for nested call sites)
JOBS_ENV_VAR = "REPRO_JOBS"


def resolve_jobs(jobs: int | None) -> int:
    """Normalise a ``jobs`` request into a concrete worker count.

    - ``None``  -> the ``REPRO_JOBS`` environment variable, else 1 (serial);
    - ``0``     -> every available CPU;
    - ``n >= 1``-> exactly n.
    """
    if jobs is None:
        raw = os.environ.get(JOBS_ENV_VAR, "").strip()
        if not raw:
            return 1
        try:
            jobs = int(raw)
        except ValueError as exc:
            raise ReproError(f"{JOBS_ENV_VAR}={raw!r} is not an integer") from exc
    if isinstance(jobs, bool) or not isinstance(jobs, int):
        raise ReproError(f"jobs must be an int or None, got {type(jobs).__name__}")
    if jobs < 0:
        raise ReproError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def _apply_chunk(fn: Callable, chunk: Sequence) -> list:
    """Worker-side body: apply *fn* to every task of one chunk, in order."""
    return [fn(task) for task in chunk]


_MP_CONTEXT = None


def _pool_context() -> multiprocessing.context.BaseContext:
    """The multiprocessing context shared by every pool.

    ``forkserver`` where available: plain ``fork`` of a process whose earlier
    pools (or libraries) left threads behind can deadlock the child on an
    inherited lock, and ``spawn`` pays a full interpreter + import start-up
    per worker. The forkserver process is forked once, single-threaded, with
    this package preloaded, so per-pool workers are both cheap and safe.
    """
    global _MP_CONTEXT
    if _MP_CONTEXT is None:
        try:
            context = multiprocessing.get_context("forkserver")
            context.set_forkserver_preload(["repro"])
        except ValueError:  # pragma: no cover - platform without forkserver
            context = multiprocessing.get_context()
        _MP_CONTEXT = context
    return _MP_CONTEXT


def _is_pickling_error(exc: BaseException) -> bool:
    if isinstance(exc, pickle.PicklingError):
        return True
    return isinstance(exc, (TypeError, AttributeError)) and "pickle" in str(exc).lower()


class _ParallelAbort(Exception):
    """Internal: the pool cannot finish this run; recompute serially."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class ParallelMap:
    """Order-preserving map with chunking, retries, and serial fallback.

    Parameters
    ----------
    jobs:
        Worker processes (see :func:`resolve_jobs`); 1 means serial.
    chunk_size:
        Tasks per submitted chunk. Default: tasks spread over ``4 * jobs``
        chunks, so stragglers can be rebalanced while per-chunk pickling of
        shared payloads (pickle memoises within one chunk) stays amortised.
    task_timeout:
        Progress timeout in seconds: if no chunk completes for this long the
        pool is abandoned and the run falls back to serial. ``None`` (the
        default) waits forever. This guards scheduling/worker hangs — a task
        that also hangs when run serially will still hang.
    max_retries:
        How many times one failing chunk is resubmitted before fallback.
    backoff_seconds:
        Base of the exponential backoff between retries of a chunk.
    min_parallel_tasks:
        Inputs smaller than this run serially outright — pool startup costs
        more than it buys.
    """

    def __init__(
        self,
        jobs: int | None = None,
        *,
        chunk_size: int | None = None,
        task_timeout: float | None = None,
        max_retries: int = 2,
        backoff_seconds: float = 0.05,
        min_parallel_tasks: int = 2,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        if chunk_size is not None and chunk_size < 1:
            raise ReproError(f"chunk_size must be >= 1, got {chunk_size}")
        self.chunk_size = chunk_size
        self.task_timeout = task_timeout
        self.max_retries = max(0, int(max_retries))
        self.backoff_seconds = backoff_seconds
        self.min_parallel_tasks = min_parallel_tasks
        #: stats of the most recent :meth:`map` call
        self.last_stats: RunStats | None = None

    # ------------------------------------------------------------------

    def map(self, fn: Callable, tasks: Iterable) -> list:
        """Apply *fn* to every task; returns results in task order.

        Exceptions raised by *fn* during the serial path (including the
        serial fallback after a failed parallel attempt) propagate to the
        caller — serial execution is the ground truth.
        """
        items = list(tasks)
        stats = RunStats(tasks=len(items), jobs=self.jobs)
        watch = Stopwatch()
        try:
            reason = self._serial_reason(items)
            if reason is None:
                try:
                    results = self._run_parallel(fn, items, stats)
                    stats.mode = "parallel"
                    return results
                except _ParallelAbort as abort:
                    reason = abort.reason
                except BrokenProcessPool as exc:
                    stats.errors.append(repr(exc))
                    reason = "broken-pool"
            stats.mode = "serial"
            stats.fallback = reason
            return [fn(task) for task in items]
        finally:
            stats.wall_seconds = watch.elapsed()
            stats.cpu_seconds = watch.cpu_elapsed()
            stats.peak_rss_bytes = watch.peak_rss()
            self.last_stats = stats

    # ------------------------------------------------------------------

    def _serial_reason(self, items: list) -> str | None:
        if self.jobs <= 1:
            return "jobs=1"
        if len(items) < self.min_parallel_tasks:
            return "tiny-input"
        return None

    def _chunks(self, items: list) -> list[tuple[int, list]]:
        size = self.chunk_size or max(1, math.ceil(len(items) / (self.jobs * 4)))
        return [(start, items[start:start + size]) for start in range(0, len(items), size)]

    def _run_parallel(self, fn: Callable, items: list, stats: RunStats) -> list:
        chunks = self._chunks(items)
        stats.chunks = len(chunks)
        results: list = [None] * len(items)
        # The pool is managed by hand rather than with a ``with`` block:
        # context-manager exit waits for running futures, so an abandoned
        # (timed-out / wedged) worker would block the serial fallback. On the
        # abort paths we shut down without waiting and let the orphaned
        # workers drain in the background.
        pool = ProcessPoolExecutor(max_workers=min(self.jobs, len(chunks)),
                                   mp_context=_pool_context())
        orderly = False
        pending: dict[Future, tuple[int, list, int]] = {}
        try:
            for start, chunk in chunks:
                pending[pool.submit(_apply_chunk, fn, chunk)] = (start, chunk, 0)
            while pending:
                done, _ = wait(list(pending), timeout=self.task_timeout,
                               return_when=FIRST_COMPLETED)
                if not done:
                    # No chunk finished within the window: treat the pool as
                    # wedged. Running workers are abandoned, not joined.
                    raise _ParallelAbort("task-timeout")
                for future in done:
                    start, chunk, attempt = pending.pop(future)
                    exc = future.exception()
                    if exc is None:
                        results[start:start + len(chunk)] = future.result()
                        continue
                    stats.errors.append(repr(exc))
                    if isinstance(exc, BrokenProcessPool):
                        raise _ParallelAbort("broken-pool")
                    if _is_pickling_error(exc):
                        raise _ParallelAbort("unpicklable")
                    if attempt >= self.max_retries:
                        raise _ParallelAbort("task-failure")
                    stats.retries += 1
                    time.sleep(self.backoff_seconds * (2 ** attempt))
                    pending[pool.submit(_apply_chunk, fn, chunk)] = (start, chunk, attempt + 1)
            orderly = True
        finally:
            # Queued chunks are cancelled one by one, not through
            # shutdown(cancel_futures=True): on CPython 3.11 that swaps the
            # pool's pending-work table for a copy, so a chunk whose pickling
            # fails afterwards is dropped from the stale table only, and the
            # pool's manager thread, joined at interpreter exit, waits for it
            # forever.
            for future in pending:
                future.cancel()
            pool.shutdown(wait=orderly)
        return results


def parallel_map(fn: Callable, tasks: Iterable, jobs: int | None = None,
                 **options: Any) -> list:
    """One-shot :class:`ParallelMap` (results only; stats discarded)."""
    return ParallelMap(jobs, **options).map(fn, tasks)


def parallel_map_with_stats(
    fn: Callable, tasks: Iterable, jobs: int | None = None, **options: Any
) -> tuple[list, RunStats]:
    """One-shot :class:`ParallelMap` returning ``(results, stats)``."""
    executor = ParallelMap(jobs, **options)
    results = executor.map(fn, tasks)
    assert executor.last_stats is not None
    return results, executor.last_stats
