"""Span recording for the traced run, from outside the program.

:class:`Tracer` replaces a public function (a module attribute or a class
method) with a wrapper that records one span per call: name, start, end,
the span open on the same thread when the call began (its parent), the
operation or request id current at the time, and attributes computed from
the call's arguments and result. Nothing under the program's sources is
modified; :meth:`Tracer.restore` puts every original back.

The wrappers keep the original's ``__module__``/``__qualname__``
(``functools.wraps``), so a wrapped pool task still pickles by reference and
runs unwrapped in a worker process: spans stop at the process boundary.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from collections.abc import Callable
from pathlib import Path

from common import current_rss_mb, now


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []
        #: operation or request id stamped on every span opened meanwhile
        self.op: str | None = None
        #: operation id -> speed factor its span times are scaled by when
        #: analysed (see common.Clock); 1.0 when absent
        self.scale: dict[str, float] = {}

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args, kwargs,
             attrs: Callable | None, rss: bool):
        stack = self._stack()
        span_id = next(self._ids)
        span = {"id": span_id, "name": name, "parent": stack[-1] if stack else None,
                "op": self.op, "thread": threading.get_ident()}
        rss_before = current_rss_mb() if rss else 0.0
        stack.append(span_id)
        span["start"] = now()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = now()
            stack.pop()
        if rss:
            span["rss_delta_mb"] = current_rss_mb() - rss_before
        if attrs is not None:
            span.update(attrs(result, *args, **kwargs))
        with self._lock:
            self.spans.append(span)
        return result

    def wrap(self, owner: object, attr: str, name: str, *,
             attrs: Callable | None = None, rss: bool = False) -> None:
        """Trace every call of ``owner.attr`` as a span called *name*.

        *attrs* maps ``(result, *args, **kwargs)`` to extra span fields
        (counts, never vertex ids).
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.call(name, original, args, kwargs, attrs, rss)

        self.replace(owner, attr, traced)

    def replace(self, owner: object, attr: str, value: object) -> None:
        """Set ``owner.attr`` to *value* until :meth:`restore`."""
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write(self, path: Path, extra: dict | None = None) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"spans": self.spans, "scale": self.scale, **(extra or {})}
        path.write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")


# -- analysis --------------------------------------------------------------

def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    result = {}
    for span in spans:
        covered, reach = 0.0, span["start"]
        for start, end in sorted(children.get(span["id"], [])):
            start, end = max(start, reach), min(end, span["end"])
            if end > start:
                covered += end - start
                reach = end
        result[span["id"]] = span["end"] - span["start"] - covered
    return result


def by_op(spans: list[dict], name: str) -> dict[str, list[dict]]:
    """Spans called *name*, grouped by operation id."""
    grouped: dict[str, list[dict]] = {}
    for span in spans:
        if span["name"] == name and span["op"] is not None:
            grouped.setdefault(span["op"], []).append(span)
    return grouped


def duration(span: dict) -> float:
    return span["end"] - span["start"]
