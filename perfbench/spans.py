"""Host-time spans recorded around calls into the program's layers.

A traced process wraps public entry points of ``repro`` with
:meth:`SpanRecorder.wrap`.  Every call then records one span -- its
name, start, end and the span that was open on the same thread when it
began -- into an in-memory list.  Nothing is written until the process
ends (:meth:`SpanRecorder.dump`), so tracing costs two clock reads and
one list append per call.

:func:`aggregate` turns a dump into per-name call counts and self
times.  A span's self time is its duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import threading
import time
import typing

#: Span id meaning "no parent".
ROOT = -1


class SpanRecorder:
    """In-memory span store plus named counters for one process."""

    def __init__(self, clock: "typing.Callable[[], float]" = time.perf_counter):
        self.clock = clock
        self.names: "list[str]" = []
        self._name_ids: "dict[str, int]" = {}
        #: ``(span_id, name_id, start, end, parent_id)`` per finished span.
        self.spans: "list[tuple[int, int, float, float, int]]" = []
        self.counts: "collections.Counter[str]" = collections.Counter()
        self._ids = itertools.count()
        self._local = threading.local()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _stack(self) -> "list[tuple[int, int]]":
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: "typing.Callable",
        observe: "typing.Callable[..., None] | None" = None,
    ) -> "typing.Callable":
        """Return ``fn`` recording a span named ``name`` per call.

        A call made while a span of the same name is open on the thread
        (one backend delegating to another's method) records no second
        span.  ``observe(counts, result, *args, **kwargs)`` runs after
        the span has closed, so the counters it updates cost no span
        time.
        """
        name_id = self._name_id(name)
        clock, spans, ids = self.clock, self.spans, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack and stack[-1][1] == name_id:
                return fn(*args, **kwargs)
            span_id = next(ids)
            parent = stack[-1][0] if stack else ROOT
            stack.append((span_id, name_id))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name_id, start, end, parent))
            if observe is not None:
                observe(self.counts, result, *args, **kwargs)
            return result

        traced.__perfbench_original__ = fn
        return traced

    def dump(self, path: str) -> None:
        """Write every span and counter recorded so far as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "spans": self.spans,
                    "counts": dict(self.counts),
                },
                fh,
            )


def covered(interval: "tuple[float, float]",
            children: "typing.Iterable[tuple[float, float]]") -> float:
    """Length of ``interval`` covered by the union of ``children``.

    Children are clipped to the interval first; overlapping children
    (spans from other threads parented to the same span) count once.
    """
    lo, hi = interval
    total = 0.0
    reach = lo
    for start, end in sorted(children):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def aggregate(dump: dict) -> "dict[str, dict[str, float]]":
    """Per span name: ``calls``, ``total_s`` and ``self_s``."""
    names = dump["names"]
    spans = dump["spans"]
    children: "dict[int, list[tuple[float, float]]]" = collections.defaultdict(list)
    for _span_id, _name, start, end, parent in spans:
        if parent != ROOT:
            children[parent].append((start, end))
    out: "dict[str, dict[str, float]]" = {}
    for span_id, name_id, start, end, _parent in spans:
        row = out.setdefault(
            names[name_id], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        duration = end - start
        row["calls"] += 1
        row["total_s"] += duration
        row["self_s"] += duration - covered(
            (start, end), children.get(span_id, ())
        )
    return out


def merge(rows: "typing.Iterable[dict[str, dict[str, float]]]"
          ) -> "dict[str, dict[str, float]]":
    """Sum per-name aggregates of several processes."""
    out: "dict[str, dict[str, float]]" = {}
    for agg in rows:
        for name, row in agg.items():
            target = out.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            for key, value in row.items():
                target[key] += value
    return out
