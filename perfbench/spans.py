"""In-memory span recorder for the traced benchmark run.

A span is ``(span_id, name, start, end, parent_id, request_id)`` with
``perf_counter`` times, which are CLOCK_MONOTONIC on Linux and so
comparable across forked worker processes. Spans are kept in one list
and written out when the run ends; span ids embed the pid, so spans
recorded by forked workers merge with the parent's without clashing.

Nesting is tracked per thread: a span's parent is the innermost span
open on the same thread, and it inherits that span's request id unless
the wrapper names one. Counts that belong to a layer boundary (posting
entries a merge touched, verifications that matched) go to
:meth:`Tracer.add` rather than onto every span.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

__all__ = ["Tracer", "covered_length", "self_times", "summarize"]


class Tracer:
    """Records spans and named counts for one process (and its forks)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._counts_lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        #: request id by ``id(item)`` for calls that cross threads (the
        #: sharded server probes shards on pool threads).
        self.request_of_item: dict[int, int] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        return (os.getpid() << 32) | next(self._ids)

    def record(self, name: str, start: float, end: float) -> None:
        """Record an already-closed leaf span under the current parent."""
        stack = self._stack()
        parent, request = stack[-1] if stack else (0, None)
        self.spans.append((self._new_id(), name, start, end, parent, request))

    @contextmanager
    def span(self, name: str, request: int | None = None):
        stack = self._stack()
        parent, inherited = stack[-1] if stack else (0, None)
        if request is None:
            request = inherited
        span_id = self._new_id()
        stack.append((span_id, request))
        start = perf_counter()
        try:
            yield span_id
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, request))

    def wrap(self, fn, name: str, before=None, after=None, request_of=None):
        """``fn`` timed as span ``name``.

        ``before(args, kwargs)`` runs first and its value is handed to
        ``after(state, result, args, kwargs)`` once ``fn`` returned;
        both run inside the span. ``request_of(args, kwargs)`` may name
        the request the call belongs to.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            request = request_of(args, kwargs) if request_of is not None else None
            with tracer.span(name, request):
                state = before(args, kwargs) if before is not None else None
                result = fn(*args, **kwargs)
                if after is not None:
                    after(state, result, args, kwargs)
                return result

        return traced

    def add(self, key: str, amount: float = 1) -> None:
        with self._counts_lock:
            self.counts[key] += amount

    def mark(self) -> tuple[int, dict]:
        """A position to :meth:`since` from (spans and counts so far)."""
        with self._counts_lock:
            return len(self.spans), dict(self.counts)

    def since(self, mark: tuple[int, dict]) -> tuple[list, dict]:
        """Spans and count increments recorded after ``mark``."""
        n_spans, counts = mark
        with self._counts_lock:
            delta = {
                key: value - counts.get(key, 0)
                for key, value in self.counts.items()
                if value != counts.get(key, 0)
            }
        return self.spans[n_spans:], delta

    def rewind(self, mark: tuple[int, dict]) -> None:
        """Forget the spans and counts recorded after ``mark``."""
        n_spans, counts = mark
        with self._counts_lock:
            del self.spans[n_spans:]
            self.counts.clear()
            self.counts.update(counts)


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, lo), min(end, hi))
        for start, end in intervals
        if end > lo and start < hi
    )
    total = 0.0
    cur_start = cur_end = None
    for start, end in clipped:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> self time: its duration minus the part of its interval
    that its child spans cover."""
    children = defaultdict(list)
    for _sid, _name, start, end, parent, _request in spans:
        children[parent].append((start, end))
    return {
        sid: (end - start) - covered_length(children.get(sid, ()), start, end)
        for sid, _name, start, end, _parent, _request in spans
    }


def summarize(spans) -> dict[str, dict]:
    """Per span name: call count, total time and total self time."""
    own = self_times(spans)
    out: dict[str, dict] = {}
    for sid, name, start, end, _parent, _request in spans:
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += own[sid]
    return out
