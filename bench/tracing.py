"""Spans around the benchmark's calls into the lpflow layers.

A span records name, start, end, parent span and op id.  Spans stay in
memory and are written out with the run's results.  A layer's self time is
its span's duration minus the time its child spans cover; children are
sequential here (one thread), so that is the duration minus their sum.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass


def span_name(fn) -> str:
    """``<module>.<function>`` of a library callable, without the package."""
    module = fn.__module__.removeprefix("lpflow.")
    return f"{module}.{fn.__qualname__}"


class Untraced:
    """Calls straight through; the workloads see the same interface."""

    def call(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op_id: int | None


class Tracer:
    """Records one span per :meth:`call`; nested calls get the caller as parent."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op_id: int | None = None
        self._stack: list[int] = []

    def call(self, fn, *args, **kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(span_name(fn), time.perf_counter(), 0.0, parent, self.op_id)
        self.spans.append(span)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Self seconds of every span, in recording order."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]

    def top_level_seconds(self, op_id: int) -> float:
        return sum(s.end - s.start for s in self.spans
                   if s.op_id == op_id and s.parent is None)

    def summary(self, op_ids) -> dict:
        """Per span name: self seconds and calls, each averaged per op."""
        ops = set(op_ids)
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for s, st in zip(self.spans, self.self_times()):
            if s.op_id in ops:
                self_s[s.name] += st
                calls[s.name] += 1
        n = max(len(ops), 1)
        return {name: {"self_s": self_s[name] / n, "calls": calls[name] / n}
                for name in sorted(self_s)}

    def to_json(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "op": s.op_id} for s in self.spans]
