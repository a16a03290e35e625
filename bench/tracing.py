"""In-memory spans recorded around calls into prbox's layers.

A span is ``[name, start_ns, end_ns, parent, op]``: ``parent`` is the index
of the enclosing span in :attr:`Tracer.spans` (-1 at the top) and ``op`` the
id of the operation that caused it.  Spans stay in memory while the
benchmark runs and are written out once at the end.  A disabled tracer hands
out one shared no-op context, so untraced runs pay only a method call per
boundary.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import Counter, defaultdict

_NULL = contextlib.nullcontext()


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> _Span:
        tr = self.tracer
        parent = tr._open[-1] if tr._open else -1
        self.index = len(tr.spans)
        tr.spans.append([self.name, time.perf_counter_ns(), 0, parent, tr.op])
        tr._open.append(self.index)
        return self

    def __exit__(self, *exc: object) -> None:
        tr = self.tracer
        tr.spans[self.index][2] = time.perf_counter_ns()
        tr._open.pop()


class Tracer:
    """Span and count recorder; records nothing while ``enabled`` is False."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.op: int = -1
        self._open: list[int] = []

    def span(self, name: str) -> contextlib.AbstractContextManager:
        return _Span(self, name) if self.enabled else _NULL

    def add_span(self, name: str, start_ns: int, end_ns: int) -> None:
        """Record a span measured elsewhere, e.g. inside a child process,
        as a child of the innermost open span."""
        if self.enabled:
            parent = self._open[-1] if self._open else -1
            self.spans.append([name, start_ns, end_ns, parent, self.op])

    def count(self, name: str, n: int = 1) -> None:
        if self.enabled:
            self.counts[name] += n

    def self_times(self) -> dict[str, list[int]]:
        """Per span name, each span's duration minus the part of it that its
        direct children cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        by_name: dict[str, list[int]] = defaultdict(list)
        for s, ns in zip(self.spans, own):
            by_name[s[0]].append(ns)
        return by_name

    def summary(self) -> dict[str, dict]:
        """Per span name: call count and median self time in ns."""
        return {
            name: {"calls": len(v), "p50_self_ns": statistics.median(v)}
            for name, v in sorted(self.self_times().items())
        }

    def write(self, path: str) -> None:
        """One JSON array per line: name, start_ns, end_ns, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
