"""In-memory spans around calls into geopriv's layers, and their arithmetic.

A span is ``[name, start, end, parent, work, out]``: the dotted name
``<layer>.<function>``, perf_counter start and end, the index of the
enclosing span (-1 at the top), the items the call processed (points,
stays) and the size of what it returned (stays, POIs, hits). Spans are
appended in start order, so a parent always precedes its children.

Wrapping happens from outside the program: :meth:`Tracer.patch` swaps a
module or class attribute for a recording wrapper and puts the original
back afterwards, so the package's own source is untouched.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Iterable

NAME, START, END, PARENT, WORK, OUT = range(6)

ItemsFn = Callable[[tuple, object], int]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, 0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def wrap(self, name: str, fn: Callable, work: ItemsFn | None = None,
             out: ItemsFn | None = None) -> Callable:
        """``fn`` recording one span per call; ``work``/``out`` map the
        call's (args, result) to item counts."""
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if work is not None:
                span[WORK] = work(args, result)
            if out is not None:
                span[OUT] = out(args, result)
            return result

        return traced

    def count(self, name: str, fn: Callable) -> Callable:
        """``fn`` counting its calls without a span, for calls too many
        and too small to time one by one."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        span = self._open(name)
        try:
            yield span
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def patch(self, spans: Iterable[tuple], counters: Iterable[tuple] = ()):
        """Install span wrappers for ``(owner, attr, name, work, out)`` and
        call counters for ``(owner, attr, name)``; restore the originals on
        exit."""
        saved = []
        try:
            for owner, attr, name, *items in [*spans, *counters]:
                raw = owner.__dict__[attr]
                saved.append((owner, attr, raw))
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                new = self.wrap(name, fn, *items) if items else self.count(name, fn)
                setattr(owner, attr, classmethod(new) if isinstance(raw, classmethod) else new)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s[START]
        for c0, c1 in sorted(children[i]):
            lo, hi = max(c0, cursor), min(c1, s[END])
            if hi > lo:
                covered += hi - lo
            cursor = max(cursor, hi)
        out.append((s[END] - s[START]) - covered)
    return out


def totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: summed seconds, self seconds, calls, work and out."""
    acc: dict[str, dict[str, float]] = defaultdict(
        lambda: {"s": 0.0, "self_s": 0.0, "calls": 0, "work": 0, "out": 0})
    for s, own in zip(spans, self_times(spans)):
        t = acc[s[NAME]]
        t["s"] += s[END] - s[START]
        t["self_s"] += own
        t["calls"] += 1
        t["work"] += s[WORK]
        t["out"] += s[OUT]
    return dict(acc)


def layer_self(spans: list[list]) -> dict[str, float]:
    """Self seconds per layer, the layer being the name's first component."""
    acc: dict[str, float] = defaultdict(float)
    for s, own in zip(spans, self_times(spans)):
        acc[s[NAME].split(".", 1)[0]] += own
    return dict(acc)
