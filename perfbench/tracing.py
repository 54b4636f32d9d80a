"""Span recording around the simulator's layer boundaries.

The benchmark does not edit the program: it replaces a layer's public
function at the attribute its callers look it up through (a module
global or a class method) with a wrapper that records a span, runs the
original and restores nothing until ``Tracer.restore``.  Spans stay in
memory; self times are worked out once the traced run has ended.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    """One timed call: layer name, start and end (seconds) and parent index."""

    name: str
    start: float
    end: float
    parent: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans and plain call counts for one traced run."""

    def __init__(self):
        self._open: list[list] = []
        self._records: list[list] = []
        self.counts: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        """``fn`` wrapped so that each call records a span called ``name``."""
        records, stack = self._records, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, time.perf_counter(), None, stack[-1][4] if stack else -1,
                   len(records)]
            records.append(rec)
            stack.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()

        return traced

    def count(self, name: str, fn):
        """``fn`` wrapped so that each call adds one to ``counts[name]``."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def patch(self, owner, attr: str, name: str, *, count_only: bool = False) -> bool:
        """Replace ``owner.attr`` by its traced twin; False if it is absent.

        For a class, only an attribute defined on the class itself is
        replaced, so a method inherited from a base is not wrapped twice.
        """
        if isinstance(owner, type):
            if attr not in vars(owner):
                return False
            original = vars(owner)[attr]
        elif hasattr(owner, attr):
            original = getattr(owner, attr)
        else:
            return False
        wrapper = self.count(name, original) if count_only else self.wrap(name, original)
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))
        return True

    def restore(self) -> None:
        """Put every patched attribute back, last patch first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @property
    def spans(self) -> list[Span]:
        return [Span(name, start, end, parent)
                for name, start, end, parent, _ in self._records]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: list[list[Span]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = []
    for s, kids in zip(spans, children):
        covered, reach = 0.0, s.start
        for k in sorted(kids, key=lambda k: k.start):
            lo, hi = max(k.start, reach, s.start), min(k.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per layer name: summed duration ``total``, summed ``self`` and ``calls``."""
    out: dict[str, dict[str, float]] = {}
    for s, own in zip(spans, self_times(spans)):
        agg = out.setdefault(s.name, {"total": 0.0, "self": 0.0, "calls": 0})
        agg["total"] += s.duration
        agg["self"] += own
        agg["calls"] += 1
    return out
