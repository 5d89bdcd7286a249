"""In-memory span recorder for the traced benchmark run.

A span covers one call the benchmark makes into the library (or one block
of the benchmark's own work) and records its name, start, end, parent
span and the id of the job it belongs to.  Spans stay in memory until the
run ends; nothing is written while jobs execute.
"""

from __future__ import annotations

import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass
class Span:
    name: str
    job: str
    parent: int | None
    start: float
    end: float = 0.0
    rss_growth_mb: float = 0.0
    error: bool = False
    counters: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans; nesting follows the order in which spans open."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.job = ""

    @contextmanager
    def span(self, name: str, job: str | None = None):
        """Record a span around the block; yields the Span for counters."""
        if job is not None:
            self.job = job
        parent = self._open[-1] if self._open else None
        s = Span(name, self.job, parent, 0.0)
        self.spans.append(s)
        self._open.append(len(self.spans) - 1)
        rss0 = _maxrss_mb()
        s.start = time.perf_counter()
        try:
            yield s
        except BaseException:
            s.error = True
            raise
        finally:
            s.end = time.perf_counter()
            s.rss_growth_mb = _maxrss_mb() - rss0
            self._open.pop()

    def wrap(self, name: str, fn, counters=None):
        """fn with a span around each call; counters(args, kwargs, result) -> dict."""
        def traced(*args, **kwargs):
            with self.span(name) as s:
                out = fn(*args, **kwargs)
                if counters is not None:
                    s.counters = counters(args, kwargs, out)
                return out
        return traced

    def to_json(self) -> list[dict]:
        return [{"name": s.name, "job": s.job, "parent": s.parent,
                 "start": s.start, "end": s.end, "rss_growth_mb": s.rss_growth_mb,
                 "error": s.error, "counters": s.counters} for s in self.spans]


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        inside = [(max(lo, s.start), min(hi, s.end)) for lo, hi in children.get(i, ())]
        out.append(s.duration - _covered(inside))
    return out
