"""In-memory span tracer that times a program's layers from the outside.

The tracer replaces module attributes with timing wrappers, so a call the
program makes through that attribute records a span: name, start, end,
the enclosing span, and the benchmark's request id.  No source file of the
program changes.  Every replaced attribute is put back when the tracer
closes, even if the traced code raised.

A span's self time is its duration minus the part of its interval that
its child spans cover, so the self times of one request's spans add up
to the duration of its root span.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int      # index of the enclosing span, -1 for a root
    trial: int       # request id set by the benchmark

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for wrapped callables; use as a context manager."""

    def __init__(self):
        self.spans: list[Span] = []
        self.trial = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, name: str) -> None:
        """Route calls through module.attr into a span called name."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def timed(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        self._saved.append((module, attr, original))
        setattr(module, attr, timed)

    def span(self, name: str) -> "_SpanContext":
        return _SpanContext(self, name)

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def write(self, path) -> None:
        """One JSON object per span, in the order the spans started."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.index = len(tr.spans)
        self.parent = tr._stack[-1] if tr._stack else -1
        # Reserve the slot now so children, which finish first, keep
        # start order in the list.
        tr.spans.append(None)
        tr._stack.append(self.index)
        self.start = time.perf_counter()

    def __exit__(self, *exc):
        end = time.perf_counter()
        tr = self.tracer
        tr._stack.pop()
        tr.spans[self.index] = Span(self.name, self.start, end,
                                    self.parent, tr.trial)


def self_times(spans: list[Span]) -> list[float]:
    """Self time of every span: its duration minus the union of its
    children's intervals, clipped to its own interval."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(span)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(i, ()), key=lambda c: c.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.duration - covered)
    return out


def layer_stats(spans: list[Span], units: int) -> dict[str, dict[str, float]]:
    """Per span name: median call ms, calls per unit and self ms per unit."""
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)
    stats = {}
    for name, idx in by_name.items():
        stats[name] = {
            "ms_p50": statistics.median(spans[i].duration for i in idx) * 1e3,
            "calls_per_trial": len(idx) / units,
            "self_ms_per_trial": sum(selfs[i] for i in idx) * 1e3 / units,
        }
    return stats
