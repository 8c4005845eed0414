"""In-memory span recorder for the benchmark's traced runs.

A span is one timed call into a layer: its name, start and end on the
``time.perf_counter`` clock, the span that was open when it began, and the
id of the benchmark operation it belongs to.  Counts (steps, MZIs, paths,
bytes) are attached to the span whose call produced them.  Spans stay in
memory until the run ends; nothing is written while timing.

``NULL`` is the tracer of the untraced runs: the same ``span`` calls, but
nothing is recorded and no clock is read.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator


@dataclass
class Span:
    name: str
    op: object
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)

    def count(self, metric: str, value: int) -> None:
        self.counts[metric] = self.counts.get(metric, 0) + value


class Tracer:
    on = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.maxima: dict[str, float] = {}
        self.op: object = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = Span(name, self.op, self._open[-1] if self._open else None, time.perf_counter())
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def peak(self, metric: str, value: float) -> None:
        self.maxima[metric] = max(value, self.maxima.get(metric, value))

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover.

        Children run one after another inside their parent, so the covered
        time is the sum of their durations.
        """
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def totals(self) -> dict[str, float]:
        """Self time per span name (as ``<name>_s``), summed counts, maxima."""
        out: dict[str, float] = {}
        for span, own in zip(self.spans, self.self_times()):
            out[span.name + "_s"] = out.get(span.name + "_s", 0.0) + own
            for metric, value in span.counts.items():
                out[metric] = out.get(metric, 0) + value
        out.update(self.maxima)
        return out


class _NullSpan:
    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def count(self, metric: str, value: int) -> None:
        pass


class _NullTracer:
    on = False
    _span = _NullSpan()

    def span(self, name: str) -> _NullSpan:
        return self._span

    def peak(self, metric: str, value: float) -> None:
        pass


NULL = _NullTracer()
