"""Span recorder for the benchmark's traced runs.

A span covers one call the benchmark makes into a jetforge module. Its name
is "<layer>.<what>", where the layer is the module called. Spans nest: the
innermost open span is the parent of a new one. Every span carries the id of
the run it belongs to, one set-up ("setup<i>") or one request
("request<j>"). Counts are recorded at the same boundaries, per run.

Spans are kept in memory and written out once, when the benchmark ends. With
tracing off, `span` and `count` record nothing.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the parent span in Tracer.spans, -1 for a root
    run: str

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.counts: dict[tuple[str, str], float] = {}
        self.run = ""
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        span = Span(name, time.perf_counter(), 0.0, parent, self.run)
        self.spans.append(span)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def count(self, name: str, n: float = 1) -> None:
        if self.enabled:
            key = (self.run, name)
            self.counts[key] = self.counts.get(key, 0) + n

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, **asdict(s)}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its
    children cover. Children are clipped to the parent's interval and
    overlapping children are counted once."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(i, []), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def per_run_totals(spans: list[Span], values: list[float], key) -> dict[str, dict[str, float]]:
    """{key(span): {run id: sum of values over that run's spans}}."""
    out: dict[str, dict[str, float]] = {}
    for s, v in zip(spans, values):
        runs = out.setdefault(key(s), {})
        runs[s.run] = runs.get(s.run, 0.0) + v
    return out


def median_over(runs: dict[str, float], prefix: str, names: list[str]) -> float:
    """Median over the runs whose id starts with `prefix` (a run that
    recorded nothing for this key counts as 0)."""
    ids = [r for r in names if r.startswith(prefix)]
    if not ids:
        return 0.0
    return statistics.median(runs.get(r, 0.0) for r in ids)


def span_cost_s(samples: int = 2000) -> float:
    """Measured cost of opening and closing one span on this machine."""
    probe = Tracer(enabled=True)
    t0 = time.perf_counter()
    for _ in range(samples):
        with probe.span("probe.empty"):
            pass
    return (time.perf_counter() - t0) / samples
