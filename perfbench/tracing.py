"""In-memory spans and counts for the traced run.

A span records its name, start, end, parent span and the chain step it
belongs to; spans of one step share that step's id.  Spans stay in
memory and are written out with the report when the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    step: int | None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._step: int | None = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, self._step))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    @contextmanager
    def step(self, name: str):
        """Top-level span for one chain step; its id tags every span inside."""
        previous, self._step = self._step, len(self.spans)
        try:
            with self.span(f"step.{name}"):
                yield
        finally:
            self._step = previous

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its child spans cover."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        totals: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            totals[s.name] += s.end - s.start - child_time[i]
        return dict(totals)

    def layer_time_by_step(self) -> dict[str, float]:
        """Per step name: total time of the spans directly under the step span."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None and s.parent == s.step:
                out[self.spans[s.step].name.removeprefix("step.")] += s.end - s.start
        return dict(out)

    def as_records(self) -> list[dict]:
        origin = self.spans[0].start if self.spans else 0.0
        return [{"name": s.name, "start": s.start - origin, "end": s.end - origin,
                 "parent": s.parent, "step": s.step} for s in self.spans]
