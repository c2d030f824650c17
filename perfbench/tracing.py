"""Spans recorded around the benchmark's own calls into minent.

Each public call becomes a span named ``<module>.<function>`` whose parent
is the span of the instance that made it. Spans stay in memory and are
written out once, when the run ends. With tracing off, ``call`` is a plain
function call.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    instance: str | None
    start: float
    end: float


class Tracer:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._next_id = 0
        self._open: tuple[int, str, float] | None = None

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def begin(self, instance: str) -> None:
        if self.enabled:
            self._open = (self._new_id(), instance, perf_counter())

    def end(self) -> None:
        if self.enabled and self._open is not None:
            span_id, instance, start = self._open
            self.spans.append(Span(span_id, None, "instance", instance, start, perf_counter()))
            self._open = None

    def call(self, name: str, fn: Callable[..., Any], *args: Any) -> Any:
        if not self.enabled:
            return fn(*args)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            parent, instance = (self._open[0], self._open[1]) if self._open else (None, None)
            self.spans.append(Span(self._new_id(), parent, name, instance, start, end))

    def write(self, path: Path) -> None:
        origin = min((s.start for s in self.spans), default=0.0)
        rows = [
            [s.id, s.parent, s.name, s.instance, round((s.start - origin) * 1e6, 1), round((s.end - origin) * 1e6, 1)]
            for s in self.spans
        ]
        doc = {"columns": ["id", "parent", "name", "instance", "start_us", "end_us"], "spans": rows}
        path.write_text(json.dumps(doc), encoding="utf-8")


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name: duration minus what child spans cover.

    Children of one span run one after another, so their durations add up
    to the time they cover.
    """
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += (s.end - s.start) - covered[s.id]
    return dict(out)
