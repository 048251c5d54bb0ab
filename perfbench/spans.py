"""In-memory spans recorded by the benchmark around calls into mrfcm."""
from __future__ import annotations

import contextlib
import time


class Tracer:
    """Spans with name, start, end and the index of the enclosing span.

    Spans stay in memory; the benchmark prints them when the run ends.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None,
                           "parent": parent})
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index]["end"] = time.perf_counter()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def total(self, *names: str) -> float:
        return sum((sum(self.durations(name)) for name in names), 0.0)
