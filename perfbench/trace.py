"""In-memory spans recorded from the benchmark's own calls into each layer.

A span is ``{id, name, start, end, parent, request}``; spans of one
request share ``request``. Nothing is written until :meth:`Tracer.write`
at the end of the run. A disabled tracer records nothing, which is how
untraced runs measure the end-to-end metrics.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from perfbench.stats import self_times


class Tracer:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []

    def record(self, name: str, start: float, end: float,
               request: object = None, parent: int | None = None) -> int | None:
        """Record a span already timed by the caller; return its id."""
        if not self.enabled:
            return None
        span_id = len(self.spans)
        self.spans.append({"id": span_id, "name": name, "start": start, "end": end,
                           "parent": parent, "request": request})
        return span_id

    @contextmanager
    def span(self, name: str, request: object = None, parent: int | None = None):
        """Time the block as a span; yields its id (``None`` when
        disabled) so spans recorded inside can name it as their parent."""
        span_id = self.record(name, perf_counter(), 0.0, request, parent)
        try:
            yield span_id
        finally:
            if span_id is not None:
                self.spans[span_id]["end"] = perf_counter()

    def self_time_by_name(self) -> dict[str, list[float]]:
        """Self time (seconds) of every span, grouped by span name."""
        own = self_times(self.spans)
        grouped: dict[str, list[float]] = {}
        for span in self.spans:
            grouped.setdefault(span["name"], []).append(own[span["id"]])
        return grouped

    def write(self, path: Path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
