"""In-memory spans recorded by the benchmark around calls into each layer.

A span's name starts with its layer (``geometry.overlap_eta``); the layer
names are atomphase's modules plus ``import`` and ``bench`` (the benchmark's
own work: spawning, checking, bookkeeping).  Spans live in a list and are
written out once, when the run ends.
"""

from __future__ import annotations

import time


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        stack = tracer._stack
        self.record = {"id": len(tracer.spans), "parent": stack[-1] if stack else None,
                       "name": name, "start": 0.0, "end": 0.0}

    def __enter__(self):
        self.tracer.spans.append(self.record)
        self.tracer._stack.append(self.record["id"])
        self.record["start"] = time.perf_counter()
        return self.record

    def __exit__(self, *exc):
        self.record["end"] = time.perf_counter()
        self.tracer._stack.pop()
        return False


class _NoSpan:
    """Stands in for a span on untraced passes."""

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


NO_SPAN = _NoSpan()


def no_span(name: str) -> _NoSpan:
    """Drop-in for Tracer.span on untraced passes."""
    return NO_SPAN


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def adopt(self, spans: list, parent: int) -> None:
        """Attach spans recorded in a child process under span `parent`.

        perf_counter is the system-wide monotonic clock on Linux, so child
        timestamps line up with the parent's.
        """
        offset = len(self.spans)
        for s in spans:
            self.spans.append(dict(s, id=s["id"] + offset,
                                   parent=parent if s["parent"] is None
                                   else s["parent"] + offset))

    def self_times(self) -> dict:
        """Seconds per layer: each span's duration minus its children's."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        totals = {}
        for s, t in zip(self.spans, own):
            layer = s["name"].split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + t
        return totals

    def durations(self, name: str) -> list:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]
