"""In-memory spans recorded around the benchmark's calls into each layer.

A span has a name, a start, an end and the index of the span that was
open when it began (its parent).  Spans stay in a list while the run is
measured and are written out once, when it ends.  ``NULL`` has the same
surface and records nothing, so the untraced runs execute the same code.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List


class _Span:
    __slots__ = ("tracer", "name")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        parent = tracer._open[-1] if tracer._open else -1
        tracer._open.append(len(tracer.spans))
        tracer.spans.append([self.name, tracer.clock(), 0.0, parent])
        return self

    def __exit__(self, *exc):
        tracer = self.tracer
        tracer.spans[tracer._open.pop()][2] = tracer.clock()
        return False


class Tracer:
    """Records nested spans; one instance per traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        #: ``[name, start, end, parent_index]``; parent -1 is a root.
        self.spans: List[list] = []
        self._open: List[int] = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, total and self seconds.

        Spans come from one thread and nest strictly, so the children of
        a span never overlap and the part of it they cover is the sum of
        their durations.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return out

    def dump(self, path: str, meta: Dict[str, object]) -> None:
        with open(path, "w") as f:
            json.dump(
                {
                    "meta": meta,
                    "fields": ["name", "start", "end", "parent"],
                    "spans": self.spans,
                },
                f,
            )
            f.write("\n")


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class _NullTracer:
    _span = _NullSpan()

    def span(self, name: str) -> _NullSpan:
        return self._span


NULL = _NullTracer()
