"""In-memory span log for the traced ladder rep.

Spans are recorded from the benchmark's side, around public calls into
each layer; nothing here touches the program.  A span is ``(id, parent,
name, start, end)`` on the ``perf_counter`` clock; every span of one
(workload, seed, rep) shares ``trace_id``.  Calls too numerous to keep as
objects (a strict run makes ~500k ``Component.advance`` calls) are folded
into per-name *aggregates* under their parent span: call count, total
seconds, and how many calls executed zero events.  A parent's self time
is its duration minus its child spans and aggregates.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, List, Optional


class SpanLog:
    """Spans and aggregates of one traced rep, written out at exit."""

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.spans: List[dict] = []
        self.aggregates: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, start: Optional[float] = None):
        """Record ``name`` as a child of the innermost open span."""
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": perf_counter() if start is None else start,
               "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = perf_counter()

    def aggregate(self, name: str) -> dict:
        """A call-count/total-seconds bucket under the innermost open span;
        the caller increments it."""
        rec = {"name": name, "parent": self._stack[-1],
               "count": 0, "total_s": 0.0, "zero_event_count": 0}
        self.aggregates.append(rec)
        return rec

    def duration(self, name: str) -> float:
        s = next(s for s in self.spans if s["name"] == name)
        return s["end"] - s["start"]

    def dump(self, path: str, extra: Dict) -> None:
        doc = {"trace_id": self.trace_id, "clock": "perf_counter_s",
               "spans": self.spans, "aggregates": self.aggregates, **extra}
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
