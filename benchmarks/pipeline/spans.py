"""In-memory span recorder for the traced run of the pipeline benchmark.

Spans are recorded from the benchmark's own code, around its calls into
each layer's public functions (outside-in): nothing inside ``repro`` is
instrumented.  A span is ``(name, start_ns, end_ns, id, parent,
workload)``; spans nest by call order, so a span's parent is the span
that was open when it started.  They are kept in memory and written out
once, when the benchmark ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class SpanRecorder:
    """Collects nested spans for one workload.

    ``offset`` is added to every span id, so recorders from several
    processes can be merged into one ``spans.json`` without id clashes.
    """

    def __init__(self, workload: str, offset: int = 0):
        self.workload = workload
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self._next = offset + 1

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """Time the ``with`` body as one span; yields the span's id."""
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield sid
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append({"name": name, "start_ns": start,
                               "end_ns": end, "id": sid, "parent": parent,
                               "workload": self.workload})

    def add(self, name: str, start_ns: int, end_ns: int,
            parent: Optional[int] = None) -> int:
        """Record a span measured elsewhere (e.g. a wait on another
        process); returns its id."""
        sid = self._next
        self._next += 1
        self.spans.append({"name": name, "start_ns": start_ns,
                           "end_ns": end_ns, "id": sid, "parent": parent,
                           "workload": self.workload})
        return sid


def seconds(spans: List[dict], name: str) -> float:
    """Total duration of every span called ``name``, in seconds."""
    return sum(s["end_ns"] - s["start_ns"]
               for s in spans if s["name"] == name) / 1e9


def self_times(spans: List[dict], root: int) -> Dict[str, float]:
    """Self time in seconds per span name, over the subtree of ``root``.

    A span's self time is its duration minus the time its child spans
    cover (children of one span never overlap: they run one after the
    other).  The root's own self time is left out, so the rows sum to
    the time the named layers account for.
    """
    children: Dict[Optional[int], List[dict]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out: Dict[str, float] = {}
    todo = list(children.get(root, ()))
    while todo:
        s = todo.pop()
        kids = children.get(s["id"], ())
        covered = sum(k["end_ns"] - k["start_ns"] for k in kids)
        own = (s["end_ns"] - s["start_ns"] - covered) / 1e9
        out[s["name"]] = out.get(s["name"], 0.0) + own
        todo.extend(kids)
    return out
