"""Benchmark-side spans: who called which layer, when, and under what.

The ledger records spans from its *own* files, around its calls into
each layer's public functions — nothing inside ``src/repro`` is touched
(spans inside the program are a later change; see the choosing-metrics
guide, section 4). A span is ``(name, start, end, parent, solve_id)``:
spans of one solve / one HTTP job share ``solve_id``, ``parent`` is the
span that was open on the same thread when this one started. Spans stay
in memory and are written once, as Chrome trace-event JSON, when the run
ends.

A disabled recorder hands out one shared no-op context manager, so the
untraced half of a traced run (the denominator of
``bench.trace_overhead_x``) pays one attribute test per call site.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

__all__ = ["Span", "SpanRecorder"]

_NOOP = nullcontext()


@dataclass
class Span:
    span_id: int
    parent_id: Optional[int]
    solve_id: Optional[int]
    name: str
    layer: str
    thread: int
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory span sink; thread-safe for the serve workload's clients."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._open = threading.local()
        self._epoch = time.perf_counter()

    def span(self, name: str, solve_id: Optional[int] = None):
        """Context manager timing one call; the layer is ``name``'s prefix."""
        if not self.enabled:
            return _NOOP
        return self._record(name, solve_id)

    @contextmanager
    def _record(self, name: str, solve_id: Optional[int]) -> Iterator[Span]:
        stack: List[Span] = getattr(self._open, "stack", None) or []
        self._open.stack = stack
        parent = stack[-1] if stack else None
        if solve_id is None and parent is not None:
            solve_id = parent.solve_id
        sp = Span(
            span_id=next(self._ids),
            parent_id=parent.span_id if parent else None,
            solve_id=solve_id,
            name=name,
            layer=name.split(".", 1)[0],
            thread=threading.get_ident(),
            start=time.perf_counter(),
        )
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            self.spans.append(sp)  # list.append is atomic under the GIL

    def self_seconds(self) -> Dict[str, float]:
        """Per span name: total duration minus what child spans cover."""
        covered: Dict[int, float] = {}
        for sp in self.spans:
            if sp.parent_id is not None:
                covered[sp.parent_id] = covered.get(sp.parent_id, 0.0) + sp.seconds
        out: Dict[str, float] = {}
        for sp in self.spans:
            own = sp.seconds - covered.get(sp.span_id, 0.0)
            out[sp.name] = out.get(sp.name, 0.0) + own
        return out

    def write_chrome(self, path: str, other: Optional[dict] = None) -> None:
        """Write every span as a Chrome ``X`` event (open in Perfetto)."""
        threads = {t: k for k, t in enumerate(sorted({s.thread for s in self.spans}))}
        events = [
            {
                "name": sp.name,
                "cat": sp.layer,
                "ph": "X",
                "ts": round((sp.start - self._epoch) * 1e6, 1),
                "dur": round(sp.seconds * 1e6, 1),
                "pid": os.getpid(),
                "tid": threads[sp.thread],
                "args": {
                    "span_id": sp.span_id,
                    "parent_id": sp.parent_id,
                    "solve_id": sp.solve_id,
                },
            }
            for sp in sorted(self.spans, key=lambda s: s.start)
        ]
        doc = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": dict(other or {}, self_seconds=self.self_seconds()),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")
