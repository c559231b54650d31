"""Execution tracing: per-vertex timeline plus phase-level spans.

Enable with ``DPX10Config(trace=True)``; the runtime then records one
:class:`TraceEvent` per ``compute()`` invocation (coordinates, home and
execution place, wall-clock start/end). :class:`ExecutionTrace` offers the
analyses a performance engineer reaches for first: per-place utilization,
a completion-rate profile (the wavefront breathing in and out), and an
ASCII Gantt rendering.

On top of the per-vertex/tile events sits a **span layer**: coarse
:class:`Span` intervals for the runtime's phases (partition, schedule,
execute, recovery) recorded via :meth:`ExecutionTrace.phase`.
Spans live in their own list — ``len(trace)`` and ``trace.events`` keep
their historical meaning — and ride along into the Chrome-trace / JSONL
exporters (:mod:`repro.obs.export`).

Tracing costs two ``perf_counter`` calls and one append per vertex — keep
it off for benchmarking runs.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
import uuid
from collections import deque
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

__all__ = ["TraceEvent", "Span", "ExecutionTrace", "paced", "phase_span", "split_span"]


def paced(pace, ncells: int, trace: Optional["ExecutionTrace"], place: int = -1) -> None:
    """Pass the serving layer's fairness gate for ``ncells`` cells: ``pace``
    may block until the weighted-fair scheduler grants the turn. A wait
    past a microsecond (shorter grants are uncontended, not a stall) is
    traced as a ``pace wait`` span at ``place``."""
    t0 = trace.now() if trace is not None else 0.0
    pace(ncells)
    if trace is not None and (t1 := trace.now()) - t0 > 1e-6:
        trace.record_span(Span("pace wait", t0, t1, category="pace", place=place))


def phase_span(trace: Optional["ExecutionTrace"], name: str, category: str = "phase"):
    """``trace.phase(name, category)``, or a no-op on an untraced run."""
    return trace.phase(name, category) if trace is not None else nullcontext()


def split_span(t0: float, t1: float, cells) -> List[Tuple[float, float]]:
    """``[t0, t1)`` split contiguously between a batch's tiles by weight
    (cells): tiles of one sweep have no times of their own, and a place's
    events must still tile its busy time without overlap."""
    per_cell = (t1 - t0) / (sum(cells) or 1)
    bounds = [t0 + c * per_cell for c in itertools.accumulate(cells, initial=0)]
    return list(zip(bounds, bounds[1:]))


@dataclass(frozen=True)
class TraceEvent:
    """One ``compute()`` invocation — or one whole tile under the tiled engine.

    Per-vertex execution records one event per cell with ``tile=None``.
    The tiled engine (``DPX10Config(tile_shape=...)``) records one event
    per *tile*: ``(i, j)`` is the tile's origin cell, ``cells`` the number
    of cells it computed, and ``tile`` the tile's ``(ti, tj)`` grid
    coordinate — so the Gantt/utilization analyses keep working unchanged
    while per-tile attribution stays available.
    """

    i: int
    j: int
    home_place: int
    exec_place: int
    start: float
    end: float
    #: tile grid coordinate when the event covers a whole tile
    tile: Optional[Tuple[int, int]] = None
    #: cells computed by this event (1 for per-vertex events)
    cells: int = 1

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Span:
    """One phase-level interval (coarser than a vertex/tile event).

    ``place`` is the place the phase ran at, or ``-1`` for runtime-global
    phases (partition, schedule, recovery). ``category`` groups spans for
    the exporters: ``"phase"`` for run stages, ``"halo"`` for tile halo
    fetches, ``"recovery"`` for rebuild passes, ``"pace"`` for pacer
    stalls, ``"serve"`` for job-server stages.

    Trace context (PR 8): ``span_id`` identifies the span inside its
    trace, ``parent_id`` is the enclosing span's id (``None`` for roots),
    and ``pid`` is the OS process that recorded it — ``0`` for the master
    process, a worker pid for mp worker-side spans. All three default so
    pre-causal constructors and serialized traces keep working.
    """

    name: str
    start: float
    end: float
    category: str = "phase"
    place: int = -1
    span_id: Optional[str] = None
    parent_id: Optional[str] = None
    pid: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class ExecutionTrace:
    """Thread-safe event sink plus post-run analyses.

    Every trace carries a ``trace_id`` (propagated through the serve
    layer and the mp init envelopes), an ``epoch0`` wall-clock anchor
    (``time.time()`` at the instant ``now()`` read 0) so two traces can
    be merged onto one timeline, and a free-form ``meta`` dict the
    runtime fills with tiling facts (``tile_shape``, ``tile_offsets``,
    ``grid``) that :mod:`repro.obs.causal` needs to rebuild dependency
    edges post-mortem.
    """

    def __init__(self, trace_id: Optional[str] = None, max_spans: Optional[int] = None) -> None:
        self._events: List[TraceEvent] = []
        #: at most ``max_spans`` spans (None: unbounded), oldest dropped first
        self._spans: Deque[Span] = deque(maxlen=max_spans)
        self._lock = threading.Lock()
        self._t0 = time.perf_counter()
        self.trace_id: str = trace_id or uuid.uuid4().hex
        self.epoch0: float = time.time() - self.now()
        self.meta: Dict[str, object] = {}
        self._span_seq = itertools.count(1)
        self._span_stack = threading.local()

    def set_dependency_meta(self, dag, tiled=None) -> None:
        """Stash the dependency facts repro.obs.causal rebuilds edges from.

        ``tiled`` is the coarsened DAG when the events are per tile; the
        cell-level offsets serve per-cell events.
        """
        if tiled is not None:
            self.meta["tile_shape"] = [tiled.grid.tile_h, tiled.grid.tile_w]
            self.meta["grid"] = [tiled.grid.nti, tiled.grid.ntj]
            if tiled.stencil_mode:
                self.meta["tile_offsets"] = [list(o) for o in tiled.tile_offsets]
        else:
            offs = getattr(dag, "offsets", None)
            if offs:
                self.meta["offsets"] = [list(o) for o in offs]

    # -- recording ---------------------------------------------------------------
    def now(self) -> float:
        """Seconds since the trace began."""
        return time.perf_counter() - self._t0

    def record(self, event: TraceEvent) -> None:
        with self._lock:
            self._events.append(event)

    def record_span(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    def next_span_id(self) -> str:
        """A process-unique span id, cheap and deterministic per trace."""
        return f"s{next(self._span_seq)}"

    def current_span_id(self) -> Optional[str]:
        """Id of the innermost open :meth:`phase` span on this thread."""
        stack = getattr(self._span_stack, "ids", None)
        return stack[-1] if stack else None

    @contextmanager
    def phase(self, name: str, category: str = "phase", place: int = -1):
        """Record the ``with`` body as one :class:`Span`.

        Nested ``phase`` blocks on the same thread are linked through
        ``span_id``/``parent_id`` so the causal layer can rebuild the
        blocking tree:

        >>> t = ExecutionTrace()
        >>> with t.phase("partition"):
        ...     pass
        >>> [s.name for s in t.spans]
        ['partition']
        >>> with t.phase("execute"):
        ...     with t.phase("halo fetch", category="halo"):
        ...         pass
        >>> halo = [s for s in t.spans if s.category == "halo"][0]
        >>> execute = [s for s in t.spans if s.name == "execute"][0]
        >>> halo.parent_id == execute.span_id
        True
        """
        start = self.now()
        span_id = self.next_span_id()
        parent_id = self.current_span_id()
        stack = getattr(self._span_stack, "ids", None)
        if stack is None:
            stack = []
            self._span_stack.ids = stack
        stack.append(span_id)
        try:
            yield self
        finally:
            stack.pop()
            self.record_span(
                Span(name, start, self.now(), category, place,
                     span_id=span_id, parent_id=parent_id)
            )

    # -- access ------------------------------------------------------------------
    @property
    def events(self) -> List[TraceEvent]:
        with self._lock:
            return list(self._events)

    @property
    def spans(self) -> List[Span]:
        with self._lock:
            return list(self._spans)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    @property
    def span(self) -> float:
        """Wall-clock from the first start to the last end."""
        events = self.events
        if not events:
            return 0.0
        return max(e.end for e in events) - min(e.start for e in events)

    def tile_events(self) -> List[TraceEvent]:
        """Only the events recorded at tile granularity (tiled engine runs)."""
        return [e for e in self.events if e.tile is not None]

    # -- analyses -----------------------------------------------------------------
    def utilization(self) -> Dict[int, float]:
        """Busy-time fraction per execution place over the trace span.

        The span is first-start to last-end; each place's busy time is the
        sum of its event durations, capped at 1.0:

        >>> t = ExecutionTrace()
        >>> t.record(TraceEvent(0, 0, 0, 0, start=0.0, end=1.0))
        >>> t.record(TraceEvent(0, 1, 1, 1, start=0.0, end=0.5))
        >>> t.utilization()
        {0: 1.0, 1: 0.5}
        """
        events = self.events
        span = self.span
        if not events or span == 0:
            return {}
        busy: Dict[int, float] = {}
        for e in events:
            busy[e.exec_place] = busy.get(e.exec_place, 0.0) + e.duration
        return {p: min(1.0, b / span) for p, b in sorted(busy.items())}

    def completion_profile(self, buckets: int = 20) -> List[int]:
        """Completions per equal time bucket — the wavefront's width over time."""
        events = self.events
        if not events or buckets < 1:
            return [0] * max(buckets, 0)
        start = min(e.start for e in events)
        span = self.span or 1e-12
        out = [0] * buckets
        for e in events:
            k = min(buckets - 1, int((e.end - start) / span * buckets))
            out[k] += 1
        return out

    def executed_per_place(self) -> Dict[int, int]:
        counts: Dict[int, int] = {}
        for e in self.events:
            counts[e.exec_place] = counts.get(e.exec_place, 0) + 1
        return dict(sorted(counts.items()))

    def phase_totals(self) -> Dict[str, float]:
        """Total seconds per span name (empty when no spans recorded)."""
        totals: Dict[str, float] = {}
        for s in self.spans:
            totals[s.name] = totals.get(s.name, 0.0) + s.duration
        return dict(sorted(totals.items()))

    def render_gantt(self, width: int = 60) -> str:
        """ASCII activity chart: one row per place, '#' where busy."""
        events = self.events
        if not events:
            return "(empty trace)"
        t0 = min(e.start for e in events)
        span = self.span or 1e-12
        places = sorted({e.exec_place for e in events})
        rows = []
        for p in places:
            cells = [" "] * width
            for e in events:
                if e.exec_place != p:
                    continue
                # column k covers scaled time [k, k+1): paint the columns
                # the half-open interval [start, end) overlaps. An event
                # ending exactly on a column boundary must not bleed into
                # the next column (zero-duration events still paint one).
                a = int((e.start - t0) / span * width)
                b = math.ceil((e.end - t0) / span * width) - 1
                for k in range(max(0, a), min(width, max(b, a) + 1)):
                    cells[k] = "#"
            rows.append(f"place {p:3d} |{''.join(cells)}|")
        header = f"{'':9s} +{'-' * width}+  span={span * 1e3:.1f}ms"
        return "\n".join([header] + rows)
