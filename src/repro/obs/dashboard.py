"""Run dashboards: a live-refreshing terminal view and post-mortem summaries.

:class:`LiveDashboard` polls a :class:`~repro.obs.metrics.MetricsRegistry`
on a background thread while a run executes and redraws a compact panel —
progress, wavefront rate, per-place work bars, cache hit rate, network
volume. It is pull-only: the workers never wait on the dashboard, and a
run without one pays nothing.

:func:`summary_text` renders the same quantities post-mortem from an
exported trace + metrics snapshot (``python -m repro obs summary``), and
is deliberately computed from the *exported* data only — if the summary
matches the live ``RunReport``, the export pipeline is faithful.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Dict, Optional, TextIO

from repro.core.trace import ExecutionTrace
from repro.obs.metrics import MetricsRegistry, by_label, scalar

__all__ = ["LiveDashboard", "summary_text", "bar"]


def bar(fraction: float, width: int = 24) -> str:
    """An ASCII bar: ``bar(0.5, 8)`` -> ``'####....'``."""
    fraction = max(0.0, min(1.0, fraction))
    filled = round(fraction * width)
    return "#" * filled + "." * (width - filled)


def _fmt_bytes(n: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024 or unit == "GiB":
            return f"{n:.0f}{unit}" if unit == "B" else f"{n:.1f}{unit}"
        n /= 1024
    return f"{n:.1f}GiB"  # pragma: no cover - unreachable


def render_panel(
    snapshot: Dict[str, dict],
    *,
    completions_per_s: float = 0.0,
    width: int = 24,
) -> str:
    """Render one dashboard frame from a metrics snapshot."""
    done = scalar(snapshot, "dpx10_completions_total")
    total = scalar(snapshot, "dpx10_vertices_active")
    hits = scalar(snapshot, "dpx10_cache_hits_total")
    misses = scalar(snapshot, "dpx10_cache_misses_total")
    lookups = hits + misses
    executed = by_label(snapshot, "dpx10_vertices_computed_total", "place")
    lines = []
    frac = done / total if total else 0.0
    lines.append(
        f"progress  |{bar(frac, width)}| {int(done)}/{int(total)} "
        f"({frac:6.1%})  {completions_per_s:,.0f} cells/s"
    )
    peak = max(executed.values(), default=0) or 1
    for place in sorted(executed, key=int):
        n = executed[place]
        lines.append(f"place {int(place):3d} |{bar(n / peak, width)}| {int(n)} executed")
    lines.append(
        f"cache     |{bar(hits / lookups if lookups else 0.0, width)}| "
        f"{hits / lookups if lookups else 0.0:6.1%} hit rate "
        f"({int(hits)}/{int(lookups)})"
    )
    lines.append(
        f"network   {int(scalar(snapshot, 'dpx10_net_messages_total'))} msgs, "
        f"{_fmt_bytes(scalar(snapshot, 'dpx10_net_bytes_total'))}"
        + (
            f"   recoveries: {int(scalar(snapshot, 'dpx10_recoveries_total'))}"
            if scalar(snapshot, "dpx10_recoveries_total")
            else ""
        )
    )
    stragglers = {
        place: ratio
        for place, ratio in by_label(snapshot, "dpx10_straggler", "place").items()
        if ratio > 0
    }
    if stragglers:
        worst = ", ".join(
            f"place {int(p)} at {r:.1f}x median"
            for p, r in sorted(stragglers.items(), key=lambda kv: -kv[1])
        )
        lines.append(f"ALERT     stragglers: {worst}")
    return "\n".join(lines)


class LiveDashboard:
    """Background refresher that redraws :func:`render_panel` in place.

    >>> from repro.obs.metrics import MetricsRegistry
    >>> import io
    >>> reg = MetricsRegistry()
    >>> dash = LiveDashboard(reg, stream=io.StringIO(), interval=0.01)
    >>> with dash:
    ...     pass
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        stream: Optional[TextIO] = None,
        interval: float = 0.25,
        width: int = 24,
        ansi: Optional[bool] = None,
    ) -> None:
        self.registry = registry
        self.stream = stream if stream is not None else sys.stderr
        self.interval = interval
        self.width = width
        if ansi is None:
            ansi = bool(getattr(self.stream, "isatty", lambda: False)())
        self.ansi = ansi
        self.frames = 0
        self._prev_done = 0.0
        self._prev_t = time.perf_counter()
        self._last_lines = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------------------
    def start(self) -> "LiveDashboard":
        self._thread = threading.Thread(
            target=self._loop, name="obs-dashboard", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.refresh()  # final frame with the run's closing numbers

    def __enter__(self) -> "LiveDashboard":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- drawing --------------------------------------------------------------------
    def refresh(self) -> None:
        snapshot = self.registry.collect()
        now = time.perf_counter()
        done = scalar(snapshot, "dpx10_completions_total")
        dt = now - self._prev_t
        rate = (done - self._prev_done) / dt if dt > 0 else 0.0
        self._prev_done, self._prev_t = done, now
        panel = render_panel(snapshot, completions_per_s=rate, width=self.width)
        if self.ansi and self._last_lines:
            # move the cursor up over the previous frame and repaint
            self.stream.write(f"\x1b[{self._last_lines}F\x1b[J")
        self.stream.write(panel + "\n")
        try:
            self.stream.flush()
        except (OSError, ValueError):  # pragma: no cover - closed stream at exit
            pass
        self._last_lines = panel.count("\n") + 1
        self.frames += 1

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.refresh()


def summary_text(
    trace: ExecutionTrace,
    metrics: Optional[Dict[str, dict]] = None,
    gantt_width: int = 60,
    buckets: int = 24,
) -> str:
    """Post-mortem digest of an exported run (trace + metrics snapshot)."""
    metrics = metrics or {}
    lines = ["== run summary =="]
    events = trace.events
    cells = sum(e.cells for e in events)
    lines.append(
        f"events: {len(events)} ({cells} cells), span {trace.span * 1e3:.1f}ms"
    )

    util = trace.utilization()
    if util:
        lines.append("per-place utilization (busy-time fraction of span):")
        for place, frac in util.items():
            lines.append(f"  place {place:3d} |{bar(frac)}| {frac:6.1%}")

    hits = scalar(metrics, "dpx10_cache_hits_total")
    misses = scalar(metrics, "dpx10_cache_misses_total")
    lookups = hits + misses
    if lookups:
        lines.append(
            f"cache: {int(hits)} hits / {int(misses)} misses "
            f"({hits / lookups:.1%} hit rate)"
        )
    msgs = scalar(metrics, "dpx10_net_messages_total")
    if msgs:
        lines.append(
            f"network: {int(msgs)} messages, "
            f"{_fmt_bytes(scalar(metrics, 'dpx10_net_bytes_total'))}"
        )
    recoveries = scalar(metrics, "dpx10_recoveries_total")
    if recoveries:
        lines.append(f"recoveries: {int(recoveries)}")

    totals = trace.phase_totals()
    if totals:
        lines.append("phase totals:")
        peak = max(totals.values()) or 1.0
        for name, seconds in sorted(totals.items(), key=lambda kv: -kv[1]):
            lines.append(
                f"  {name:<16s} |{bar(seconds / peak)}| {seconds * 1e3:8.2f}ms"
            )

    profile = trace.completion_profile(buckets=buckets)
    if any(profile):
        peak = max(profile)
        spark = "".join(
            " .:-=+*#%@"[min(9, int(n / peak * 9))] if peak else " "
            for n in profile
        )
        lines.append(f"wavefront |{spark}| peak {peak} completions/bucket")

    if events:
        lines.append("")
        lines.append(trace.render_gantt(width=gantt_width))
    return "\n".join(lines)
