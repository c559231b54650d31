"""``repro.obs`` — the unified observability layer.

One coherent stack replaces the ad-hoc stat fields that used to be
scattered across the runtime:

* :mod:`repro.obs.metrics` — the process-wide **metrics registry**
  (counters, gauges, histograms with labels; no-op singletons when
  disabled; picklable snapshots that merge across processes);
* the **span layer** in :mod:`repro.core.trace` — phase-level intervals
  (partition, schedule, execute, recovery) recorded alongside
  per-vertex/tile events;
* :mod:`repro.obs.export` — Chrome trace-event JSON (Perfetto /
  ``chrome://tracing``), JSONL event streams, Prometheus text exposition;
* :mod:`repro.obs.dashboard` — the live terminal dashboard and the
  post-mortem summary renderer behind ``python -m repro obs``;
* :mod:`repro.obs.causal` — **causal analysis**: latency waterfall,
  weighted critical path, per-category attribution, straggler detection
  (``python -m repro obs explain`` / ``obs diff``).

Opt in per run with ``DPX10Config(metrics=True, trace=True)``; the run
report then carries ``report.metrics`` (a snapshot) next to
``report.trace``. See ``docs/OBSERVABILITY.md`` for the instrument
catalogue and overhead budget.
"""

from repro.obs.causal import (
    StragglerDetector,
    attribution,
    causal_summary,
    critical_path,
    critical_path_fraction,
    detect_stragglers,
    diff_text,
    explain_text,
    waterfall,
)
from repro.obs.dashboard import LiveDashboard, summary_text
from repro.obs.export import (
    chrome_trace,
    load_chrome_trace,
    read_jsonl,
    trace_from_chrome,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import (
    MetricsRegistry,
    NULL_REGISTRY,
    merge_snapshots,
    render_prometheus,
)

__all__ = [
    "MetricsRegistry",
    "NULL_REGISTRY",
    "merge_snapshots",
    "render_prometheus",
    "chrome_trace",
    "write_chrome_trace",
    "load_chrome_trace",
    "trace_from_chrome",
    "write_jsonl",
    "read_jsonl",
    "LiveDashboard",
    "summary_text",
    "causal_summary",
    "critical_path",
    "critical_path_fraction",
    "waterfall",
    "attribution",
    "detect_stragglers",
    "StragglerDetector",
    "explain_text",
    "diff_text",
]
