#!/usr/bin/env python3
"""Validate an exported Chrome trace file (CI's observability smoke gate).

Checks the structural contract that Perfetto / ``chrome://tracing`` and
``repro.obs.export.trace_from_chrome`` both rely on:

* the document is an object with a ``traceEvents`` list;
* every event has ``name`` (str), ``ph`` (str), ``pid``/``tid`` (int);
* duration events (``"ph": "X"``) carry numeric ``ts`` and ``dur >= 0``;
* no two tile events of one place overlap: the tiles of one batched
  kernel sweep share its span out contiguously
  (:func:`repro.core.trace.split_span`), so a place's tile events tile
  its busy time;
* ``otherData.format`` is ``dpx10-trace`` with a known version;
* if a metrics snapshot rides along, every instrument entry has the
  ``kind`` / ``labelnames`` / ``values`` shape ``MetricsRegistry.merge``
  accepts;
* if a causal summary rides along (``otherData.causal``), it has the
  :func:`repro.obs.causal.causal_summary` shape: a dependency-ordered
  ``critical_path`` list, ``critical_path_fraction`` in [0, 1], and an
  ``attribution`` dict of named categories summing to ~1.

Usage: ``python scripts/check_trace_schema.py trace.json [more.json ...]``
Exits non-zero listing every violation.
"""

from __future__ import annotations

import json
import sys
from typing import List

KNOWN_PHASES = {"X", "M", "B", "E", "i", "C"}
KNOWN_KINDS = {"counter", "gauge", "histogram"}
#: microseconds two adjacent tile events may overlap by: float rounding
#: of a shared boundary, not a place in two tiles at once
OVERLAP_SLACK_US = 1e-3


def check_file(path: str) -> List[str]:
    errors: List[str] = []

    def err(msg: str) -> None:
        errors.append(f"{path}: {msg}")

    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: unreadable ({exc})"]

    if not isinstance(doc, dict):
        return [f"{path}: top level must be an object, got {type(doc).__name__}"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return [f"{path}: traceEvents must be a list"]

    tiles: dict = {}  # (pid, tid) -> [(start, end, index)] of tile events
    for k, ev in enumerate(events):
        where = f"traceEvents[{k}]"
        if not isinstance(ev, dict):
            err(f"{where}: not an object")
            continue
        if not isinstance(ev.get("name"), str):
            err(f"{where}: missing string 'name'")
        ph = ev.get("ph")
        if not isinstance(ph, str) or not ph:
            err(f"{where}: missing string 'ph'")
            continue
        if ph not in KNOWN_PHASES:
            err(f"{where}: unknown phase {ph!r}")
        for field in ("pid", "tid"):
            if not isinstance(ev.get(field), int):
                err(f"{where}: missing int {field!r}")
        if ph == "X":
            ts, dur = ev.get("ts"), ev.get("dur")
            if not isinstance(ts, (int, float)):
                err(f"{where}: X event missing numeric 'ts'")
            if not isinstance(dur, (int, float)) or dur < 0:
                err(f"{where}: X event needs 'dur' >= 0, got {dur!r}")
            elif ev.get("cat") == "tile" and isinstance(ts, (int, float)):
                tiles.setdefault((ev["pid"], ev["tid"]), []).append((ts, ts + dur, k))
    for (_pid, place), spans in sorted(tiles.items()):
        spans.sort()
        for (_s0, e0, k0), (s1, _e1, k1) in zip(spans, spans[1:]):
            if s1 < e0 - OVERLAP_SLACK_US:
                err(
                    f"traceEvents[{k1}]: tile event on place {place} starts "
                    f"before traceEvents[{k0}] ends (overlapping tiles)"
                )

    other = doc.get("otherData", {})
    if not isinstance(other, dict):
        err("otherData must be an object")
        other = {}
    if other.get("format") != "dpx10-trace":
        err(f"otherData.format must be 'dpx10-trace', got {other.get('format')!r}")
    if other.get("version") != 1:
        err(f"otherData.version must be 1, got {other.get('version')!r}")

    metrics = other.get("metrics", {})
    if not isinstance(metrics, dict):
        err("otherData.metrics must be an object")
        metrics = {}
    for name, entry in metrics.items():
        where = f"metrics[{name!r}]"
        if not isinstance(entry, dict):
            err(f"{where}: not an object")
            continue
        if entry.get("kind") not in KNOWN_KINDS:
            err(f"{where}: kind must be one of {sorted(KNOWN_KINDS)}")
        if not isinstance(entry.get("labelnames"), list):
            err(f"{where}: labelnames must be a list")
        values = entry.get("values")
        if not isinstance(values, list):
            err(f"{where}: values must be a list")
            continue
        for row in values:
            if (
                not isinstance(row, list)
                or len(row) != 2
                or not isinstance(row[0], list)
            ):
                err(f"{where}: each value row must be [label_values, value]")
                break

    if "trace_id" in other and not (
        isinstance(other["trace_id"], str) and other["trace_id"]
    ):
        err("otherData.trace_id must be a non-empty string")
    if "meta" in other and not isinstance(other["meta"], dict):
        err("otherData.meta must be an object")

    causal = other.get("causal")
    if causal is not None:
        if not isinstance(causal, dict):
            err("otherData.causal must be an object")
        else:
            cp = causal.get("critical_path")
            if not isinstance(cp, list):
                err("causal.critical_path must be a list")
            else:
                for k, step in enumerate(cp):
                    where = f"causal.critical_path[{k}]"
                    if not isinstance(step, dict):
                        err(f"{where}: not an object")
                        continue
                    for field in ("place", "start", "end"):
                        if not isinstance(step.get(field), (int, float)):
                            err(f"{where}: missing numeric {field!r}")
                    if k and isinstance(step.get("start"), (int, float)):
                        prev_end = cp[k - 1].get("end")
                        # 5ms slack: cross-process stamps are normalized
                        # via a wall-clock offset exchange, not a shared
                        # monotonic clock
                        if (
                            isinstance(prev_end, (int, float))
                            and step["start"] < prev_end - 5e-3
                        ):
                            err(
                                f"{where}: starts before its predecessor "
                                "finishes (not a dependency-respecting chain)"
                            )
            frac = causal.get("critical_path_fraction")
            if not isinstance(frac, (int, float)) or not 0.0 <= frac <= 1.0:
                err(
                    "causal.critical_path_fraction must be in [0, 1], "
                    f"got {frac!r}"
                )
            attr = causal.get("attribution")
            if not isinstance(attr, dict) or not all(
                isinstance(v, (int, float)) for v in attr.values()
            ):
                err("causal.attribution must map category -> number")
            elif attr and abs(sum(attr.values()) - 1.0) > 1e-6:
                err(
                    "causal.attribution must sum to 1.0, got "
                    f"{sum(attr.values()):.6f}"
                )
            wf = causal.get("waterfall")
            if not isinstance(wf, dict) or not isinstance(
                wf.get("places"), dict
            ):
                err("causal.waterfall must carry a places object")

    return errors


def main(argv: List[str]) -> int:
    if not argv:
        print(__doc__)
        return 2
    failures = 0
    for path in argv:
        errors = check_file(path)
        if errors:
            failures += 1
            for e in errors:
                print(f"FAIL {e}")
        else:
            with open(path, encoding="utf-8") as fh:
                n = len(json.load(fh).get("traceEvents", []))
            print(f"ok   {path}: {n} events")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
