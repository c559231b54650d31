"""Process-wide metrics registry: counters, gauges and histograms.

The runtime's accounting used to be scattered over ad-hoc fields
(``RunReport.cache_hits``, ``NetworkStats.bytes``, per-cache counters);
this module gives every quantity one name in one schema:

* **Counter** — a monotone total (``dpx10_cache_hits_total``);
* **Gauge** — a point-in-time value (``dpx10_places_alive``);
* **Histogram** — a distribution over fixed buckets
  (``dpx10_recovery_seconds``, ``dpx10_halo_fetch_bytes``).

Instruments are grouped into label **families**: ``registry.counter(
"dpx10_cache_hits_total", labelnames=("place",)).labels(place=0).inc()``.
A family with no label names acts as its own single child.

Three properties drive the design:

* **Near-zero cost when disabled.** ``MetricsRegistry(enabled=False)``
  (and the shared :data:`NULL_REGISTRY`) hands out the same no-op
  singletons for every instrument request — no allocation, no branches on
  the hot path beyond one cheap method call.
* **Pull-based collection.** Components that already keep tight local
  counters (the FIFO cache, the network model) are *scraped* by collector
  callbacks at :meth:`MetricsRegistry.collect` time instead of paying an
  extra write per event.
* **Mergeable snapshots.** ``collect()`` returns a plain picklable dict;
  :meth:`MetricsRegistry.merge` folds one into another (counters add,
  gauges take the incoming value, histograms add bucket-wise) — the mp
  engine ships worker-process snapshots back over the reply channel and
  merges them into the master registry.

Export formats live next door: Prometheus text exposition here
(:func:`render_prometheus`), Chrome trace / JSONL in
:mod:`repro.obs.export`.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Family",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "DEFAULT_SECONDS_BUCKETS",
    "DEFAULT_BYTES_BUCKETS",
    "render_prometheus",
    "merge_snapshots",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: latency-flavoured default buckets (seconds), recovery to full runs
DEFAULT_SECONDS_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)
#: transfer-size default buckets (bytes), one value to a large halo strip
DEFAULT_BYTES_BUCKETS = (
    64, 256, 1024, 4096, 16384, 65536, 262144, 1048576,
)


class Counter:
    """A monotone total. One child of a counter family."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount

    def set(self, value: int | float) -> None:
        """Overwrite the total — for pull-time collectors that scrape an
        authoritative component counter, not for instrumented code."""
        self.value = value


class Gauge:
    """A point-in-time value. One child of a gauge family."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0

    def set(self, value: int | float) -> None:
        self.value = value

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount


class Histogram:
    """A distribution over fixed upper-bound buckets (Prometheus ``le``
    semantics: an observation equal to a bound lands in that bound's
    bucket; anything above the last bound lands in the +Inf bucket)."""

    __slots__ = ("bounds", "counts", "sum", "count")
    kind = "histogram"

    def __init__(self, bounds: Sequence[float] = DEFAULT_SECONDS_BUCKETS) -> None:
        self.bounds: Tuple[float, ...] = tuple(sorted(bounds))
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    @property
    def value(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }


class _NullInstrument:
    """Shared no-op stand-in for every instrument and family when the
    registry is disabled. All mutators do nothing; ``labels`` returns the
    same singleton, so the disabled hot path allocates nothing."""

    __slots__ = ()
    kind = "null"
    value = 0

    def inc(self, amount: int | float = 1) -> None:
        pass

    def set(self, value: int | float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def labels(self, *values, **kv) -> "_NullInstrument":
        return self


NULL_INSTRUMENT = _NullInstrument()

_FACTORIES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class Family:
    """All children (label combinations) of one named instrument.

    A family with empty ``labelnames`` has exactly one child (key ``()``),
    and the family proxies ``inc``/``set``/``observe`` straight to it so
    unlabelled instruments read naturally.
    """

    __slots__ = ("name", "help", "kind", "labelnames", "_children", "_kwargs", "_lock")

    def __init__(
        self,
        name: str,
        help: str,
        kind: str,
        labelnames: Sequence[str] = (),
        **kwargs,
    ) -> None:
        self.name = name
        self.help = help
        self.kind = kind
        self.labelnames = tuple(labelnames)
        self._children: Dict[Tuple[str, ...], object] = {}
        self._kwargs = kwargs
        self._lock = threading.Lock()
        if not self.labelnames:
            self._children[()] = _FACTORIES[kind](**kwargs)

    def labels(self, *values, **kv):
        """The child for one label combination, created on first use.

        Accepts positional values in ``labelnames`` order or keywords:
        ``fam.labels(place=3)`` and ``fam.labels(3)`` are the same child.
        """
        if kv:
            if values:
                raise ValueError("pass label values positionally or by name, not both")
            values = tuple(kv[n] for n in self.labelnames)
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name} takes labels {self.labelnames}, got {values!r}"
            )
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(key, _FACTORIES[self.kind](**self._kwargs))
        return child

    # unlabelled convenience: the family is its own single child
    def inc(self, amount: int | float = 1) -> None:
        self.labels().inc(amount)

    def set(self, value: int | float) -> None:
        self.labels().set(value)

    def observe(self, value: float) -> None:
        self.labels().observe(value)

    @property
    def value(self):
        return self.labels().value

    def items(self) -> List[Tuple[Tuple[str, ...], object]]:
        with self._lock:
            return sorted(self._children.items())


class MetricsRegistry:
    """Named instruments plus pull-time collectors, with one snapshot/merge
    schema shared across processes.

    >>> reg = MetricsRegistry()
    >>> hits = reg.counter("cache_hits_total", "hits", labelnames=("place",))
    >>> hits.labels(place=0).inc(3)
    >>> reg.collect()["cache_hits_total"]["values"]
    [[['0'], 3]]
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._families: Dict[str, Family] = {}
        self._collectors: List[Callable[["MetricsRegistry"], None]] = []
        self._lock = threading.Lock()

    # -- instrument creation (idempotent by name) ---------------------------------
    def _family(self, name: str, help: str, kind: str, labelnames, **kwargs):
        if not self.enabled:
            return NULL_INSTRUMENT
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        fam = self._families.get(name)
        if fam is None:
            with self._lock:
                fam = self._families.get(name)
                if fam is None:
                    fam = Family(name, help, kind, labelnames, **kwargs)
                    self._families[name] = fam
        if fam.kind != kind or fam.labelnames != tuple(labelnames):
            raise ValueError(
                f"metric {name!r} already registered as {fam.kind} with "
                f"labels {fam.labelnames}"
            )
        return fam

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()):
        return self._family(name, help, "counter", labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()):
        return self._family(name, help, "gauge", labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_SECONDS_BUCKETS,
    ):
        return self._family(name, help, "histogram", labelnames, bounds=buckets)

    # -- pull-time collectors -------------------------------------------------------
    def register_collector(self, fn: Callable[["MetricsRegistry"], None]) -> None:
        """Register a callback run at every :meth:`collect` to scrape live
        component state into instruments (no per-event write cost)."""
        if self.enabled:
            with self._lock:
                self._collectors.append(fn)

    # -- snapshot / merge / render ----------------------------------------------------
    def collect(self) -> Dict[str, dict]:
        """Run the collectors and return a plain-dict snapshot.

        Shape: ``{name: {"kind", "help", "labelnames", "values":
        [[label_values, value], ...]}}`` where a histogram's value is its
        ``{"bounds", "counts", "sum", "count"}`` dict. JSON- and
        pickle-safe.
        """
        if not self.enabled:
            return {}
        with self._lock:
            collectors = list(self._collectors)
        for fn in collectors:
            fn(self)
        out: Dict[str, dict] = {}
        with self._lock:
            families = sorted(self._families.items())
        for name, fam in families:
            out[name] = {
                "kind": fam.kind,
                "help": fam.help,
                "labelnames": list(fam.labelnames),
                "values": [[list(k), child.value] for k, child in fam.items()],
            }
        return out

    def merge(self, snapshot: Dict[str, dict]) -> None:
        """Fold a snapshot from another registry (typically another
        process) into this one: counters add, gauges take the incoming
        value, histograms add bucket-wise."""
        if not self.enabled or not snapshot:
            return
        for name, data in snapshot.items():
            kind = data["kind"]
            if kind == "histogram":
                bounds = None
                for _, value in data["values"]:
                    bounds = value["bounds"]
                    break
                fam = self.histogram(
                    name, data.get("help", ""), data.get("labelnames", ()),
                    buckets=bounds if bounds is not None else DEFAULT_SECONDS_BUCKETS,
                )
            elif kind == "gauge":
                fam = self.gauge(name, data.get("help", ""), data.get("labelnames", ()))
            else:
                fam = self.counter(name, data.get("help", ""), data.get("labelnames", ()))
            for label_values, value in data["values"]:
                child = fam.labels(*label_values)
                if kind == "counter":
                    child.inc(value)
                elif kind == "gauge":
                    child.set(value)
                else:
                    if tuple(value["bounds"]) != child.bounds:
                        raise ValueError(
                            f"histogram {name!r} bucket bounds differ; cannot merge"
                        )
                    for k, n in enumerate(value["counts"]):
                        child.counts[k] += n
                    child.sum += value["sum"]
                    child.count += value["count"]

    def render_prometheus(self) -> str:
        """Prometheus text exposition format of the current state."""
        return render_prometheus(self.collect())


#: the shared disabled registry: every instrument request returns the
#: no-op singleton, ``collect()`` returns ``{}``
NULL_REGISTRY = MetricsRegistry(enabled=False)


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format:
    backslash, double quote and newline must be escaped inside ``"..."``."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    """Escape ``# HELP`` text: backslash and newline (quotes stay raw)."""
    return str(text).replace("\\", "\\\\").replace("\n", "\\n")


def _label_str(labelnames: Iterable[str], values: Iterable[str]) -> str:
    pairs = [f'{n}="{_escape_label_value(v)}"' for n, v in zip(labelnames, values)]
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _fmt(value: float) -> str:
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return str(value)


def render_prometheus(snapshot: Dict[str, dict]) -> str:
    """Render a :meth:`MetricsRegistry.collect` snapshot as Prometheus
    text exposition (``# HELP`` / ``# TYPE`` headers, cumulative ``le``
    buckets for histograms)."""
    lines: List[str] = []
    for name in sorted(snapshot):
        data = snapshot[name]
        kind, labelnames = data["kind"], data["labelnames"]
        if data.get("help"):
            lines.append(f"# HELP {name} {_escape_help(data['help'])}")
        lines.append(f"# TYPE {name} {kind}")
        for label_values, value in data["values"]:
            if kind == "histogram":
                cum = 0
                for bound, count in zip(value["bounds"], value["counts"]):
                    cum += count
                    labels = _label_str(
                        list(labelnames) + ["le"], list(label_values) + [_fmt(bound)]
                    )
                    lines.append(f"{name}_bucket{labels} {cum}")
                cum += value["counts"][-1]
                labels = _label_str(
                    list(labelnames) + ["le"], list(label_values) + ["+Inf"]
                )
                lines.append(f"{name}_bucket{labels} {cum}")
                base = _label_str(labelnames, label_values)
                lines.append(f"{name}_sum{base} {_fmt(value['sum'])}")
                lines.append(f"{name}_count{base} {value['count']}")
            else:
                labels = _label_str(labelnames, label_values)
                lines.append(f"{name}{labels} {_fmt(value)}")
    return "\n".join(lines) + ("\n" if lines else "")


def merge_snapshots(*snapshots: Optional[Dict[str, dict]]) -> Dict[str, dict]:
    """Merge snapshot dicts without a live registry (post-mortem tools)."""
    reg = MetricsRegistry()
    for snap in snapshots:
        if snap:
            reg.merge(snap)
    return reg.collect()


def scalar(snapshot: Dict[str, dict], name: str, default: float = 0) -> float:
    """Sum of a counter/gauge over all its label combinations."""
    data = snapshot.get(name)
    if not data or data["kind"] == "histogram":
        return default
    return sum(v for _, v in data["values"]) if data["values"] else default


def by_label(snapshot: Dict[str, dict], name: str, label: str) -> Dict[str, float]:
    """``{label_value: value}`` for a single-label counter/gauge family."""
    data = snapshot.get(name)
    if not data or label not in data["labelnames"]:
        return {}
    idx = data["labelnames"].index(label)
    out: Dict[str, float] = {}
    for label_values, value in data["values"]:
        key = label_values[idx]
        out[key] = out.get(key, 0) + value
    return out
