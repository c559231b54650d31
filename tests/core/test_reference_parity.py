"""Parity battery for the per-vertex reference path (``tile_shape=(1, 1)``).

Every case runs in process, one cell per unit, and is compared against
goldens recorded from the per-place vertex-store implementation this
path replaced (``reference_parity.json`` beside this file): every
``RunReport`` field but ``wall_time``, every ``RecoveryStats`` field but
``wall_time``, a digest of the result matrix and a digest of the cell
trace events in order. The matrix covers a typed app (SW), an
object-valued one (SWLAG) and an interval app with an inactive triangle
(LPS), under each scheduler, cache size, restore manner and ft mode,
with none, one or two kills.

Re-record (only when a change is *meant* to move the reference path)::

    PYTHONPATH=src:. python tests/core/test_reference_parity.py --record
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import sys

import numpy as np
import pytest

from repro.apgas.failure import FaultPlan
from repro.apps.lps import LPSApp
from repro.apps.smith_waterman import SWApp, SWLAGApp
from repro.core.config import DPX10Config
from repro.core.runtime import DPX10Runtime
from repro.patterns.diagonal import DiagonalDag
from repro.patterns.interval import IntervalDag

GOLDENS = os.path.join(os.path.dirname(__file__), "reference_parity.json")
X, Y = "ACGTTGCAAG", "TGCATGCAGTA"
PALINDROME = "ABACDCABBAC"

APPS = {
    "sw": lambda: (SWApp(X, Y), DiagonalDag(len(X) + 1, len(Y) + 1)),
    "swlag": lambda: (SWLAGApp(X, Y), DiagonalDag(len(X) + 1, len(Y) + 1)),
    "lps": lambda: (LPSApp(PALINDROME), IntervalDag(len(PALINDROME), len(PALINDROME))),
}
FAULTS = {
    "none": [],
    "kill1": [FaultPlan(2, at_fraction=0.4)],
    "kill2": [FaultPlan(2, at_fraction=0.3), FaultPlan(1, at_fraction=0.6)],
}
FT = {"recovery": dict(ft_mode="recovery"), "snapshot": dict(ft_mode="snapshot", snapshot_interval=17)}
CASES = [
    "-".join(c)
    for c in itertools.product(
        APPS, ("local", "random", "mincomm"), ("0", "64"), ("discard", "copy"), FT, FAULTS
    )
]
THREADED = ["-".join(c) for c in itertools.product(APPS, ("local", "mincomm"), ("none", "kill1"))]


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _plain(value):
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, tuple):
        return tuple(map(_plain, value))
    return value


def run_case(case: str, engine: str = "inline", **extra):
    """One case's record: report, recovery passes, result and trace digests."""
    name, scheduler, cache, manner, ft, faults = case.split("-")
    app, dag = APPS[name]()
    cfg = DPX10Config(
        nplaces=3, engine=engine, tile_shape=(1, 1), scheduler=scheduler,
        cache_size=int(cache), restore_manner=manner, trace=True, seed=5,
        **FT[ft], **extra,
    )
    report = DPX10Runtime(app, dag, cfg, fault_plans=FAULTS[faults]).run()
    matrix = [[_plain(v) for v in row] for row in dag.to_array(fill=None, dtype=object).tolist()]
    fields = report.to_dict()
    for key in ("wall_time", "recomputed", "cache_hit_rate"):
        fields.pop(key)
    stats = [
        {k: list(v) if isinstance(v, tuple) else v for k, v in vars(s).items() if k != "wall_time"}
        for s in report.recovery_stats
    ]
    cells = [(e.i, e.j, e.home_place, e.exec_place) for e in report.trace.events]
    return {
        "report": fields,
        "recovery_stats": stats,
        "result": _digest(matrix),
        "trace": _digest(cells),
    }


def _goldens():
    with open(GOLDENS) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def goldens():
    return _goldens()


@pytest.mark.parametrize("case", CASES)
def test_inline_reference_matches_goldens(case, goldens):
    assert run_case(case) == goldens["inline"][case]


@pytest.mark.parametrize("case", THREADED)
def test_threaded_reference_matches_goldens(case, goldens):
    name, scheduler, faults = case.split("-")
    got = run_case(f"{name}-{scheduler}-64-discard-recovery-{faults}", engine="threaded")
    want = goldens["threaded"][case]
    assert got["result"] == want["result"]
    assert got["report"]["recoveries"] == want["report"]["recoveries"]
    if faults == "none":  # a kill's recomputation depends on thread interleaving
        assert got["report"]["completions"] == want["report"]["completions"]


@pytest.mark.parametrize("case", ["sw-local-64-discard-recovery-kill1", "lps-mincomm-0-copy-snapshot-kill2"])
def test_spilled_reference_matches_goldens(case, goldens, tmp_path):
    assert run_case(case, spill_dir=str(tmp_path)) == goldens["inline"][case]


class InitLPS(LPSApp):
    """LPS whose inactive cells read as a marker value."""

    def init_value(self, i, j):
        return -100 * i - j


@pytest.mark.parametrize(
    "extra",
    [dict(tile_shape=(1, 1)), dict(), dict(engine="mp", nplaces=2)],
    ids=["inline-per-vertex", "planned-inline", "mp"],
)
@pytest.mark.parametrize("app_cls", [InitLPS, LPSApp], ids=["init_value", "no-init"])
def test_inactive_cells_read_through_the_bound_dag(extra, app_cls):
    # every run binds one view: an inactive cell reads as the app's
    # init_value, or the plane's zero where that is None
    dag = IntervalDag(len(PALINDROME), len(PALINDROME))
    DPX10Runtime(app_cls(PALINDROME), dag, DPX10Config(**extra)).run()
    want = -302 if app_cls is InitLPS else 0
    assert dag.get_vertex(3, 2).get_result() == want
    assert dag.to_array(fill=-1, dtype=np.int64)[3, 2] == -1  # to_array keeps fill


def record() -> None:
    """Write the goldens of the current tree (see the module docstring)."""
    out = {"inline": {c: run_case(c) for c in CASES}, "threaded": {}}
    for case in THREADED:
        name, scheduler, faults = case.split("-")
        out["threaded"][case] = run_case(
            f"{name}-{scheduler}-64-discard-recovery-{faults}", engine="threaded"
        )
    with open(GOLDENS, "w") as fh:
        json.dump(out, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__" and "--record" in sys.argv:
    record()
