"""One master loop: the mp engine runs under the runtime's tile loop.

The in-process engines and the mp engine's place processes share
``DPX10Runtime.run``'s initialization, ``run_inline`` turns,
``execute_tiles`` accounting and ``recover_tiled`` recovery. These tests
pin that down from the outside: one app, one plan and one fault give the
same recovery record on every engine and plane backing, and a place
process that dies on its own recovers like a planned kill.
"""

import dataclasses
import os
import signal

import numpy as np
import pytest

from repro.apgas.failure import FaultPlan
from repro.apps.serial import sw_matrix
from repro.apps.smith_waterman import SWApp
from repro.core.api import DPX10App
from repro.core.config import DPX10Config
from repro.core.runtime import DPX10Runtime
from repro.core.shm import shm_supported
from repro.errors import PlaceZeroDeadError
from repro.obs.metrics import by_label
from repro.patterns import DiagonalDag

A, B = "GATTACAGATTACAGCATGCA", "GCATGCTGCATGCATTACA"

ENGINES = [
    dict(engine="inline"),
    dict(engine="mp", shm=True),
    dict(engine="mp", shm=False),
]


def _skip_without_shm(extra):
    if extra.get("shm") and not shm_supported():
        pytest.skip("no usable shared memory on this platform")


def _record(report):
    stats = [
        {k: v for k, v in dataclasses.asdict(s).items() if k != "wall_time"}
        for s in report.recovery_stats
    ]
    return stats, report.recoveries, report.completions


@pytest.mark.parametrize("ft_mode", ["recovery", "snapshot"])
def test_every_engine_reports_the_same_recovery(ft_mode):
    want = sw_matrix(A, B)
    records = []
    for extra in ENGINES:
        _skip_without_shm(extra)
        dag = DiagonalDag(len(A) + 1, len(B) + 1)
        cfg = DPX10Config(
            nplaces=3, tile_shape=(4, 4), ft_mode=ft_mode, snapshot_interval=60, **extra
        )
        report = DPX10Runtime(
            SWApp(A, B), dag, cfg, fault_plans=[FaultPlan(1, at_fraction=0.5)]
        ).run()
        assert (dag.to_array(fill=0, dtype=np.int64) == want).all(), extra
        assert report.recoveries == 1
        assert report.recovery_stats[0].mechanism == ft_mode
        records.append(_record(report))
    assert all(r == records[0] for r in records[1:]), records


class SelfKillingApp(DPX10App[int]):
    """Sums its dependencies; the first process to compute ``victim``
    SIGKILLs itself, leaving ``marker`` so a recompute lives."""

    value_dtype = np.int64

    def __init__(self, victim, marker):
        self.victim = tuple(victim)
        self.marker = str(marker)

    def compute(self, i, j, vertices):
        if (i, j) == self.victim and not os.path.exists(self.marker):
            open(self.marker, "w").close()
            os.kill(os.getpid(), signal.SIGKILL)
        return (1 + sum(int(v.get_result()) for v in vertices)) % 1009


def _oracle(n):
    want = np.zeros((n, n), np.int64)
    for i in range(n):
        for j in range(n):
            deps = [want[a, b] for a, b in ((i - 1, j - 1), (i - 1, j), (i, j - 1))
                    if a >= 0 and b >= 0]
            want[i, j] = (1 + sum(int(d) for d in deps)) % 1009
    return want


def _victim_on(place, dag, cfg):
    """A cell inside a middle tile homed on ``place``."""
    tiled = dag.coarsen(*cfg.tile_shape)
    dist = cfg.make_dist(dag.region, list(range(cfg.nplaces)))
    mine = [t for t in tiled.active_tiles() if dist.place_of(*tiled.grid.origin(*t)) == place]
    r0, c0 = tiled.grid.origin(*mine[len(mine) // 2])
    return r0 + 1, c0 + 1


@pytest.mark.skipif(not hasattr(os, "fork"), reason="places must be forked processes")
@pytest.mark.parametrize("shm", [True, False], ids=["shm", "private"])
def test_a_place_that_dies_on_its_own_is_recovered(shm, tmp_path):
    if shm and not shm_supported():
        pytest.skip("no usable shared memory on this platform")
    n = 12
    dag = DiagonalDag(n, n)
    cfg = DPX10Config(nplaces=3, engine="mp", shm=shm, tile_shape=(3, 3), metrics=True)
    app = SelfKillingApp(_victim_on(1, dag, cfg), tmp_path / "died")
    report = DPX10Runtime(app, dag, cfg).run()
    assert (tmp_path / "died").exists()
    assert report.recoveries == 1
    assert report.recovery_stats[0].dead_places == (1,)
    assert report.final_alive_places == 2
    assert (dag.to_array(fill=0, dtype=np.int64) == _oracle(n)).all()
    # the batch the death interrupted is accounted for its survivors: each
    # one's executed count is what its own process computed
    computed = by_label(report.metrics, "dpx10_mp_worker_cells_total", "place")
    for p in (0, 2):
        assert report.per_place_executed[p] == computed[str(p)]
    assert report.recomputed > 0


@pytest.mark.skipif(not hasattr(os, "fork"), reason="places must be forked processes")
@pytest.mark.parametrize("shm", [True, False], ids=["shm", "private"])
def test_place_zero_dying_on_its_own_is_unrecoverable(shm, tmp_path):
    if shm and not shm_supported():
        pytest.skip("no usable shared memory on this platform")
    dag = DiagonalDag(12, 12)
    cfg = DPX10Config(nplaces=3, engine="mp", shm=shm, tile_shape=(3, 3))
    app = SelfKillingApp(_victim_on(0, dag, cfg), tmp_path / "died")
    with pytest.raises(PlaceZeroDeadError):
        DPX10Runtime(app, dag, cfg).run()
    assert (tmp_path / "died").exists()


def test_a_bound_dag_still_crosses_to_the_places():
    # the master binds results before a pooled spare (or a second run)
    # ships the dag to a place: the binding must not travel
    want = sw_matrix(A, B)
    dag = DiagonalDag(len(A) + 1, len(B) + 1)
    for engine in ("inline", "mp"):
        DPX10Runtime(SWApp(A, B), dag, DPX10Config(nplaces=2, engine=engine)).run()
        assert (dag.to_array(fill=0, dtype=np.int64) == want).all(), engine
