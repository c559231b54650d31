"""Everything on at once: the features must compose.

A run with the threaded engine, min-communication scheduling, disk
spill, tracing, progress callbacks, a snapshot FT mode and an injected
fault still produces the oracle answer. Feature interactions
are where frameworks rot; this is the canary.
"""

import pytest

from repro.apgas.failure import FaultPlan
from repro.apps.lcs import solve_lcs
from repro.apps.serial import lcs_matrix
from repro.core.config import DPX10Config

X, Y = "ABCBDABACGTACGTAA", "BDCABAACGGTTACCG"
EXPECT = int(lcs_matrix(X, Y)[-1, -1])


@pytest.mark.parametrize("engine", ["inline", "threaded"])
@pytest.mark.parametrize("ft_mode", ["recovery", "snapshot"])
def test_all_features_compose(tmp_path, engine, ft_mode):
    progress = []
    cfg = DPX10Config(
        tile_shape=(1, 1),  # every knob below acts on the per-vertex path
        nplaces=4,
        engine=engine,
        scheduler="mincomm",
        distribution="block_cyclic",
        dist_block=(3, 3),
        cache_size=32,
        spill_dir=str(tmp_path),
        trace=True,
        on_progress=lambda d, t: progress.append(d),
        progress_interval=40,
        ft_mode=ft_mode,
        snapshot_interval=60 if ft_mode == "snapshot" else 0,
        restore_manner="copy" if ft_mode == "recovery" else "discard",
    )
    app, rep = solve_lcs(
        X, Y, cfg, fault_plans=[FaultPlan(2, at_fraction=0.5)]
    )
    assert app.length == EXPECT
    assert rep.recoveries == 1
    assert rep.final_alive_places == 3
    assert progress, "progress callback must fire"
    assert rep.trace is not None and len(rep.trace) == rep.completions
    if ft_mode == "snapshot":
        assert rep.snapshots_taken > 1


def test_random_scheduler_with_stealing_and_fault():
    cfg = DPX10Config(
        tile_shape=(1, 1),
        nplaces=5,
        scheduler="random",
        seed=17,
        cache_size=16,
    )
    app, rep = solve_lcs(
        X,
        Y,
        cfg,
        fault_plans=[FaultPlan(3, at_fraction=0.3), FaultPlan(4, at_fraction=0.7)],
    )
    assert app.length == EXPECT
    assert rep.recoveries == 2
