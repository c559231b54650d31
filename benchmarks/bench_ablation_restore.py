"""Ablation: restore manner — discard vs copy (Refinements: "by default
the result of the finished vertices on the remote places will be abandoned
during recovery. But the user can tell DPX10 to restore them if the
computation is more time consuming than data transfer").

Real runtime: recomputation volume under each manner; simulated: total
one-fault time under each manner at cluster scale.
"""

import os

import pytest

from repro.apgas.failure import FaultPlan
from repro.apps.lcs import solve_lcs
from repro.bench import format_series, write_series
from repro.bench.figures import sim_dag_for
from repro.core.config import DPX10Config
from repro.sim import ClusterSpec, CostModel, simulate_with_fault
from repro.util.rng import seeded_rng


def _text(n, seed):
    return "".join(seeded_rng(seed, "restore").choice(list("ABCD"), size=n))


def test_restore_manner_recompute_volume(benchmark, results_dir):
    x, y = _text(80, 3), _text(80, 4)
    plans = [FaultPlan(2, at_fraction=0.6)]

    def sweep():
        out = {}
        for manner in ("discard", "copy"):
            cfg = DPX10Config(
                nplaces=4, restore_manner=manner, tile_shape=(1, 1)
            )
            app, report = solve_lcs(x, y, cfg, fault_plans=plans)
            out[manner] = (report.recomputed, report.network_bytes, app.length)
        return out

    data = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert data["discard"][2] == data["copy"][2]  # same answer
    # copying preserved results means strictly less recomputation...
    assert data["copy"][0] <= data["discard"][0]
    # ...bought with extra network transfer
    assert data["copy"][1] >= data["discard"][1]
    write_series(
        os.path.join(results_dir, "ablation_restore.txt"),
        format_series(
            "Ablation: restore manner (LCS 80x80, fault at 60%)",
            "manner",
            ["discard", "copy"],
            {
                "recomputed": [data["discard"][0], data["copy"][0]],
                "net bytes": [data["discard"][1], data["copy"][1]],
            },
            unit="",
            precision=0,
        ),
    )


def test_restore_manner_simulated_crossover(benchmark, scale):
    """At cluster scale, copy wins when compute dominates transfer."""
    dag = sim_dag_for("swlag", 4_000_000)
    cluster = ClusterSpec.tianhe1a(4)
    cost = CostModel.for_app("swlag")

    def run():
        rd = simulate_with_fault(
            dag, cluster, cost, fail_node=3, restore_manner="discard", tile_size=16
        )
        rc = simulate_with_fault(
            dag, cluster, cost, fail_node=3, restore_manner="copy", tile_size=16
        )
        return rd, rc

    rd, rc = benchmark.pedantic(run, rounds=1, iterations=1)
    assert rc.tiles_preserved >= rd.tiles_preserved
    assert rc.total <= rd.total
