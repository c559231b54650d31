"""Ablation: 2D/0D vs 2D/1D patterns.

Paper section III: "DPX10 can also express the type of 2D/iD (i >= 1),
nonetheless, the performance is less than satisfactory. We will address
that in the future work." This benchmark quantifies the gap: per-vertex
cost and communication of the ``full_row`` and ``triangular`` (2D/1D)
patterns against the ``diagonal`` stencil (2D/0D), real runtime and
simulated.
"""

import os

import numpy as np
import pytest

from repro.bench import format_series, write_series
from repro.core.api import DPX10App, dependency_map
from repro.core.config import DPX10Config
from repro.core.runtime import DPX10Runtime
from repro.patterns import DiagonalDag, FullRowDag, TriangularDag
from repro.sim import ClusterSpec, CostModel, simulate
from repro.util.timer import Timer


class MaxPlusOne(DPX10App[int]):
    """Works on any pattern: one more than the max of the dependencies."""

    value_dtype = np.int64

    def compute(self, i, j, vertices):
        if not vertices:
            return 0
        return max(v.get_result() for v in vertices) + 1


def test_2d1d_per_vertex_cost_real(benchmark, results_dir):
    n = 20  # triangular is O(n^3) edges; keep the exact run small

    def sweep():
        out = {}
        for name, dag in (
            ("diagonal", DiagonalDag(n, n)),
            ("full_row", FullRowDag(n, n)),
            ("triangular", TriangularDag(n, n)),
        ):
            cfg = DPX10Config(nplaces=3, tile_shape=(1, 1))
            with Timer() as t:
                report = DPX10Runtime(MaxPlusOne(), dag, cfg).run()
            out[name] = (
                t.elapsed / report.active_vertices,
                report.network_bytes,
            )
        return out

    data = benchmark.pedantic(sweep, rounds=1, iterations=1)
    # the 2D/1D patterns pay strictly more per vertex than the stencil
    assert data["full_row"][0] > data["diagonal"][0]
    assert data["triangular"][0] > data["diagonal"][0]
    write_series(
        os.path.join(results_dir, "ablation_2d1d_real.txt"),
        format_series(
            "Ablation (real runtime): per-vertex seconds by pattern class",
            "pattern",
            ["diagonal", "full_row", "triangular"],
            {
                "s/vertex": [data[p][0] for p in ("diagonal", "full_row", "triangular")],
            },
            unit="",
            precision=6,
        ),
    )


def test_2d1d_simulated_communication_blowup(benchmark):
    cost = CostModel.for_app("sw")
    cluster = ClusterSpec.tianhe1a(4)

    def run():
        d0 = simulate(DiagonalDag(2000, 2000), cluster, cost, tile_size=100)
        d1 = simulate(FullRowDag(2000, 2000), cluster, cost, tile_size=100)
        return d0, d1

    d0, d1 = benchmark.pedantic(run, rounds=1, iterations=1)
    # same cell count, but the 2D/1D pattern moves vastly more data and
    # runs longer — the "less than satisfactory" regime
    assert d1.comm_seconds > 10 * max(d0.comm_seconds, 1e-9)
    assert d1.makespan > d0.makespan
