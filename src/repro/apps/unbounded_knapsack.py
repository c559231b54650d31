"""Unbounded knapsack — a third custom pattern, with same-row jumps.

Items may repeat, so the take-edge points *within the row*:

.. code-block:: none

    m(i,j) = max( m(i-1, j),            # skip item i
                  m(i, j - w_i) + v_i ) # take item i (again)

Compared to the paper's 0/1 pattern (jump into the previous row) this
gives a row-internal data-dependent chain — a dependency family none of
the built-ins cover, demonstrating the custom-pattern API stretches past
the paper's own example.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.apgas.failure import FaultPlan
from repro.core.api import DPX10App, Vertex, VertexId, dependency_map
from repro.core.config import DPX10Config
from repro.core.dag import Dag
from repro.core.runtime import DPX10Runtime, RunReport
from repro.errors import PatternError
from repro.util.validation import require

__all__ = [
    "UnboundedKnapsackDag",
    "UnboundedKnapsackApp",
    "unbounded_knapsack_serial",
    "solve_unbounded_knapsack",
]


def unbounded_knapsack_serial(
    weights: Sequence[int], values: Sequence[int], capacity: int
) -> np.ndarray:
    """Serial oracle: the full ``(n+1) x (capacity+1)`` value matrix."""
    n = len(weights)
    m = np.zeros((n + 1, capacity + 1), dtype=np.int64)
    for i in range(1, n + 1):
        w, v = weights[i - 1], values[i - 1]
        for j in range(capacity + 1):
            m[i, j] = m[i - 1, j]
            if w <= j and m[i, j - w] + v > m[i, j]:
                m[i, j] = m[i, j - w] + v
    return m


class UnboundedKnapsackDag(Dag):
    """Custom pattern: skip-edge to the row above, take-edge within the row."""

    def __init__(self, weights: Sequence[int], capacity: int) -> None:
        require(capacity >= 0, "capacity must be >= 0", PatternError)
        require(len(weights) >= 1, "need at least one item", PatternError)
        ws = [int(w) for w in weights]
        require(all(w >= 1 for w in ws), "weights must be >= 1", PatternError)
        self.weights = tuple(ws)
        self.capacity = capacity
        super().__init__(height=len(ws) + 1, width=capacity + 1)

    def get_dependency(self, i: int, j: int) -> List[VertexId]:
        if i == 0:
            return []
        deps = [VertexId(i - 1, j)]
        w = self.weights[i - 1]
        if w <= j:
            deps.append(VertexId(i, j - w))
        return deps

    def get_anti_dependency(self, i: int, j: int) -> List[VertexId]:
        anti: List[VertexId] = []
        if i + 1 < self.height:
            anti.append(VertexId(i + 1, j))
        if i >= 1 and j + self.weights[i - 1] <= self.capacity:
            anti.append(VertexId(i, j + self.weights[i - 1]))
        return anti


class UnboundedKnapsackApp(DPX10App[int]):
    """Maximum value with unlimited copies of each item."""

    value_dtype = np.int64

    def __init__(
        self, weights: Sequence[int], values: Sequence[int], capacity: int
    ) -> None:
        require(len(weights) == len(values), "weights/values length mismatch")
        self.weights = list(weights)
        self.values = list(values)
        self.capacity = capacity
        self.best_value: Optional[int] = None

    def compute(self, i: int, j: int, vertices: Sequence[Vertex[int]]) -> int:
        if i == 0:
            return 0
        dep = dependency_map(vertices)
        best = dep[(i - 1, j)]
        w, v = self.weights[i - 1], self.values[i - 1]
        if w <= j:
            take = dep[(i, j - w)] + v
            if take > best:
                best = take
        return best

    def app_finished(self, dag: Dag[int]) -> None:
        self.best_value = int(
            dag.get_vertex(dag.height - 1, dag.width - 1).get_result()
        )


def solve_unbounded_knapsack(
    weights: Sequence[int],
    values: Sequence[int],
    capacity: int,
    config: Optional[DPX10Config] = None,
    fault_plans: Sequence[FaultPlan] = (),
) -> Tuple[UnboundedKnapsackApp, RunReport]:
    """Run unbounded knapsack under DPX10 (custom same-row-jump pattern)."""
    app = UnboundedKnapsackApp(weights, values, capacity)
    dag = UnboundedKnapsackDag(weights, capacity)
    report = DPX10Runtime(app, dag, config=config, fault_plans=fault_plans).run()
    return app, report
