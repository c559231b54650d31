"""Adversarial fixtures for the analysis passes.

Each factory below builds a deliberately broken pattern or application
that must trip exactly one class of finding. The CLI reaches them via
``python -m repro lint --module tests.analysis.fixtures:<name>``.
"""

from __future__ import annotations

import random

import numpy as np

from repro.core.api import DPX10App, VertexId, dependency_map
from repro.core.dag import Dag
from repro.patterns import DiagonalDag, GridDag
from repro.patterns.base import StencilDag

SHADY_TOTALS = {}  # module-global a broken app mutates (DP203)


class CyclicStencilDag(StencilDag):
    """(0, 1) and (0, -1) together: every row is a 2-cycle -> DP101."""

    offsets = ((0, 1), (0, -1))


class OutOfBoundsDepDag(Dag):
    """A custom (non-stencil) Dag whose first cell depends on (-5, -5).

    Only enumeration can catch this -> DP102.
    """

    def get_dependency(self, i, j):
        if (i, j) == (0, 0):
            return [VertexId(-5, -5)]
        return [VertexId(i, j - 1)] if j > 0 else []

    def get_anti_dependency(self, i, j):
        return [VertexId(i, j + 1)] if j + 1 < self.width else []


class MismatchedAntiDag(StencilDag):
    """Left-neighbour stencil whose anti-dependency claims the row below.

    The anti relation is not the inverse of the dependency relation ->
    DP103 (from symbolic probes or enumeration).
    """

    offsets = ((0, -1),)

    def get_anti_dependency(self, i, j):
        return [VertexId(i + 1, j)] if i + 1 < self.height else []


class OverAntiDag(StencilDag):
    """Row chain whose anti-dependency also claims the cell two to the
    right — and lists it first.

    Finishing (i, 0) therefore decrements (i, 2) (not a real successor)
    to zero and pushes it ahead of (i, 1), so the scheduler releases
    (i, 2) while its declared dependency (i, 1) is still unfinished. A
    sanitized run reports the race as DP302.
    """

    offsets = ((0, -1),)

    def get_anti_dependency(self, i, j):
        out = []
        if j + 2 < self.width:
            out.append(VertexId(i, j + 2))
        if j + 1 < self.width:
            out.append(VertexId(i, j + 1))
        return out


class UndeclaredReadApp(DPX10App):
    """Reads two cells up via get_vertex; grid declares only (-1,0),(0,-1).

    The AST lint flags the call (DP201); a sanitized run raises DP301.
    """

    value_dtype = None

    def __init__(self, dag: Dag) -> None:
        self._dag = dag

    def compute(self, i, j, vertices):
        dep = dependency_map(vertices)
        total = sum(dep.values()) + 1
        if i >= 2:
            total += self._dag.get_vertex(i - 2, j).get_result()
        return total


class NondeterministicApp(DPX10App):
    """Calls random.random() inside the recurrence -> DP202."""

    value_dtype = None

    def compute(self, i, j, vertices):
        dep = dependency_map(vertices)
        return sum(dep.values()) + random.random()


class SharedStateApp(DPX10App):
    """Mutates self and a module global from compute() -> DP203."""

    value_dtype = None

    def __init__(self) -> None:
        self.running_total = 0

    def compute(self, i, j, vertices):
        dep = dependency_map(vertices)
        self.running_total += 1
        SHADY_TOTALS[(i, j)] = self.running_total
        return sum(dep.values()) + 1


class TileBoxEscapeApp(DPX10App):
    """Hand-written compute_tile whose window indexing escapes the box.

    The grid declares offsets (-1, 0), (0, -1) — halo pads (1, 0, 1, 0)
    — but the kernel reads two rows up (beyond the fetched halo, silently
    zero) and writes one column right (clobbering a neighbour tile's
    halo) -> DP206 twice.
    """

    import numpy as _np

    value_dtype = _np.int64

    def compute(self, i, j, vertices):
        dep = dependency_map(vertices)
        return sum(dep.values()) + 1

    def compute_tile(self, r0, c0, window, oi, oj, h, w) -> bool:
        import numpy as np

        for r in range(h):
            li = np.full(w, r)
            lj = np.arange(w)
            wi, wj = oi + li, oj + lj
            up2 = window[wi - 2, wj]  # beyond the (1, 0, 1, 0) halo
            left = window[wi, wj - 1]
            window[wi, wj + 1] = up2 + left + 1  # off-box write
        return True


class WrongOffsetApp(DPX10App):
    """Subscripts dep[(i - 2, j)] though the grid declares (-1, 0) -> DP201."""

    value_dtype = None

    def compute(self, i, j, vertices):
        dep = dependency_map(vertices)
        if i >= 2:
            return dep[(i - 2, j)] + 1
        return 1


class DepGuardApp(DPX10App):
    """A case guard reads dependencies: classified ANTIDIAG_WAVEFRONT, but
    outside the flat sweep's subset -> demoted at emission, DP403."""

    value_dtype = np.int64

    def compute(self, i, j, vertices):
        dep = dependency_map(vertices)
        if i == 0 or j == 0:
            return i + j
        if dep[(i - 1, j - 1)] > dep[(i - 1, j)]:
            return dep[(i - 1, j)] + 1
        return dep[(i, j - 1)] + 2


def cyclic_dag() -> Dag:
    return CyclicStencilDag(8, 8)


def out_of_bounds_dag() -> Dag:
    return OutOfBoundsDepDag(8, 8)


def mismatched_anti_dag() -> Dag:
    return MismatchedAntiDag(8, 8)


def over_anti_dag() -> Dag:
    return OverAntiDag(4, 8)


def undeclared_read_target():
    dag = GridDag(8, 8)
    return UndeclaredReadApp(dag), dag


def nondet_target():
    return NondeterministicApp(), GridDag(8, 8)


def shared_state_target():
    return SharedStateApp(), GridDag(8, 8)


def wrong_offset_target():
    return WrongOffsetApp(), GridDag(8, 8)


def tile_box_escape_target():
    return TileBoxEscapeApp(), GridDag(8, 8)


def dep_guard_target():
    return DepGuardApp(), DiagonalDag(11, 13)
