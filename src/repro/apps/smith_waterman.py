"""Smith-Waterman local alignment: the paper's Figure 7 app, plus SWLAG.

:class:`SWApp` is a line-for-line port of Figure 7 (linear gap penalty,
+2 match / -1 mismatch / -1 gap). :class:`SWLAGApp` is "Smith-Waterman
algorithm with linear and affine gap penalty" — the application the
evaluation section uses for the overhead (Figure 12) and recovery
(Figure 13) experiments — implemented with the Gotoh three-matrix
recurrence; each vertex carries the ``(H, E, F)`` triple, exercising the
framework's object-valued vertex path.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.apgas.failure import FaultPlan
from repro.apps.serial import NEG_INF
from repro.core.api import DPX10App, Vertex, dependency_map
from repro.core.config import DPX10Config
from repro.core.dag import Dag
from repro.core.runtime import DPX10Runtime, RunReport
from repro.patterns.diagonal import DiagonalDag

__all__ = ["SWApp", "SWLAGApp", "solve_sw", "solve_swlag"]

#: skew-buffer index metadata keyed by tile shape ``(h, w)``.
#: Module-level so the arrays are built once per process and survive
#: across runs — pooled warm places reuse them request after request.
_SKEW_META_CACHE: dict = {}


def _skew_meta(h: int, w: int):
    """Index arrays for sweeping an ``h×w`` tile in skewed coordinates.

    The kernel copies the tile plus its one-cell top/left halo — virtual
    coordinates ``(vi, vj) = (li + 1, lj + 1)`` over an ``(h+1)×(w+1)``
    region — into a buffer ``B`` laid out so that antidiagonal ``vd = vi
    + vj`` is the contiguous run ``B[vd * (h+1) + vi]``. Precomputed
    here, once per shape:

    * ``vi, vj`` — every virtual cell of the region (for the skew gather)
    * ``b_idx_all`` — each virtual cell's flat slot in ``B``
    * ``li, lj`` — every tile cell (for the unskew scatter)
    * ``b_cell`` — each tile cell's flat slot in ``B``
    * ``spans`` — per-diagonal ``(d, lo, hi)`` bounds with ``li ∈ [lo, hi]``
    """
    cached = _SKEW_META_CACHE.get((h, w))
    if cached is None:
        vi, vj = np.mgrid[0 : h + 1, 0 : w + 1]
        vi, vj = vi.ravel(), vj.ravel()
        b_idx_all = (vi + vj) * (h + 1) + vi
        li, lj = np.mgrid[0:h, 0:w]
        li, lj = li.ravel(), lj.ravel()
        b_cell = (li + lj + 2) * (h + 1) + (li + 1)
        spans = tuple(
            (d, max(0, d - w + 1), min(h - 1, d)) for d in range(h + w - 1)
        )
        cached = (vi, vj, b_idx_all, li, lj, b_cell, spans)
        _SKEW_META_CACHE[(h, w)] = cached
    return cached


class SWApp(DPX10App[int]):
    """Smith-Waterman with linear gap penalty (paper Figure 7)."""

    value_dtype = np.int64

    MATCH_SCORE = 2
    DISMATCH_SCORE = -1
    GAP_PENALTY = -1

    def __init__(self, str1: str, str2: str) -> None:
        self.str1 = str1
        self.str2 = str2
        # character codes as arrays, for the vectorized tile kernel
        self._codes1 = np.fromiter(map(ord, str1), dtype=np.int64, count=len(str1))
        self._codes2 = np.fromiter(map(ord, str2), dtype=np.int64, count=len(str2))
        self.best_score: Optional[int] = None
        #: aligned substrings, gaps as '-' (the "best match" the paper's
        #: omitted result-processing backtrack would print)
        self.alignment: Optional[Tuple[str, str]] = None

    def compute(self, i: int, j: int, vertices: Sequence[Vertex[int]]) -> int:
        if i == 0 or j == 0:
            return 0
        lefttop = left = top = 0
        # coordinate-scan over the dependency list, as in Figure 7
        for vertex in vertices:
            if vertex.i == i - 1 and vertex.j == j - 1:
                lefttop = vertex.get_result()
                lefttop += (
                    self.MATCH_SCORE
                    if self.str1[i - 1] == self.str2[j - 1]
                    else self.DISMATCH_SCORE
                )
            if vertex.i == i - 1 and vertex.j == j:
                top = vertex.get_result() + self.GAP_PENALTY
            if vertex.i == i and vertex.j == j - 1:
                left = vertex.get_result() + self.GAP_PENALTY
        return max(0, lefttop, left, top)

    def compute_tile(self, r0, c0, window, oi, oj, h, w) -> bool:
        """Vectorized tile kernel: one numpy sweep per intra-tile antidiagonal.

        Cells on an antidiagonal ``li + lj = d`` only depend on diagonals
        ``d-1`` and ``d-2``, so processing ``d`` ascending honors the
        wavefront. Boundary cells (``i == 0`` or ``j == 0``) score 0 —
        exactly the window's zero initialization — and are skipped.

        A tile sweep is a long chain of tiny numpy ops — at 64×64 that is
        127 sequential steps — so per-step dispatch, not arithmetic, is
        the wall. The kernel therefore skews the tile (plus its one-cell
        top/left halo) into a buffer where each antidiagonal is a
        **contiguous slice** (see :func:`_skew_meta`): the inner loop is
        five slice ops per diagonal — no ``arange``, no fancy indexing,
        no temporary index arrays — with the match/mismatch submatrix
        pre-skewed once per tile. Skew in, sweep, unskew the tile cells
        back out; ~6× faster than the per-diagonal gather formulation it
        replaces, bit-for-bit identical scores.
        """
        if not window.flags["C_CONTIGUOUS"]:  # pragma: no cover - engines
            # always pass freshly-allocated windows; raveling a strided
            # view would silently write into a copy
            raise ValueError("compute_tile requires a C-contiguous window")
        s1, s2 = self._codes1, self._codes2
        if s1.size == 0 or s2.size == 0:
            return True  # every cell is boundary: the zero init stands
        stride = window.shape[1]
        flat = window.reshape(-1)
        vi, vj, b_idx_all, li, lj, b_cell, spans = _skew_meta(h, w)
        # skew the halo-extended region into B; when the tile sits on the
        # matrix edge (oi == 0 / oj == 0) the virtual halo strip falls
        # outside the window — 'wrap' reads garbage there, which only
        # ever feeds boundary cells whose scores are pinned to 0 below
        w_idx_all = (oi - 1 + vi) * stride + (oj - 1 + vj)
        B = np.empty((h + w + 1) * (h + 1), dtype=window.dtype)
        B[b_idx_all] = flat.take(w_idx_all, mode="wrap")
        B2 = B.reshape(h + w + 1, h + 1)
        # match/mismatch for the whole tile, skewed so that each
        # diagonal's scores are one contiguous row; source indices are
        # clipped at 0 because boundary cells never read their slot
        gi = np.arange(r0, r0 + h)
        gj = np.arange(c0, c0 + w)
        m = np.where(
            s1[np.maximum(gi - 1, 0)][:, None]
            == s2[np.maximum(gj - 1, 0)][None, :],
            self.MATCH_SCORE,
            self.DISMATCH_SCORE,
        )
        msk = np.empty((h + w - 1, h), dtype=window.dtype)
        msk[li + lj, li] = m.reshape(-1)
        gap = self.GAP_PENALTY
        fix_top = r0 == 0  # row-0 cells score 0 by definition
        fix_left = c0 == 0  # ditto column 0
        for d, lo, hi in spans:
            vd = d + 2
            lefttop = B2[vd - 2, lo : hi + 1] + msk[d, lo : hi + 1]
            best = np.maximum(
                B2[vd - 1, lo : hi + 1], B2[vd - 1, lo + 1 : hi + 2]
            )
            best += gap
            out = B2[vd, lo + 1 : hi + 2]
            np.maximum(lefttop, best, out=out)
            np.maximum(out, 0, out=out)
            # pin the matrix-boundary ends of the diagonal back to 0
            # before diagonal d+1 reads them
            if fix_top and lo == 0:
                B2[vd, 1] = 0
            if fix_left and hi == d:
                B2[vd, d + 1] = 0
        # unskew: scatter the finished tile cells back into the window
        flat[(oi + li) * stride + (oj + lj)] = B.take(b_cell)
        return True

    def app_finished(self, dag: Dag[int]) -> None:
        # the first best cell in row-major order, as a whole-matrix argmax
        # finds it; to_array is a read-only view of the plane here, which
        # np.argmax would copy whole, so only the best row is argmax'd
        scores = dag.to_array(fill=0, dtype=np.int64)
        bi = int(np.argmax(scores.max(axis=1)))
        bj = int(np.argmax(scores[bi]))
        self.best_score = int(scores[bi, bj])
        self.alignment = self._traceback(scores, bi, bj)

    def _traceback(self, scores: np.ndarray, i: int, j: int) -> Tuple[str, str]:
        """Walk back from the best cell while scores stay positive.

        At each step pick a predecessor whose score explains this cell
        under the Figure 7 recurrence (diagonal = match/mismatch, up/left
        = gap); stop at a zero cell — the local alignment's start.
        Reads the gathered score matrix rather than per-cell dag lookups:
        the walk is O(alignment length) but each ``get_vertex`` hop costs
        a plane read, which dominated ``app_finished`` under the mp
        engine.
        """
        top: list = []
        bottom: list = []
        # the loop guard keeps every neighbour (i-1, j-1), (i-1, j) in bounds
        while i > 0 and j > 0 and (score := int(scores[i, j])) > 0:
            s = (
                self.MATCH_SCORE
                if self.str1[i - 1] == self.str2[j - 1]
                else self.DISMATCH_SCORE
            )
            if score == scores[i - 1, j - 1] + s:
                top.append(self.str1[i - 1])
                bottom.append(self.str2[j - 1])
                i, j = i - 1, j - 1
            elif score == scores[i - 1, j] + self.GAP_PENALTY:
                top.append(self.str1[i - 1])
                bottom.append("-")
                i -= 1
            else:
                top.append("-")
                bottom.append(self.str2[j - 1])
                j -= 1
        return "".join(reversed(top)), "".join(reversed(bottom))


class SWLAGApp(DPX10App[tuple]):
    """SWLAG: Smith-Waterman with linear and affine gap penalty (Gotoh).

    Vertex value is the triple ``(H, E, F)``: local similarity, best score
    ending in a horizontal gap, best score ending in a vertical gap.
    """

    value_dtype = None  # tuples: object-valued vertices

    def __init__(
        self,
        str1: str,
        str2: str,
        match: int = 2,
        mismatch: int = -1,
        gap_open: int = -2,
        gap_extend: int = -1,
    ) -> None:
        self.str1 = str1
        self.str2 = str2
        self.match = match
        self.mismatch = mismatch
        self.gap_open = gap_open
        self.gap_extend = gap_extend
        self.best_score: Optional[int] = None

    def compute(self, i: int, j: int, vertices: Sequence[Vertex[tuple]]) -> tuple:
        if i == 0 or j == 0:
            return (0, NEG_INF, NEG_INF)
        dep = dependency_map(vertices)
        h_diag, _, _ = dep[(i - 1, j - 1)]
        h_left, e_left, _ = dep[(i, j - 1)]
        h_top, _, f_top = dep[(i - 1, j)]
        s = self.match if self.str1[i - 1] == self.str2[j - 1] else self.mismatch
        e = max(h_left + self.gap_open, e_left + self.gap_extend)
        f = max(h_top + self.gap_open, f_top + self.gap_extend)
        h = max(0, h_diag + s, e, f)
        return (h, e, f)

    def app_finished(self, dag: Dag[tuple]) -> None:
        self.best_score = max(
            dag.get_vertex(i, j).get_result()[0]
            for i in range(dag.height)
            for j in range(dag.width)
        )


def solve_sw(
    str1: str,
    str2: str,
    config: Optional[DPX10Config] = None,
    fault_plans: Sequence[FaultPlan] = (),
) -> Tuple[SWApp, RunReport]:
    """Run linear-gap Smith-Waterman under DPX10."""
    app = SWApp(str1, str2)
    dag = DiagonalDag(len(str1) + 1, len(str2) + 1)
    report = DPX10Runtime(app, dag, config=config, fault_plans=fault_plans).run()
    return app, report


def solve_swlag(
    str1: str,
    str2: str,
    config: Optional[DPX10Config] = None,
    fault_plans: Sequence[FaultPlan] = (),
    **scoring,
) -> Tuple[SWLAGApp, RunReport]:
    """Run affine-gap Smith-Waterman (SWLAG) under DPX10."""
    app = SWLAGApp(str1, str2, **scoring)
    dag = DiagonalDag(len(str1) + 1, len(str2) + 1)
    report = DPX10Runtime(app, dag, config=config, fault_plans=fault_plans).run()
    return app, report
