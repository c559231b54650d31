"""Domain-aware kernels: tensor hyperplane sweeps and tree level gathers.

The AST pipeline (lift → classify → emit) stops at ``compute()`` bodies
it can turn into IR. The PR 9 domain apps never get that far — their
recurrences loop over a ``deps`` dict keyed by native indices, which is
exactly the shape the lifter rejects (DP401) or the object store rules
out (DP402). But the *domains themselves* carry enough structure to
vectorize, if the app states its recurrence in a batched form:

``TENSOR_HYPERPLANE``
    A :class:`~repro.patterns.tensor.TensorWavefrontDag` app that
    defines ``offset_score(step, index) -> score`` declares its
    recurrence to be max-plus over the stencil::

        value(idx) = max over valid offsets o of
                     value(idx + o) + offset_score(-o, idx)

    (``step = -o`` is the positive per-axis advance; ``index`` may be a
    tuple of equal-length arrays, in which case the score must vectorize
    elementwise). Cells with no in-bounds dependency are *seeds* and are
    computed by a scalar ``compute_index(idx, {})`` fixup. The claim is
    verified numerically against ``compute_index`` on sampled cells
    before the kernel is trusted (:func:`probe_tensor_hyperplane`).

``TREE_LEVEL_GATHER``
    A :class:`~repro.patterns.tree.TreeDag` app that defines
    ``compute_level(nodes, ptr, child_values) -> values`` computes one
    whole height level per call: ``nodes`` is an int64 array of node
    ids, ``child_values`` the children's values flattened in node order,
    and ``ptr`` the CSR-style offsets (``child_values[ptr[k]:ptr[k+1]]``
    belongs to ``nodes[k]``). The batched form is verified against a
    serial ``compute_index`` replay of a post-order prefix before the
    kernel is trusted (:func:`probe_tree_level`).

Both kernels are probed once at build time; a failed probe raises
:class:`DomainKernelError` and the classifier demotes to OPAQUE with a
DP403 naming the mismatch, so a buggy batched method can never silently
diverge from the interpreted oracle.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.util.lru import LRU

__all__ = [
    "DomainKernelError",
    "TensorHyperplaneKernel",
    "TreeLevelKernel",
    "match_domain_class",
    "probe_tensor_hyperplane",
    "probe_tree_level",
]


class DomainKernelError(Exception):
    """A domain kernel probe or build failed; demote to OPAQUE."""


def _values_equal(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return bool(np.array_equal(np.asarray(a), np.asarray(b)))
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(_values_equal(x, y) for x, y in zip(a, b))
    return bool(a == b)


def match_domain_class(app, dag) -> Optional[str]:
    """The domain class this app/dag pair opts into, or None."""
    from repro.core.domain import DomainApp

    if not isinstance(app, DomainApp):
        return None
    from repro.patterns.tensor import TensorWavefrontDag
    from repro.patterns.tree import TreeDag

    if isinstance(dag, TensorWavefrontDag) and callable(
        getattr(type(app), "offset_score", None)
    ):
        return "TENSOR_HYPERPLANE"
    if isinstance(dag, TreeDag) and callable(
        getattr(type(app), "compute_level", None)
    ):
        return "TREE_LEVEL_GATHER"
    return None


# -- tensor hyperplane sweeps -----------------------------------------------------------


def probe_tensor_hyperplane(app, dag, samples: int = 48) -> None:
    """Verify ``compute_index == max(dep + offset_score)`` on real cells."""
    from .infer import sample_cells

    dom = dag.domain
    shape = dom.shape
    offsets = dag.offsets_nd
    checked = 0
    for i, j in sample_cells(dag, samples):
        idx = dom.from_cell(i, j)
        valid = [
            o
            for o in offsets
            if all(x + d >= 0 for x, d in zip(idx, o))
        ]
        if not valid:
            continue  # seed cell: the kernel calls compute_index directly
        for salt in (0, 1):
            deps = {}
            expected = None
            for k, o in enumerate(valid):
                nidx = tuple(x + d for x, d in zip(idx, o))
                val = (salt * 997 + 37 * k + 11) * (1 if k % 2 == salt else -1)
                deps[nidx] = val
                step = tuple(-d for d in o)
                cand = val + int(app.offset_score(step, idx))
                expected = cand if expected is None else max(expected, cand)
            got = app.compute_index(idx, deps)
            if got != expected:
                raise DomainKernelError(
                    f"offset_score disagrees with compute_index at {idx}:"
                    f" batched {expected}, interpreted {got}"
                )
        checked += 1
    if checked == 0:
        raise DomainKernelError(
            "no non-seed cells to probe the hyperplane recurrence on"
        )


#: per-process plan cache: hyperplane segmentation of a tile depends only
#: on the tensor shape and the tile box, so repeat solves of one shape
#: (and forked mp workers, via copy-on-write) share one plan per tile. An
#: LRU, because it holds one entry per tile origin per shape and a pooled
#: place outlives its jobs
_TENSOR_PLAN_CACHE = LRU(64)


class TensorHyperplaneKernel:
    """Window-mode tile kernel sweeping antidiagonal hyperplanes.

    Same ``compute_tile(r0, c0, window, oi, oj, h, w)`` contract as the
    2-D kernels: the tensor is already embedded in the layout grid, so
    the engines (inline, threaded, mp shm) need no special handling.
    """

    mode = "window"
    klass = "TENSOR_HYPERPLANE"

    def __init__(self, app, dag) -> None:
        self.app = app
        dom = dag.domain
        self.dom = dom
        self.shape = dom.shape
        self.strides = dom._row_strides
        self.offsets = dag.offsets_nd
        self.steps = tuple(tuple(-x for x in o) for o in self.offsets)
        # cell-space delta of each offset: exact for valid neighbors,
        # because the mixed-radix row encoding is linear when no axis
        # underflows — and underflowing lanes are masked out
        self.deltas = tuple(
            (
                sum(o[a] * s for a, s in zip(range(dom.ndim - 1), self.strides)),
                o[-1],
            )
            for o in self.offsets
        )
        pt = max(0, max(-dr for dr, _ in self.deltas))
        pl = max(0, max(-dc for _, dc in self.deltas))
        self.pads = (pt, 0, pl, 0)
        dtype = np.dtype(type(app).value_dtype)
        if dtype.kind in ("i", "u"):
            self._minv = int(np.iinfo(dtype).min // 4)
        else:
            self._minv = -np.inf

    def _plan(self, r0: int, c0: int, h: int, w: int):
        li_f = np.repeat(np.arange(h, dtype=np.int64), w)
        lj_f = np.tile(np.arange(w, dtype=np.int64), h)
        rows_g = r0 + li_f
        axes: List[np.ndarray] = []
        rem = rows_g
        for s in self.strides:
            axes.append(rem // s)
            rem = rem % s
        axes.append(c0 + lj_f)
        level = axes[0].copy()
        for ax in axes[1:]:
            level += ax
        order = np.argsort(level, kind="stable")
        lv = level[order]
        starts = np.flatnonzero(np.r_[True, lv[1:] != lv[:-1]])
        bounds = np.r_[starts, lv.size]
        segments = tuple(
            order[bounds[k]: bounds[k + 1]] for k in range(len(starts))
        )
        # per-offset validity over the whole tile (axis underflow)
        valids = tuple(
            np.logical_and.reduce(
                [ax >= st for ax, st in zip(axes, step)]
            )
            for step in self.steps
        )
        return li_f, lj_f, tuple(axes), segments, valids

    def __call__(self, r0, c0, window, oi, oj, h, w) -> bool:
        if h <= 0 or w <= 0:
            return True
        app = self.app
        li_f, lj_f, axes, segments, valids = _TENSOR_PLAN_CACHE.lookup(
            (self.shape, r0, c0, h, w), lambda: self._plan(r0, c0, h, w)
        )
        wh, ww = window.shape
        wi_f = oi + li_f
        wj_f = oj + lj_f
        minv = self._minv
        # per-offset edge weights over the whole tile (masked lanes may
        # index with wrapped negatives; their candidates are discarded)
        scores = [
            app.offset_score(step, axes) for step in self.steps
        ]
        for sel in segments:
            acc = np.full(sel.size, minv, dtype=window.dtype)
            any_valid = np.zeros(sel.size, dtype=bool)
            for k, (dr, dc) in enumerate(self.deltas):
                vmask = valids[k][sel]
                if not vmask.any():
                    continue
                nv = window[
                    np.clip(wi_f[sel] + dr, 0, wh - 1),
                    np.clip(wj_f[sel] + dc, 0, ww - 1),
                ]
                sc = scores[k]
                cand = nv + (sc[sel] if np.ndim(sc) else sc)
                acc = np.where(vmask, np.maximum(acc, cand), acc)
                any_valid |= vmask
            if not any_valid.all():
                # seed cells (no in-bounds dependency): scalar fixups
                for p in np.flatnonzero(~any_valid).tolist():
                    t = int(sel[p])
                    idx = tuple(int(ax[t]) for ax in axes)
                    acc[p] = app.compute_index(idx, {})
            window[wi_f[sel], wj_f[sel]] = acc
        return True

    @property
    def source(self) -> str:
        return (
            "# TENSOR_HYPERPLANE kernel (repro.analysis.domainkern)\n"
            f"# shape={self.shape} offsets={self.offsets}\n"
            "# per tile: decode axes, group cells into index-sum hyperplanes,\n"
            "# sweep levels ascending; per offset, one masked gather + \n"
            "# vectorized offset_score; seed cells fixed up via compute_index\n"
        )


# -- tree level gathers -----------------------------------------------------------------


def _compute_level(app, dom, nodes: List[int], value_of) -> list:
    """One batched ``compute_level`` over ``nodes``, each child's value
    read off ``value_of``."""
    flat: List[object] = []
    ptr = [0]
    for v in nodes:
        flat.extend(value_of[c] for c in dom.children(v))
        ptr.append(len(flat))
    return app.compute_level(
        np.asarray(nodes, dtype=np.int64), np.asarray(ptr, dtype=np.int64), flat
    )


def probe_tree_level(app, dag, limit: int = 256) -> None:
    """Verify ``compute_level`` against a serial ``compute_index`` replay.

    Replays a prefix of the post-order (a prefix is closed under
    descendants, so every child is available), then re-batches the same
    nodes by height and requires ``compute_level`` to reproduce every
    value exactly.
    """
    dom = dag.domain
    prefix = dom.post_order[: min(dom.n, limit)]
    serial: Dict[int, object] = {}
    for v in prefix:
        deps = {c: serial[c] for c in dom.children(v)}
        serial[v] = app.compute_index(v, deps)
    by_height: Dict[int, List[int]] = {}
    for v in prefix:
        by_height.setdefault(dom.height_of(v), []).append(v)
    for hgt in sorted(by_height):
        nodes = by_height[hgt]
        out = _compute_level(app, dom, nodes, serial)
        if len(out) != len(nodes):
            raise DomainKernelError(
                f"compute_level returned {len(out)} values for "
                f"{len(nodes)} nodes at height {hgt}"
            )
        for v, got in zip(nodes, out):
            if not _values_equal(got, serial[v]):
                raise DomainKernelError(
                    f"compute_level disagrees with compute_index at node "
                    f"{v}: batched {got!r}, serial {serial[v]!r}"
                )


class TreeLevelKernel:
    """Cells-mode kernel: one ``compute_level`` call per height level.

    Tree apps hold composite values in the object store, so there is no
    window plane to sweep; instead the tile worker hands the kernel its
    active cells and halo dict and gets back the values in cell order
    (``None`` return = fall back to the interpreted path).
    """

    mode = "cells"
    klass = "TREE_LEVEL_GATHER"
    pads = (0, 0, 0, 0)

    def __init__(self, app, dag) -> None:
        self.app = app
        self.dom = dag.domain

    def run_cells(self, rows, cols, halo_values) -> Optional[List[object]]:
        level = self.dom.level
        node_val: Dict[int, object] = {}
        try:
            for (hi, hj), v in halo_values.items():
                node_val[level(hi)[hj]] = v
            out: List[object] = [None] * len(rows)
            # the tile's cells row by row (one height level per row), ascending
            order = np.argsort(rows, kind="stable")
            for idxs in np.split(order, np.flatnonzero(np.diff(rows[order])) + 1):
                lvl = level(int(rows[idxs[0]]))
                nodes = [lvl[c] for c in cols[idxs].tolist()]
                vals = _compute_level(self.app, self.dom, nodes, node_val)
                for t, v, val in zip(idxs.tolist(), nodes, vals):
                    node_val[v] = val
                    out[t] = val
            return out
        except KeyError:
            # a child value is neither in the halo nor in the tile —
            # stale metadata after recovery; the interpreted path is safe
            return None

    @property
    def source(self) -> str:
        return (
            "# TREE_LEVEL_GATHER kernel (repro.analysis.domainkern)\n"
            "# per tile: seed child values from the halo, walk height\n"
            "# levels ascending, one batched compute_level(nodes, ptr,\n"
            "# child_values) call per level\n"
        )
