"""Flat-sweep (skewed-buffer) emission for antidiagonal wavefront kernels.

Sweeping a wavefront level by level costs one fancy ``window[wi, wj]``
gather per dependency per level — the exact cost PR 7's hand
Smith-Waterman kernel (``repro.apps.smith_waterman``) eliminated by
*skewing* the tile into a buffer where every antidiagonal is one
contiguous run. This module generalizes that technique to any
``ANTIDIAG_WAVEFRONT`` classification with constant dependency offsets,
and is the class's only emitter:

1. **Plan** (cached per ``(rank, pads, h, w)`` in :data:`_PLAN_CACHE`, a
   small LRU) — the skew geometry: a flat buffer slot for every cell of
   the tile plus its halo frame, the per-diagonal ``(row, lo, hi)``
   spans, and the gather/scatter index vectors. Building it costs a few
   array ops; a run uses a handful of shapes, and a long-lived pooled
   place drops the edge shapes of jobs long gone.
2. **Prelude** (generated once per kernel) — every maximal
   *dependency-free* subexpression of the IR (boundary guards,
   ``present()`` masks, substitution scores, activity tests) is
   evaluated over the whole tile as a broadcast 2-D array, then skewed
   into buffer geometry with one scatter.
3. **Sweep** (generated lazily per *boundary profile*) — the per-diagonal
   loop, where every dependency read is a contiguous ``B2[row, lo:hi]``
   slice. Before sweeping, each boolean prelude leaf is classified as
   all-true / all-false / mixed over the tile; the ``(state, ...)``
   tuple selects a sweep variant with those leaves constant-folded
   away. Interior tiles — where every ``present()`` is true and no
   boundary case fires — run a branch-free sweep of ~6 slice ops per
   diagonal, matching the hand kernel; only the O(grid-edge) boundary
   tiles pay the masked general variant. This is the "scalar fixups
   instead of per-lane bounds masks" trade: boundary handling costs
   nothing on the hot interior path.
4. **Gather/scatter** — one ``flat.take(..., mode="clip")`` fills the
   buffer from the window (halo included); one fancy store writes the
   tile cells back. Index vectors are cached per ``(stride, oi, oj)``,
   so interior tiles reuse them verbatim.
5. **The batch axis** — :meth:`FlatSweepKernel.sweep` takes a stack of
   ``nb`` windows of one geometry and one boundary profile (what
   :meth:`FlatSweepKernel.prepare` reports per tile). Buffers grow a
   trailing axis, ``B2[row, lo:hi]`` becomes a contiguous ``(len, nb)``
   block, and the generated sweep source is untouched: the ~12 NumPy
   calls per diagonal are paid once per stack, not once per tile. The
   tile executor (:func:`repro.core.plane.run_tiles`) does the
   grouping; ``kernel(r0, c0, window, ...)`` is the stack of one.

Out-of-window clipped reads produce garbage lanes exactly like the
row emitters' ``np.clip`` gathers; the IR's own boundary cases and
presence masks discard them, which the differential tests
(``tests/analysis/test_codegen.py``) verify bit-for-bit per app.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Tuple

import numpy as np

from .infer import _expr_kind
from .ir import (
    Bin,
    BoolE,
    Call,
    Cmp,
    Cond,
    Const,
    DepRead,
    Expr,
    Index,
    Neg,
    NotE,
    Present,
    Reduce,
    SelfElem,
    SelfElem2,
    SelfScalar,
    walk_expr,
)

__all__ = ["FlatSweepKernel", "build_flat_sweep"]


def _has_dep(e: Expr) -> bool:
    return any(isinstance(n, DepRead) for n in walk_expr(e))


# -- the skew plan ----------------------------------------------------------------------


class _SweepPlan:
    """Skew geometry for one ``(rank, pads, h, w)`` combination.

    Virtual coordinates: tile cell ``(li, lj)`` sits at
    ``(vi, vj) = (li + pt, lj + pl)``; the halo frame fills the rest of
    the ``(h + pt + pb) x (w + pl + pr)`` extended rectangle. Diagonal
    ``a*vi + vj`` (normalized to start at 0) is buffer row; ``vi`` is
    buffer column, so every diagonal is a contiguous run.
    """

    def __init__(self, a: int, pads: Tuple[int, int, int, int], h: int, w: int):
        pt, pb, pl, pr = pads
        eh, ew = h + pt + pb, w + pl + pr
        self.a, self.pads, self.h, self.w = a, pads, h, w
        vi = np.repeat(np.arange(eh), ew)
        vj = np.tile(np.arange(ew), eh)
        if a == 1:
            s = vi + vj
            self.norm = 0
        else:  # rank (-1, 1): diagonals are vj - vi
            s = vj - vi + (eh - 1)
            self.norm = eh - 1
        self.nrows = eh + ew - 1
        self.ncols = eh
        self.nslots = self.nrows * self.ncols
        self.vi, self.vj = vi, vj
        self.b_slot = s * self.ncols + vi
        # tile cells in row-major order, for leaf skewing and scatter
        cli = np.repeat(np.arange(h), w) + pt
        clj = np.tile(np.arange(w), h) + pl
        cs = (cli + clj) if a == 1 else (clj - cli + (eh - 1))
        self.cell_slot = cs * self.ncols + cli
        self.cli, self.clj = cli - pt, clj - pl  # tile-relative again
        # per-diagonal spans over tile cells: (buffer row, col lo, col hi+1)
        spans: List[Tuple[int, int, int]] = []
        if a == 1:
            for ss in range(0, h + w - 1):
                lo, hi = max(0, ss - w + 1), min(h - 1, ss)
                spans.append((ss + pt + pl, lo + pt, hi + 1 + pt))
        else:
            for ss in range(-(h - 1), w):
                lo, hi = max(0, -ss), min(h - 1, w - 1 - ss)
                spans.append((ss + pl - pt + eh - 1, lo + pt, hi + 1 + pt))
        self.spans = spans
        self._idx: Dict[Tuple[int, int, int], Tuple[np.ndarray, np.ndarray]] = {}

    def gather_scatter(
        self, stride: int, oi: int, oj: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Window-flat gather/scatter index vectors, cached per geometry."""
        key = (stride, oi, oj)
        got = self._idx.get(key)
        if got is None:
            pt, _pb, pl, _pr = self.pads
            gidx = (oi - pt + self.vi) * stride + (oj - pl + self.vj)
            sidx = (oi + self.cli) * stride + (oj + self.clj)
            got = (gidx, sidx)
            self._idx[key] = got
        return got


#: plan cache shared by every kernel instance in the process: a small
#: LRU, because a pooled place outlives its jobs and every distinct job
#: size brings its own ragged edge shapes. One run touches the interior
#: shape plus at most three edge shapes per ``(rank, pads)``.
_PLAN_CACHE: "OrderedDict[tuple, _SweepPlan]" = OrderedDict()
_PLAN_CACHE_SIZE = 16


def _plan_for(a: int, pads: Tuple[int, int, int, int], h: int, w: int) -> _SweepPlan:
    key = (a, pads, h, w)
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        plan = _PLAN_CACHE[key] = _SweepPlan(a, pads, h, w)
        if len(_PLAN_CACHE) > _PLAN_CACHE_SIZE:
            _PLAN_CACHE.popitem(last=False)
    else:
        _PLAN_CACHE.move_to_end(key)
    return plan


# -- leaf extraction and the prelude ----------------------------------------------------


class _LeafTable:
    """Interns maximal dependency-free subexpressions as prelude leaves."""

    def __init__(self) -> None:
        self.exprs: List[Expr] = []
        self._ids: Dict[Expr, int] = {}

    def intern(self, e: Expr) -> int:
        got = self._ids.get(e)
        if got is None:
            got = len(self.exprs)
            self._ids[e] = got
            self.exprs.append(e)
        return got


def _emit_prelude(em, leaves: _LeafTable) -> str:
    """``def _leaves(r0, c0, h, w)`` evaluating every leaf tile-wide.

    ``em`` is a :class:`repro.analysis.codegen._Emitter`; its ``gi``/
    ``gj`` lane vectors are bound to broadcast column/row vectors here,
    so every rendered expression evaluates over the full tile at once.
    """
    em.indent = 1
    em.lines = []
    em.reset_cache()
    em.line("gi = (r0 + np.arange(h)).reshape(-1, 1)")
    em.line("gj = (c0 + np.arange(w)).reshape(1, -1)")
    names = []
    for k, e in enumerate(leaves.exprs):
        names.append(f"_lv{k}")
        em.line(f"_lv{k} = {em.expr(e)}")
    em.line(f"return ({', '.join(names)}{',' if names else ''})")
    body = "\n".join(em.lines)
    return f"def _leaves(r0, c0, h, w):\n{body}\n"


# -- the profile-specialized sweep emitter ----------------------------------------------


class _SliceEmitter:
    """Renders the case IR in slice context for one boundary profile.

    Dependency reads become contiguous ``B2[...]`` slices; leaves render
    as their skewed-slice, their scalar, or — when the profile says a
    boolean leaf is uniform over the tile — fold to a constant, erasing
    the mask entirely.
    """

    def __init__(self, em, leaves: _LeafTable, offsets, profile, a: int) -> None:
        self.em = em  # the codegen._Emitter (closures / kinds / app)
        self.leaves = leaves
        self.offsets = offsets  # DepRead -> (di, dj)
        self.profile = profile
        self.a = a
        self.lines: List[str] = []
        self._line_cache: Dict[str, str] = {}
        self._tmp = 0

    def line(self, text: str) -> None:
        self.lines.append("        " + text)

    def cached(self, rhs: str) -> str:
        if rhs.isidentifier():
            return rhs
        t = self._line_cache.get(rhs)
        if t is None:
            self._tmp += 1
            t = f"_x{self._tmp}"
            self.line(f"{t} = {rhs}")
            self._line_cache[rhs] = t
        return t

    # a leaf renders as True/False (folded bool), a scalar name, or a slice
    def leaf(self, e: Expr):
        k = self.leaves.intern(e)
        state = self.profile[k]
        if state == "T":
            return True
        if state == "F":
            return False
        if state == "S":
            return f"_L{k}"
        return self.cached(f"_L{k}[_vd, _a:_b]")

    def _col(self, di: int) -> str:
        if di == 0:
            return "_a:_b"
        return f"_a{di:+d}:_b{di:+d}"

    def dep_slice(self, e: DepRead) -> str:
        di, dj = self.offsets[e]
        dr = self.a * di + dj
        return self.cached(f"B2[_vd - {-dr}, {self._col(di)}]")

    def boolv(self, e: Expr):
        """Boolean context: True / False / a rendered string."""
        if isinstance(e, Const):
            return bool(e.value)
        if not _has_dep(e):
            return self.leaf(e)
        if isinstance(e, BoolE):
            parts = [self.boolv(p) for p in e.parts]
            if e.op == "and":
                if any(p is False for p in parts):
                    return False
                parts = [p for p in parts if p is not True]
                fn = "np.logical_and"
                if not parts:
                    return True
            else:
                if any(p is True for p in parts):
                    return True
                parts = [p for p in parts if p is not False]
                fn = "np.logical_or"
                if not parts:
                    return False
            out = str(parts[0])
            for p in parts[1:]:
                out = f"{fn}({out}, {p})"
            return out
        if isinstance(e, NotE):
            inner = self.boolv(e.operand)
            if isinstance(inner, bool):
                return not inner
            return f"np.logical_not({inner})"
        if isinstance(e, Cmp):
            return f"({self.val(e.left)} {e.op} {self.val(e.right)})"
        return self.val(e)

    def val(self, e: Expr) -> str:
        em = self.em
        if isinstance(e, Const):
            if isinstance(e.value, str):
                from .codegen import KernelBuildError

                raise KernelBuildError("string constant in a dependency expression")
            return repr(e.value)
        if not _has_dep(e):
            v = self.leaf(e)
            return repr(v) if isinstance(v, bool) else v
        if isinstance(e, DepRead):
            if e.default is None:
                return self.dep_slice(e)
            mask = self.boolv(Present(e.row, e.col))
            if mask is True:
                return self.dep_slice(e)
            if mask is False:
                return self.val(e.default)
            return self.cached(
                f"np.where({mask}, {self.dep_slice(e)}, {self.val(e.default)})"
            )
        if isinstance(e, Bin):
            return f"({self.val(e.left)} {e.op} {self.val(e.right)})"
        if isinstance(e, Neg):
            return f"(-{self.val(e.operand)})"
        if isinstance(e, Cmp):
            return f"({self.val(e.left)} {e.op} {self.val(e.right)})"
        if isinstance(e, (BoolE, NotE)):
            v = self.boolv(e)
            return repr(v) if isinstance(v, bool) else v
        if isinstance(e, Cond):
            t = self.boolv(e.test)
            if t is True:
                return self.val(e.then)
            if t is False:
                return self.val(e.orelse)
            return f"np.where({t}, {self.val(e.then)}, {self.val(e.orelse)})"
        if isinstance(e, Call):
            if e.fn in ("max", "min"):
                fold = "np.maximum" if e.fn == "max" else "np.minimum"
                out = self.val(e.args[0])
                for x in e.args[1:]:
                    out = f"{fold}({out}, {self.val(x)})"
                return out
            if e.fn == "abs":
                return f"np.abs({self.val(e.args[0])})"
            if e.fn in ("int", "float"):
                operand = e.args[0]
                rendered = self.val(operand)
                kind = _expr_kind(operand, em.app)
                if e.fn == "int" and kind == "float":
                    return f"np.trunc({rendered}).astype(np.int64)"
                if e.fn == "float" and kind != "float":
                    return f"({rendered} * 1.0)"
                return f"({rendered})"
        if isinstance(e, Reduce):
            ident = "_minv" if e.fn == "max" else "_maxv"
            em.ident_closure()
            fold = "np.maximum" if e.fn == "max" else "np.minimum"
            out = None
            for g, x in e.items:
                gv = True if g is None else self.boolv(g)
                if gv is False:
                    continue
                term = self.val(x)
                if gv is not True:
                    term = f"np.where({gv}, {term}, {ident})"
                out = term if out is None else f"{fold}({out}, {term})"
            return out if out is not None else ident
        from .codegen import KernelBuildError

        raise KernelBuildError(
            f"{type(e).__name__} is not flat-sweep emittable"
        )

    def emit(self, cases) -> str:
        """The sweep body for this profile: one where-chain per diagonal."""
        rendered: List[Tuple[object, str]] = []
        for guard, value in cases:
            g = True if guard is None else self.boolv(guard)
            if g is False:
                continue
            rendered.append((g, self.val(value)))
            if g is True:
                break
        if not rendered:  # pragma: no cover - a decision list always fires
            from .codegen import KernelBuildError

            raise KernelBuildError("every case folded away")
        _, default = rendered[-1]
        self.line(f"_res = {default}")
        for g, v in reversed(rendered[:-1]):
            self.line(f"_res = np.where({g}, {v}, _res)")
        self.line("B2[_vd, _a:_b] = _res")
        return "\n".join(self.lines)


# -- the kernel object ------------------------------------------------------------------


class FlatSweepKernel:
    """A compiled flat-sweep tile kernel (the ``fn`` of an AutoKernel)."""

    def __init__(self, app, cases, leaves: _LeafTable, offsets, a: int,
                 pads: Tuple[int, int, int, int], em, prelude_src: str) -> None:
        self.app = app
        self.cases = cases
        self.leaves = leaves
        self.offsets = offsets
        self.a = a
        self.pads = pads
        self._em = em
        self.prelude_source = prelude_src
        ns = dict(em.closures)
        exec(compile(prelude_src, "<flatsweep:prelude>", "exec"), ns)
        self._leaves_fn = ns["_leaves"]
        self._sweeps: Dict[Tuple[str, ...], object] = {}
        self._sweep_sources: Dict[Tuple[str, ...], str] = {}
        # compile the fully-general variant eagerly: it both smoke-tests
        # emission at build time (so failures demote the app to the
        # interpreted path instead of surfacing mid-run) and seeds ``source``
        self.general_profile = tuple("M" for _ in leaves.exprs)
        self._compile(self.general_profile)

    # one sweep per boundary profile, compiled on first sight
    def _compile(self, profile: Tuple[str, ...]):
        se = _SliceEmitter(self._em, self.leaves, self.offsets, profile, self.a)
        body = se.emit(self.cases)
        names = ", ".join(f"_L{k}" for k in range(len(self.leaves.exprs)))
        unpack = f"    ({names},) = _leaves\n" if names else ""
        src = (
            f"def _sweep(B2, _spans, _leaves):\n{unpack}"
            f"    for _vd, _a, _b in _spans:\n{body}\n"
        )
        ns = {
            "np": np,
            "_minv": self._em.closures.get("_minv"),
            "_maxv": self._em.closures.get("_maxv"),
        }
        exec(compile(src, f"<flatsweep:{''.join(profile)}>", "exec"), ns)
        fn = ns["_sweep"]
        self._sweeps[profile] = fn
        self._sweep_sources[profile] = src
        return fn

    def prepare(self, r0, c0, h, w) -> Tuple[tuple, List[object]]:
        """Classify one tile: ``(profile, leaves)`` for :meth:`sweep`.

        ``profile`` is hashable — one entry per leaf: ``"T"``/``"F"`` for
        a boolean uniform over the tile, ``"M"`` for an array, ``("S",
        value)`` for a scalar — and tiles with equal profiles (and equal
        geometry) may share one :meth:`sweep`. ``leaves`` keeps the
        array leaves, unskewed, and ``None`` elsewhere.
        """
        profile: List[object] = []
        leaves: List[object] = []
        for v in self._leaves_fn(r0, c0, h, w):
            arr = None
            if np.ndim(v) == 0:
                if isinstance(v, np.ndarray):
                    v = v[()]  # a hashable scalar of the same dtype
                if isinstance(v, (bool, np.bool_)):
                    state = "T" if v else "F"
                else:
                    state = ("S", v)
            else:
                arr = np.asarray(v)
                state = "M"
                if arr.dtype == np.bool_:
                    if arr.all():
                        state, arr = "T", None
                    elif not arr.any():
                        state, arr = "F", None
            profile.append(state)
            leaves.append(arr)
        return tuple(profile), leaves

    def sweep(self, profile, leaves, windows, oi, oj, h, w) -> None:
        """Sweep ``nb`` same-geometry, same-profile tiles in one pass.

        ``windows`` is a C-contiguous ``(nb, wh, ww)`` stack, updated in
        place; ``leaves`` holds each tile's :meth:`prepare` leaves. The
        skew buffers carry the batch as a trailing axis, so a diagonal
        ``B2[row, lo:hi]`` is a contiguous ``(len, nb)`` block and the
        generated sweep is the one a single tile runs.
        """
        nb = len(windows)
        plan = _plan_for(self.a, self.pads, h, w)
        # a lone tile keeps the plain 2-D buffers: no batch axis to index
        lanes = (nb,) if nb > 1 else ()
        shape = (plan.nrows, plan.ncols) + lanes
        states = tuple(s if isinstance(s, str) else "S" for s in profile)
        fn = self._sweeps.get(states) or self._compile(states)

        def skewed(slots: np.ndarray, per_tile: np.ndarray) -> np.ndarray:
            """``(nb, len(slots))`` tile-major values -> a flat skew buffer."""
            out = np.empty((plan.nslots,) + lanes, dtype=per_tile.dtype)
            out[slots] = per_tile.T.reshape((-1,) + lanes)
            return out

        payload: List[object] = []
        for k, state in enumerate(profile):
            if state == "M":
                tile_wide = np.empty((nb, h, w), dtype=leaves[0][k].dtype)
                for dst, tile_leaves in zip(tile_wide, leaves):
                    dst[...] = tile_leaves[k]  # broadcasts (h, 1) / (1, w) leaves
                leaf = skewed(plan.cell_slot, tile_wide.reshape(nb, -1))
                payload.append(leaf.reshape(shape))
            else:
                payload.append(None if isinstance(state, str) else state[1])
        flat = windows.reshape(nb, -1)
        gidx, sidx = plan.gather_scatter(windows.shape[2], oi, oj)
        B = skewed(plan.b_slot, flat.take(gidx, axis=1, mode="clip"))
        fn(B.reshape(shape), plan.spans, tuple(payload))
        flat[:, sidx] = B.take(plan.cell_slot, axis=0).reshape(-1, nb).T

    def __call__(self, r0, c0, window, oi, oj, h, w) -> bool:
        """One tile: the ``nb == 1`` case of :meth:`sweep`."""
        if h <= 0 or w <= 0:
            return True
        if not window.flags["C_CONTIGUOUS"]:
            return False  # the runtime falls back to the interpreted path
        profile, leaves = self.prepare(r0, c0, h, w)
        self.sweep(profile, [leaves], window[None], oi, oj, h, w)
        return True

    @property
    def source(self) -> str:
        """Prelude + the general sweep variant, for ``--dump-kernel``."""
        general = self._sweep_sources[self.general_profile]
        return (
            "# flat-sweep kernel: gather -> prelude -> sweep -> scatter\n"
            "# (boundary-profile variants fold uniform masks; this is the\n"
            "#  fully-masked general variant)\n"
            f"{self.prelude_source}\n{general}"
        )


def build_flat_sweep(cls, app, dag, pads: Tuple[int, int, int, int]):
    """A :class:`FlatSweepKernel` for an ANTIDIAG classification.

    Raises :class:`repro.analysis.codegen.KernelBuildError` when the IR
    leaves the flat subset (data-dependent offsets, dependency-carrying
    case guards, activity predicates with no array form, ...); the
    app is then demoted to OPAQUE (``DP403``) and runs interpreted.
    """
    from .codegen import KernelBuildError, _Emitter, _make_act

    if cls.klass != "ANTIDIAG_WAVEFRONT" or cls.ir is None:
        raise KernelBuildError("flat sweep requires an ANTIDIAG classification")
    a, _b = cls.rank
    # every dependency read must sit at a constant offset
    offsets: Dict[DepRead, Tuple[int, int]] = {}
    by_read = {e.read: e for e in cls.entries if e.read is not None}
    for guard, value in cls.ir.cases:
        if guard is not None and _has_dep(guard):
            # a dependency-valued guard could hijack the where-chain on
            # lanes whose reads are boundary garbage
            raise KernelBuildError("dependency read inside a case guard")
        for node in walk_expr(value):
            if isinstance(node, DepRead):
                entry = by_read.get(node)
                off = entry.const_offset if entry is not None else None
                if off is None:
                    raise KernelBuildError("data-dependent dependency offset")
                offsets[node] = off
    act = _make_act(dag)
    em = _Emitter(app, dag, has_act=act is not None)
    if act is not None:
        em.closures["_act"] = act
    em.ident_closure()
    # intern leaves in deterministic walk order (guards first, values after)
    leaves = _LeafTable()

    def _walk_leaves(e: Expr) -> None:
        if isinstance(e, Const):
            return
        if not _has_dep(e):
            leaves.intern(e)
            return
        if isinstance(e, DepRead):
            if e.default is not None:
                leaves.intern(Present(e.row, e.col))
                _walk_leaves(e.default)
            return
        for child in _children_of(e):
            _walk_leaves(child)

    for guard, value in cls.ir.cases:
        if guard is not None:
            _walk_leaves(guard)
        _walk_leaves(value)
    prelude_src = _emit_prelude(em, leaves)
    return FlatSweepKernel(
        app, cls.ir.cases, leaves, offsets, a, pads, em, prelude_src
    )


def _children_of(e: Expr):
    if isinstance(e, Bin):
        return (e.left, e.right)
    if isinstance(e, Neg):
        return (e.operand,)
    if isinstance(e, Cmp):
        return (e.left, e.right)
    if isinstance(e, BoolE):
        return tuple(e.parts)
    if isinstance(e, NotE):
        return (e.operand,)
    if isinstance(e, Call):
        return tuple(e.args)
    if isinstance(e, Cond):
        return (e.test, e.then, e.orelse)
    if isinstance(e, Reduce):
        out = []
        for g, x in e.items:
            if g is not None:
                out.append(g)
            out.append(x)
        return tuple(out)
    if isinstance(e, (SelfElem, SelfElem2, SelfScalar, Index, Present, Const)):
        # dep-free by construction (a DepRead cannot appear in an index
        # that reached footprint extraction as affine)
        return ()
    from .codegen import KernelBuildError

    raise KernelBuildError(f"unknown node {type(e).__name__}")
