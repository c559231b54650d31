"""Slice-kernel emission: the flat sweep and the row kernels.

The one emitter of the ``ANTIDIAG_WAVEFRONT``, ``ELEMENTWISE`` and
``ROW_SCAN_PREFIX`` classes; docs/ANALYSIS.md §7 has the anatomy and
its measurements. Every kernel is built from the same parts:

1. **Prelude** — every maximal *dependency-free* subexpression of the IR
   (boundary guards, ``present()`` masks, substitution scores, activity
   tests), evaluated once over a stack of same-shape tiles as broadcast
   ``(nb, h, w)`` arrays (:meth:`_SliceKernel.prepare`); each tile's
   leaves reduce to a *profile*: all-true / all-false / mixed / scalar.
2. **Sweep** — generated lazily per profile by :class:`_SliceEmitter`,
   the profile's uniform leaves folded away: one step per antidiagonal
   (flat sweep) or tile row (row kernels), every dependency read a
   contiguous ``B2[...]`` slice. A step whose cases fold to one stores
   its last ufunc in place (``out=``), and a max / min adding one
   dependency-free term to several arguments has it factored out.
3. **Layout** — the flat sweep's buffer is the skew of a
   :class:`_SweepPlan`, every antidiagonal one contiguous run and the
   batch a trailing axis: :func:`repro.core.plane.run_tiles` scatters
   the halo and the peeled edge strips (:meth:`FlatSweepKernel.peel`)
   straight into its slots and writes tile cells back out of them. Row
   kernels take the batch-first window stack, a dependency ``(di, dj)``
   reading ``B2[:, _vd + di, _a + dj:_b + dj]``; the row scan solves
   its intra-row recurrence as one ``np.maximum.accumulate`` per row.

Out-of-window reads produce garbage lanes (zeros a window does not
cover, the frame of a row buffer); the IR's own boundary cases and
presence masks discard them, which the differential tests
(``tests/analysis/test_codegen.py``) verify bit-for-bit per app.
"""

from __future__ import annotations

import copy
import functools
import threading
import types
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.util.lru import LRU

from .codegen import KernelBuildError, _make_act
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
    affine_of,
    children,
    walk_expr,
)

__all__ = ["FlatSweepKernel", "RowKernel", "RowScanKernel", "build_slice_kernel"]


def _has_dep(e: Expr) -> bool:
    return any(isinstance(n, DepRead) for n in walk_expr(e))


# -- the skew plan ----------------------------------------------------------------------


class _SweepPlan:
    """Skew geometry for one ``(rank, pads, h, w)`` combination.

    Tile cell ``(li, lj)`` sits at virtual ``(vi, vj) = (li + pt, lj + pl)``,
    the halo frame filling the rest of the ``(h + pt + pb) x (w + pl + pr)``
    extended rectangle. Diagonal ``a*vi + vj`` (normalized to start at 0)
    is buffer row and ``vi`` buffer column, so every diagonal is a
    contiguous run. Window cells outside the rectangle spill into one row
    past the last diagonal, which no sweep touches.
    """

    def __init__(self, a: int, pads: Tuple[int, int, int, int], h: int, w: int):
        pt, pb, pl, pr = pads
        eh, ew = h + pt + pb, w + pl + pr
        self.a, self.pads, self.eh, self.ew = a, pads, eh, ew
        self.nrows = eh + ew - 1
        self.ncols = eh
        self.nslots = self.nrows * self.ncols
        self._windows: Dict[Tuple[int, ...], np.ndarray] = {}
        # tile cells in row-major order, for leaf skewing
        box = self.window_slots(eh, ew, pt, pl).reshape(eh, ew)
        self.cell_slot = box[pt : pt + h, pl : pl + w].ravel()
        # per diagonal over tile cells, in sweep order: (buffer row, col lo, col hi+1)
        rows, cols = np.divmod(self.cell_slot, self.ncols)
        d, first = np.unique(rows, return_index=True)
        last = len(rows) - 1 - np.unique(rows[::-1], return_index=True)[1]
        self.spans = list(zip(d.tolist(), cols[first].tolist(), (cols[last] + 1).tolist()))

    def window_slots(self, wh: int, ww: int, oi: int, oj: int) -> np.ndarray:
        """Each cell of a ``wh x ww`` window whose tile starts at ``(oi, oj)``
        -> its slot, row-major; cached."""
        got = self._windows.get((wh, ww, oi, oj))
        if got is None:
            vi = np.arange(wh)[:, None] + (self.pads[0] - oi)
            vj = np.arange(ww) + (self.pads[2] - oj)
            s = vi + vj if self.a == 1 else vj - vi + (self.eh - 1)
            inside = (vi >= 0) & (vi < self.eh) & (vj >= 0) & (vj < self.ew)
            got = np.where(inside, s * self.ncols + vi, self.nslots).ravel()
            self._windows[wh, ww, oi, oj] = got
        return got


#: plan cache shared by every kernel instance in the process: a small
#: LRU, because a pooled place outlives its jobs and every distinct job
#: size brings its own ragged edge shapes. One run touches the interior
#: shape plus at most three edge shapes per ``(rank, pads)``.
_PLAN_CACHE_SIZE = 16
_PLAN_CACHE = LRU(_PLAN_CACHE_SIZE)


def _plan_for(a: int, pads: Tuple[int, int, int, int], h: int, w: int) -> _SweepPlan:
    return _PLAN_CACHE.lookup((a, pads, h, w), lambda: _SweepPlan(a, pads, h, w))


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

    def intern_cases(self, cases) -> None:
        """Every leaf of ``cases``, in walk order: guards first, values after."""
        for guard, value in cases:
            if guard is not None:
                self._walk(guard)
            self._walk(value)

    def _walk(self, e: Expr) -> None:
        if isinstance(e, Const):
            return
        if not _has_dep(e):
            self.intern(e)
        elif isinstance(e, DepRead):
            if e.default is not None:
                self.intern(Present(e.row, e.col))
                self._walk(e.default)
        else:
            for child in children(e):
                self._walk(child)


def _const_offsets(cases, entries, shifts: Optional[List[Expr]] = None):
    """Every dependency read of ``cases`` -> its ``(di, dj)``.

    ``dj`` is a constant, or — given a ``shifts`` list (row geometry) —
    the name ``_d{n}`` of a per-row column shift: a read whose column is
    ``j`` plus row-only data gets its shift ``col - j`` appended to
    ``shifts`` at position ``n``. Raises :class:`KernelBuildError` on any
    other data-dependent offset, and on a read inside a case guard: a
    dependency-valued guard could hijack the where-chain on lanes whose
    reads are boundary garbage.
    """
    by_read = {e.read: e for e in entries if e.read is not None}
    offsets: Dict[DepRead, Tuple[int, object]] = {}
    for guard, value in cases:
        if guard is not None and _has_dep(guard):
            raise KernelBuildError("dependency read inside a case guard")
        for node in walk_expr(value):
            if isinstance(node, DepRead):
                entry = by_read.get(node)
                off = entry.const_offset if entry is not None else None
                if off is None and shifts is not None and entry is not None:
                    row, col = entry.row, entry.col
                    lane = any(
                        isinstance(n, DepRead) or n == Index("j")
                        for _sign, term in col.terms
                        for n in walk_expr(term)
                    )
                    if not (row.terms or lane):
                        shift: Expr = Const(col.const)
                        for sign, term in col.terms:
                            shift = Bin("+" if sign > 0 else "-", shift, term)
                        if shift not in shifts:
                            shifts.append(shift)
                        off = (row.const, f"_d{shifts.index(shift)}")
                if off is None:
                    raise KernelBuildError("data-dependent dependency offset")
                offsets[node] = off
    return offsets


class _Renderer:
    """Renders dependency-free IR as NumPy source over a whole tile.

    ``gi``/``gj`` are the tile's global row/column coordinates as
    broadcast column/row vectors. ``self`` data becomes a free name in
    :attr:`names`, a *recipe* (``_s_x`` is ``self.x``, ``_a_x`` its array,
    ``_c_x`` its string's ord codes, ``_act`` the dag's activity test)
    that :func:`_closure` resolves per app, so the code holds no instance
    data. Every gather is ``np.clip``-ed: ``np.where`` evaluates both
    branches, so masked lanes index in range. A ``present()`` test becomes
    a bounds mask, plus an activity test on a partially active dag (a
    buffer's zero fill is *not* a read's default — banded's is ``10**9``).
    Repeated lines hoist into one temp; a rendered value is a source
    string, or a Python bool where a boolean folded to a constant.
    """

    indent, prefix = "    ", "_t"

    def __init__(self, app, H: int, W: int, has_act: bool, names: set, consts: dict) -> None:
        self.app, self.H, self.W, self.has_act = app, H, W, has_act
        self.names, self.consts = names, consts
        self.lines: List[str] = []
        self._line_cache: Dict[str, str] = {}

    @classmethod
    def for_dag(cls, app, dag) -> "_Renderer":
        """The prelude's renderer for ``app`` on ``dag``."""
        dtype = np.dtype(type(app).value_dtype)
        info = np.iinfo(dtype) if dtype.kind in ("i", "u") else None
        lo, hi = (int(info.min // 4), int(info.max // 4)) if info else (-np.inf, np.inf)
        # _minv / _maxv: the identities of a guarded max / min reduction
        consts = {"np": np, "_minv": lo, "_maxv": hi}
        return cls(app, dag.height, dag.width, _make_act(dag) is not None, set(), consts)

    def line(self, text: str) -> None:
        self.lines.append(self.indent + text)

    def cached(self, rhs: str) -> str:
        """Hoist ``rhs`` into a temp once; later uses share it."""
        if rhs.isidentifier():
            return rhs
        t = self._line_cache.get(rhs)
        if t is None:
            t = self._line_cache[rhs] = f"{self.prefix}{len(self._line_cache) + 1}"
            self.line(f"{t} = {rhs}")
        return t

    def boolv(self, e: Expr):
        """:meth:`val` in boolean context, where any constant folds."""
        return bool(e.value) if isinstance(e, Const) else self.val(e)

    def val(self, e: Expr):
        if isinstance(e, Const):
            if isinstance(e.value, str):
                raise KernelBuildError("string constant outside a comparison")
            return repr(e.value)
        if isinstance(e, Index):
            return "gi" if e.axis == "i" else "gj"
        if isinstance(e, SelfScalar):
            if isinstance(getattr(self.app, e.attr), str):
                raise KernelBuildError("string attribute outside a comparison")
            self.names.add(f"_s_{e.attr}")
            return f"_s_{e.attr}"
        if isinstance(e, (SelfElem, SelfElem2)):
            data = getattr(self.app, e.attr)
            if isinstance(data, str):
                raise KernelBuildError(
                    f"string element self.{e.attr}[...] outside a comparison"
                )
            name = f"_a_{e.attr}"
            self.names.add(name)
            idx = (e.index,) if isinstance(e, SelfElem) else (e.row, e.col)
            shape = np.shape(data)
            return name + "[" + ", ".join(
                f"np.clip({self.val(x)}, 0, {n - 1})" for x, n in zip(idx, shape)
            ) + "]"
        if isinstance(e, Present):
            return self.present(e)
        if isinstance(e, Cmp) and "str" in (
            _expr_kind(e.left, self.app), _expr_kind(e.right, self.app)
        ):
            return f"({self.str_code(e.left)} {e.op} {self.str_code(e.right)})"
        if isinstance(e, (Bin, Cmp)):
            return f"({self.val(e.left)} {e.op} {self.val(e.right)})"
        if isinstance(e, Neg):
            return f"(-{self.val(e.operand)})"
        if isinstance(e, BoolE):
            parts = [self.boolv(p) for p in e.parts]
            stop = e.op == "or"  # the part value that decides the whole
            if any(p is stop for p in parts):
                return stop
            parts = [p for p in parts if p is not (not stop)]
            if not parts:
                return not stop
            fn = "np.logical_or" if stop else "np.logical_and"
            out = str(parts[0])
            for p in parts[1:]:
                out = f"{fn}({out}, {p})"
            return out
        if isinstance(e, NotE):
            inner = self.boolv(e.operand)
            return (not inner) if isinstance(inner, bool) else f"np.logical_not({inner})"
        if isinstance(e, Cond):
            t = self.boolv(e.test)
            if isinstance(t, bool):
                return self.val(e.then if t else e.orelse)
            return f"np.where({t}, {self.val(e.then)}, {self.val(e.orelse)})"
        if isinstance(e, Call):
            return self.call(e)
        if isinstance(e, Reduce):
            ident = "_minv" if e.fn == "max" else "_maxv"
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
        raise KernelBuildError(f"{type(e).__name__} is not emittable here")

    def call(self, e: Call, out: Optional[str] = None) -> str:
        """``e`` rendered; a max / min of several arguments stores its
        last fold into ``out`` when given."""
        if e.fn in ("max", "min"):
            fold = "np.maximum" if e.fn == "max" else "np.minimum"
            acc = self.val(e.args[0])
            for n, x in enumerate(e.args[1:], 2):
                into = f", out={out}" if out and n == len(e.args) else ""
                acc = f"{fold}({acc}, {self.val(x)}{into})"
            return acc
        if e.fn == "abs":
            return f"np.abs({self.val(e.args[0])})"
        if e.fn in ("int", "float"):
            operand = e.args[0]
            rendered = self.val(operand)
            kind = _expr_kind(operand, self.app)
            if e.fn == "int" and kind == "float":
                return f"np.trunc({rendered}).astype(np.int64)"
            if e.fn == "float" and kind != "float":
                return f"({rendered} * 1.0)"
            return f"({rendered})"
        raise KernelBuildError(f"call {e.fn}() is not emittable")

    def str_code(self, e: Expr) -> str:
        """A string operand of ``==``/``!=`` as ord codes."""
        if isinstance(e, Const) and isinstance(e.value, str):
            return str(ord(e.value)) if len(e.value) == 1 else "-1"
        if isinstance(e, SelfElem) and isinstance(getattr(self.app, e.attr), str):
            name = f"_c_{e.attr}"
            self.names.add(name)
            top = max(len(getattr(self.app, e.attr)) - 1, 0)
            return f"{name}[np.clip({self.val(e.index)}, 0, {top})]"
        raise KernelBuildError("string value outside a simple comparison")

    def _axis_conds(self, e: Expr, temp: str, size: int) -> List[str]:
        """Bounds comparisons for ``0 <= e < size``, minus the provable ones.

        Lane coordinates satisfy ``gi in [0, H-1]`` / ``gj in [0, W-1]``,
        so for a stencil index ``Index +- k`` at most one side of the
        bounds check can actually fail; the other folds away.
        """
        aff = affine_of(e)
        if aff is None or aff.axis is None or aff.terms:
            return [f"({temp} >= 0)", f"({temp} < {size})"]
        span = (self.H if aff.axis == "i" else self.W) - 1
        conds = []
        if aff.const < 0:
            conds.append(f"({temp} >= 0)")
        if span + aff.const >= size:
            conds.append(f"({temp} < {size})")
        return conds

    def present(self, e: Present):
        """The in-bounds (and active) mask of a ``present()`` test."""
        r, c = self.cached(self.val(e.row)), self.cached(self.val(e.col))
        conds = self._axis_conds(e.row, r, self.H) + self._axis_conds(e.col, c, self.W)
        terms = [self.cached(cond) for cond in conds]
        if self.has_act:
            self.names.add("_act")
            terms.append(
                self.cached(
                    f"_act(np.clip({r}, 0, {self.H - 1}),"
                    f" np.clip({c}, 0, {self.W - 1}))"
                )
            )
        if not terms:
            return True
        mask = terms[0]
        for term in terms[1:]:
            mask = f"np.logical_and({mask}, {term})"
        return self.cached(mask)


def _emit_prelude(pre: _Renderer, leaves: _LeafTable) -> str:
    """``def _leaves(r0, c0, h, w)`` evaluating every leaf over a stack of
    ``h x w`` tiles at origins ``r0``/``c0`` (ints, or arrays of them):
    ``gi``/``gj`` are ``(nb, h, 1)`` / ``(nb, 1, w)`` broadcast vectors."""
    pre.line("gi = np.reshape(r0, (-1, 1, 1)) + np.arange(h).reshape(-1, 1)")
    pre.line("gj = np.reshape(c0, (-1, 1, 1)) + np.arange(w)")
    names = []
    for k, e in enumerate(leaves.exprs):
        names.append(f"_lv{k}")
        pre.line(f"_lv{k} = {pre.val(e)}")
    pre.line(f"return ({', '.join(names)}{',' if names else ''})")
    body = "\n".join(pre.lines)
    return f"def _leaves(r0, c0, h, w):\n{body}\n"


def _classify_leaves(values, nb: int) -> Tuple[List[List[object]], List[object]]:
    """A stack of ``nb`` tiles' evaluated leaves -> ``(profiles, arrays)``.

    Each leaf is reduced over its tile axes into a per-tile state:
    ``"T"``/``"F"`` for a boolean uniform over the tile, ``("S", value)``
    for a value constant over it (a scalar, or tile axes both 1), else
    ``"M"``, whose batch array ``arrays`` keeps (the rest ``None``).
    """
    columns: List[List[object]] = []
    arrays: List[object] = []
    for v in values:
        arr, a = None, np.asarray(v)
        if a.ndim == 0 and a.dtype != np.bool_:  # a hashable scalar of its own type
            states: List[object] = [("S", v[()] if isinstance(v, np.ndarray) else v)]
        elif a.dtype == np.bool_ and (not a.any() or a.all()):  # uniform over the stack
            states = ["T" if a.any() else "F"]
        else:
            a = a.reshape((1,) * (3 - a.ndim) + a.shape)  # (nb or 1, h or 1, w or 1)
            if a.dtype == np.bool_:  # mixed: a state per tile
                alls, anys = a.all(axis=(1, 2)).tolist(), a.any(axis=(1, 2)).tolist()
                states = ["T" if x else "M" if y else "F" for x, y in zip(alls, anys)]
                arr = a if "M" in states else None
            elif a.shape[1:] == (1, 1):
                states = [("S", x) for x in a[:, 0, 0]]
            else:
                states, arr = ["M"] * nb, a
        columns.append(states * nb if len(states) < nb else states)
        arrays.append(arr)
    return [list(p) for p in zip(*columns)] if columns else [[] for _ in range(nb)], arrays


class _Leaves(list):
    """A stack's prelude leaves: per leaf a batch array (leading axis ``nb``
    or 1), or None."""

    def select(self, js) -> "_Leaves":
        """The sub-stack of tiles ``js``."""
        return _Leaves(a if a is None or len(a) == 1 else a[js] for a in self)


def _payload(profile, leaves: _Leaves, nb: int, h: int, w: int) -> List[object]:
    """Per leaf, what a sweep binds as ``_L{k}``: an ``"M"`` leaf as an
    ``(nb, h, w)`` view of its batch array, an ``"S"`` leaf's scalar."""
    return [
        np.broadcast_to(leaf, (nb, h, w)) if state == "M"
        else None if isinstance(state, str) else state[1]
        for state, leaf in zip(profile, leaves)
    ]


# -- the profile-specialized sweep emitter ----------------------------------------------


def _cols(d) -> str:
    """The ``_a:_b`` column span moved ``d`` columns: a constant, or the
    name of a per-row shift."""
    if d == 0:
        return "_a:_b"
    if isinstance(d, str):
        return f"_a+{d}:_b+{d}"
    return f"_a{d:+d}:_b{d:+d}"


#: a binary op -> the ufunc that stores it with ``out=``
_UFUNCS = {"+": "np.add", "-": "np.subtract", "*": "np.multiply"}


class _SliceEmitter(_Renderer):
    """Renders the case IR in slice context for one boundary profile.

    Dependency reads become contiguous ``B2[...]`` slices; every maximal
    dependency-free subexpression renders as its prelude leaf: its slice,
    its scalar, or — when the profile says a boolean leaf is uniform over
    the tile — a constant, erasing the mask entirely. ``a`` is the skew
    rank of the flat sweep's buffer, or None for row geometry: the
    batch-first window stack, one tile row per iteration. It shares the
    prelude's geometry and names.
    """

    indent, prefix = "        ", "_x"

    def __init__(self, pre: _Renderer, leaves: _LeafTable, offsets, profile,
                 a: Optional[int]) -> None:
        super().__init__(pre.app, pre.H, pre.W, pre.has_act, pre.names, pre.consts)
        # offsets: DepRead -> (di, dj)
        self.leaves, self.offsets, self.profile, self.a = leaves, offsets, profile, a

    def dep_slice(self, e: DepRead) -> str:
        di, dj = self.offsets[e]
        if self.a is None:
            return self.cached(f"B2[:, _vd{di:+d}, {_cols(dj)}]")
        dr = self.a * di + dj
        return self.cached(f"B2[_vd - {-dr}, {_cols(di)}]")

    def val(self, e: Expr):
        if isinstance(e, DepRead):
            mask = True if e.default is None else self.boolv(Present(e.row, e.col))
            if mask is True:
                return self.dep_slice(e)
            if mask is False:
                return self.val(e.default)
            return self.cached(
                f"np.where({mask}, {self.dep_slice(e)}, {self.val(e.default)})"
            )
        if isinstance(e, Const) or _has_dep(e):
            return super().val(e)
        k = self.leaves.intern(e)
        state = self.profile[k]
        if state in ("T", "F"):
            return state == "T"
        if state == "S":
            return f"_L{k}"
        return self.cached(f"_L{k}[:, _r]" if self.a is None else f"_L{k}[_vd, _a:_b]")

    def taken(self, e: Expr) -> Expr:
        """``e`` past every conditional whose test the profile folds."""
        while isinstance(e, Cond) and _has_dep(e) and isinstance(t := self.boolv(e.test), bool):
            e = e.then if t else e.orelse
        return e

    def factor(self, e: Call) -> Expr:
        """A max / min with one dependency-free term added to several
        arguments, the term factored out: ``max(x + g, y + g, z)`` ->
        ``max(max(x, y) + g, z)``. Exact for integers and floats alike:
        adding ``g`` is monotone, rounding included."""
        groups: Dict[tuple, List[Expr]] = {}  # (op, added term), or (None, argument)
        for x in map(self.taken, e.args):
            if isinstance(x, Bin) and x.op in ("+", "-"):
                if x.op == "+" and _has_dep(x.right) and not _has_dep(x.left):
                    x = Bin("+", x.right, x.left)
                if _has_dep(x.left) and not _has_dep(x.right):
                    groups.setdefault((x.op, x.right), []).append(x)
                    continue
            groups.setdefault((None, x), []).append(x)
        args: List[Expr] = []
        for (op, term), xs in groups.items():
            if op is None or len(xs) == 1:
                args += xs
            else:
                args.append(Bin(op, Call(e.fn, tuple(x.left for x in xs)), term))
        return args[0] if len(args) == 1 else Call(e.fn, tuple(args))

    def call(self, e: Call, out: Optional[str] = None) -> str:
        e = self.factor(e) if e.fn in ("max", "min") else e
        return super().call(e, out) if isinstance(e, Call) else self.val(e)

    def store(self, e: Optional[Expr], target: str) -> str:
        """A step's one value written to ``target``, its last ufunc storing
        with ``out=`` (``e`` None: the row scan's ``_data + _Sr``). The
        classifier keeps float results off integer planes; a boolean
        plane takes the plain store."""
        if e is None:
            return f"np.add(_data, _Sr, out={target})"
        e = self.taken(e)
        if _has_dep(e) and np.dtype(type(self.app).value_dtype).kind != "b":
            if isinstance(e, Call) and e.fn in ("max", "min"):
                e = self.factor(e)
                if isinstance(e, Call):
                    return super().call(e, target)
            if isinstance(e, Bin) and e.op in _UFUNCS:
                return f"{_UFUNCS[e.op]}({self.val(e.left)}, {self.val(e.right)}, out={target})"
        return f"{target} = {self.val(e)}"

    def emit(self, cases, scan: Optional[int] = None) -> str:
        """The sweep body for this profile: one where-chain per diagonal
        (or row), case ``scan``'s value being the row scan's
        ``_data + _Sr``. A lone surviving case is stored in place."""
        target = f"B2[{':, ' if self.a is None else ''}_vd, _a:_b]"
        live: List[Tuple[object, Optional[Expr]]] = []
        for idx, (guard, value) in enumerate(cases):
            g = True if guard is None else self.boolv(guard)
            if g is False:
                continue
            live.append((g, None if idx == scan else value))
            if g is True:
                break
        if not live:  # pragma: no cover - a decision list always fires
            raise KernelBuildError("every case folded away")
        if len(live) == 1:
            self.line(self.store(live[0][1], target))
        else:
            rendered = [(g, "_data + _Sr" if v is None else self.val(v)) for g, v in live]
            self.line(f"_res = {rendered[-1][1]}")
            for g, v in reversed(rendered[:-1]):
                self.line(f"_res = np.where({g}, {v}, _res)")
            self.line(f"{target} = _res")
        return "\n".join(self.lines)


# -- the kernel objects -----------------------------------------------------------------


def _function_code(src: str, filename: str) -> types.CodeType:
    """The code object of the one function ``src`` defines."""
    module = compile(src, filename, "exec")
    return next(c for c in module.co_consts if isinstance(c, types.CodeType))


def _closure(name: str, app, dag):
    """What a generated kernel's free name stands for, on ``app`` and
    ``dag``: the renderer's recipe (see :class:`_Renderer`)."""
    if name == "_act":
        return _make_act(dag)
    data = getattr(app, name[3:])
    if name[1] == "a":
        return np.asarray(data)
    return np.asarray([ord(ch) for ch in data], dtype=np.int64) if name[1] == "c" else data


class _SliceKernel:
    """What every slice kernel shares: the prelude, one sweep compiled per
    profile on first sight, and the one-tile call.

    Built, a kernel is a *template*: code objects and the recipes of the
    names they read, no instance data, shared by every app of one plan
    signature (:func:`repro.analysis.codegen.build_autokernel`).
    :meth:`bind` makes it the kernel over one app on one dag: the same
    code over fresh closures. A sweep that a binding renders for a new
    profile is compiled once, into the template, for every binding.
    """

    kind = ""  # names the generated code objects
    header = ""  # the --dump-kernel banner
    mode = "window"  # the AutoKernel contract it honours

    def __init__(self, cases, leaves: _LeafTable, offsets, pads, pre: _Renderer,
                 nrender: int) -> None:
        self.cases, self.leaves, self.offsets, self.pads = cases, leaves, offsets, pads
        self.prelude_source = _emit_prelude(pre, leaves)
        self._prelude = _function_code(self.prelude_source, f"<{self.kind}:prelude>")
        self.H, self.W, self.has_act = pre.H, pre.W, pre.has_act
        self.names, self.consts = pre.names, pre.consts
        self._codes: Dict[Tuple[str, ...], tuple] = {}  # states -> (code, source)
        self._lock = threading.Lock()
        # compile the fully-general variant eagerly: it both smoke-tests
        # emission at build time (so failures demote the app to the
        # interpreted path instead of surfacing mid-run) and seeds ``source``
        self.general_profile = ("M",) * nrender
        self._render(self.general_profile, pre)

    def bind(self, app, dag) -> "_SliceKernel":
        """This template as the kernel over ``app`` on ``dag``."""
        k = copy.copy(self)
        k._pre = _Renderer(app, self.H, self.W, self.has_act, self.names, self.consts)
        k._dag, k._ns, k._fns = dag, dict(self.consts), {}
        k._leaves_fn = k._function(self._prelude)
        return k

    def _render(self, states: Tuple[str, ...], pre: _Renderer):
        """The sweep's code for ``states``, rendered by ``pre`` on first sight."""
        with self._lock:
            got = self._codes.get(states)
            if got is None:
                names = ", ".join(f"_L{k}" for k in range(len(states)))
                unpack = f"    ({names},) = _leaves\n" if names else ""
                src = self._sweep_source(states, unpack, pre)
                got = (_function_code(src, f"<{self.kind}:{''.join(states)}>"), src)
                self._codes[states] = got
        return got[0]

    def _function(self, code):
        """``code`` as a function over this binding's closures, resolving
        any name rendered since the binding was made."""
        with self._lock:
            missing = [n for n in self.names if n not in self._ns]
        for name in missing:
            self._ns[name] = _closure(name, self._pre.app, self._dag)
        return types.FunctionType(code, self._ns)

    def _states(self, profile) -> Tuple[str, ...]:
        """A profile's rendered leaf states: an ``"S"`` leaf's value is bound, not rendered."""
        return tuple(s if isinstance(s, str) else "S" for s in profile[: len(self.general_profile)])

    def _sweep_fn(self, profile):
        """The compiled sweep for a profile's leaf states."""
        states = self._states(profile)
        fn = self._fns.get(states)
        if fn is None:
            fn = self._fns[states] = self._function(self._render(states, self._pre))
        return fn

    def prepare(self, r0, c0, h, w) -> Tuple[object, List[object]]:
        """Classify ``h x w`` tiles at origins ``r0``/``c0`` — ints, or arrays
        for a stack, in one prelude call — as ``(profile, leaves)`` for
        :meth:`sweep`: a stack gets one profile per tile (tiles of equal
        profile and geometry may share a sweep) and its :class:`_Leaves`.
        """
        nb = int(np.size(r0))
        values = self._leaves_fn(r0, c0, h, w)
        profiles, leaves = _classify_leaves(values[: len(self.general_profile)], nb)
        self._extend(values, profiles, leaves, nb, h, w)
        profiles = [tuple(p) for p in profiles]
        return (profiles if np.ndim(r0) else profiles[0]), _Leaves(leaves)

    def _extend(self, values, profiles, leaves, nb, h, w) -> None:
        """Add what a kernel's sweep needs beyond the rendered leaves."""

    def __call__(self, r0, c0, window, oi, oj, h, w) -> bool:
        """One tile: the ``nb == 1`` case of ``sweep``, on the window itself."""
        if h <= 0 or w <= 0:
            return True
        profile, leaves = self.prepare(r0, c0, h, w)
        self.sweep(profile, leaves, window[None], oi, oj, h, w)
        return True

    @property
    def source(self) -> str:
        """The prelude and the general sweep variant."""
        return f"{self.header}{self.prelude_source}\n{self._codes[self.general_profile][1]}"

    def dump_source(self, tile: int) -> str:
        """:attr:`source`, then the variant an interior tile runs: the
        profile of one tile, at most ``tile`` square, inside the pads frame."""
        pt, pb, pl, pr = self.pads
        h, w = (max(1, min(tile, n - a - b)) for n, a, b in ((self.H, pt, pb), (self.W, pl, pr)))
        states = self._states(self.prepare(pt, pl, h, w)[0])
        self._render(states, self._pre)
        return f"{self.source}\n# interior variant\n{self._codes[states][1]}"


class FlatSweepKernel(_SliceKernel):
    """A compiled flat-sweep tile kernel (the ``fn`` of an AutoKernel)."""

    kind = "flatsweep"
    header = (
        "# flat-sweep kernel: halo into skew slots -> prelude -> sweep -> cells out\n"
        "# (the fully-masked general variant, then the interior one)\n"
    )

    def __init__(self, cases, leaves: _LeafTable, offsets, a: int,
                 pads: Tuple[int, int, int, int], pre: _Renderer) -> None:
        self.a = a
        super().__init__(cases, leaves, offsets, pads, pre, len(leaves.exprs))

    def _sweep_source(self, profile, unpack: str, pre: _Renderer) -> str:
        se = _SliceEmitter(pre, self.leaves, self.offsets, profile, self.a)
        body = se.emit(self.cases)
        return (
            f"def _sweep(B2, _spans, _leaves):\n{unpack}"
            f"    for _vd, _a, _b in _spans:\n{body}\n"
        )

    def layout(self, nb, wh, ww, oi, oj, h, w) -> Tuple[tuple, np.ndarray, int]:
        """``(shape, slots, lane)`` of the buffer :meth:`sweep` takes for ``nb``
        ``wh x ww`` windows around ``h x w`` tiles at ``(oi, oj)``, cell ``k``
        of window ``b`` at ``slots[k] + b * lane``: the skew itself, the batch
        a trailing axis (none for a lone tile), so ``B2[row, lo:hi]`` is one
        contiguous ``(len, nb)`` block."""
        plan = _plan_for(self.a, self.pads, h, w)
        lanes = (nb,) if nb > 1 else ()
        return (plan.nrows + 1, plan.ncols) + lanes, plan.window_slots(wh, ww, oi, oj) * nb, 1

    def __call__(self, r0, c0, window, oi, oj, h, w) -> bool:
        """One tile: its window's pads box into the layout, the tile back out."""
        if h <= 0 or w <= 0:
            return True
        pt, pb, pl, pr = self.pads
        i0, j0 = max(0, oi - pt), max(0, oj - pl)
        box, oi, oj = window[i0 : oi + h + pb, j0 : oj + w + pr], oi - i0, oj - j0
        shape, slots, _lane = self.layout(1, *box.shape, oi, oj, h, w)
        buf = np.zeros(int(np.prod(shape)), window.dtype)
        buf[slots] = box.reshape(-1)
        profile, leaves = self.prepare(r0, c0, h, w)
        self.sweep(profile, leaves, buf.reshape(shape), oi, oj, h, w)
        box[oi : oi + h, oj : oj + w] = buf.take(slots.reshape(box.shape)[oi : oi + h, oj : oj + w])
        return True

    def peel(self, r0, c0, h, w, k, l) -> Optional[List[Tuple[int, int, np.ndarray]]]:
        """A tile's leading ``k`` rows and ``l`` columns, straight from the
        prelude: ``(li, lj, values)`` per strip, tile-relative, or None
        unless every cell there takes a dependency-free case (the DP's
        initial condition) — earlier guards uniformly false, the firing
        guard uniformly true, its value reading no dependency."""
        strips = []
        for li, lj, sh, sw in ((0, 0, k, w), (k, 0, h - k, l)):
            if sh * sw == 0:
                continue
            values = self._leaves_fn(r0 + li, c0 + lj, sh, sw)
            (profile,), _ = _classify_leaves(values, 1)
            for guard, value in self.cases:
                if guard is None or isinstance(guard, Const):
                    state = "T" if guard is None or guard.value else "F"
                else:
                    state = profile[self.leaves.intern(guard)]
                if state == "F":
                    continue
                if state != "T" or _has_dep(value):
                    return None
                got = value.value if isinstance(value, Const) else values[self.leaves.intern(value)]
                strips.append((li, lj, np.broadcast_to(got, (1, sh, sw))[0]))
                break
            else:  # pragma: no cover - a decision list always fires
                return None
        return strips

    def sweep(self, profile, leaves, B, oi, oj, h, w) -> None:
        """Sweep ``nb`` same-geometry, same-profile tiles in one pass, in
        place over ``B``, their :meth:`layout` buffer with the halo in; the
        stack's :meth:`prepare` leaves are skewed here to match."""
        nb = B.shape[2] if B.ndim == 3 else 1
        plan = _plan_for(self.a, self.pads, h, w)
        lanes = (nb,) if nb > 1 else ()
        payload = []
        for state, leaf in zip(profile, _payload(profile, leaves, nb, h, w)):
            if state == "M":  # tile-major values -> the skew geometry
                skewed = np.empty((plan.nslots,) + lanes, dtype=leaf.dtype)
                skewed[plan.cell_slot] = leaf.reshape(nb, -1).T.reshape((-1,) + lanes)
                leaf = skewed.reshape((plan.nrows, plan.ncols) + lanes)
            payload.append(leaf)
        self._sweep_fn(profile)(B, plan.spans, tuple(payload))


@functools.lru_cache(maxsize=64)
def _row_table(extras: tuple, pt: int) -> tuple:
    """Per tile row ``r``: ``(r, buffer row, *extras[r])``."""
    return tuple((r, pt + r, *x) for r, x in enumerate(extras))


def _scan_buffers(nb: int, w: int, s: int, dtype) -> tuple:
    """One row's scan buffer for stride ``s`` as three views: the seed
    chunk, the ``w`` data lanes after it, and the whole buffer split
    into residue classes mod ``s`` (padded with lanes that end their
    classes, so never read back)."""
    buf = np.empty((nb, s * (1 + -(-w // s))), dtype)
    return buf[:, :s], buf[:, s : s + w], buf.reshape(nb, -1, s) if s > 1 else buf


class RowKernel(_SliceKernel):
    """A compiled row kernel (the ``fn`` of an ELEMENTWISE AutoKernel).

    Every read lies in an earlier row, so each tile row is one
    where-chain over ``(nb, w)`` blocks of the batch-first window stack.
    ``hidden`` expressions are prelude leaves no sweep renders: here the
    column shifts of reads whose column adds row-only data, which the
    row table hands each row as ``_d0, _d1, ...``.
    """

    kind = "rows"
    header = (
        "# row kernel: prelude -> per row: earlier-row slices -> store\n"
        "# (the fully-masked general variant, then the interior one)\n"
    )

    def __init__(self, cases, leaves: _LeafTable, offsets, pads, pre: _Renderer,
                 hidden=()) -> None:
        nrender = len(leaves.exprs)
        self.hidden_k = [leaves.intern(e) for e in hidden]
        super().__init__(cases, leaves, offsets, pads, pre, nrender)

    def _sweep_source(self, profile, unpack: str, pre: _Renderer) -> str:
        se = _SliceEmitter(pre, self.leaves, self.offsets, profile, None)
        body = se.emit(self.cases)
        shifts = "".join(f", _d{n}" for n in range(len(self.hidden_k)))
        return (
            f"def _sweep(B2, _rows, _a, _b, _leaves):\n{unpack}"
            f"    for _r, _vd{shifts} in _rows:\n{body}\n"
        )

    def _extend(self, values, profiles, leaves, nb, h, w) -> None:
        """Given column shifts, each tile's profile ends with its per-row
        shift tuples: only tiles whose rows shift alike share a sweep."""
        if self.hidden_k:
            per_row = [np.broadcast_to(values[k], (nb, h, 1))[:, :, 0].tolist()
                       for k in self.hidden_k]
            for t, profile in enumerate(profiles):
                profile.append(tuple(zip(*(rows[t] for rows in per_row))))

    def _row_args(self, profile, leaves, B, h, w) -> tuple:
        """The generated sweep's arguments after ``B2``."""
        n = len(self.general_profile)
        shifts = profile[n] if len(profile) > n else ((),) * h
        pt, _pb, pl, _pr = self.pads
        return _row_table(shifts, pt), pl, pl + w, _payload(profile[:n], leaves, len(B), h, w)

    def sweep(self, profile, leaves, windows, oi, oj, h, w) -> None:
        """Sweep ``nb`` same-geometry, same-profile tiles in one pass.

        ``windows`` is an ``(nb, wh, ww)`` stack, updated in place. The
        rows run on the stack itself when each window is exactly the
        tile's pads box, else on a framed copy of that box; every row
        then works on ``(nb, w)`` blocks.
        """
        pt, pb, pl, pr = self.pads
        nb, wh, ww = windows.shape
        B = windows
        if (oi, oj, wh, ww) != (pt, pl, pt + h + pb, pl + w + pr):
            B = np.zeros((nb, pt + h + pb, pl + w + pr), windows.dtype)
            # a window covers the pads box clipped to the grid, so frame
            # columns it leaves out on the left lie off the grid: no scan
            # chain arrives from there
            B[:, :, : max(0, pl - oj)] = self.consts["_minv"]
            r_lo, r_hi = max(-oi, -pt), min(wh - oi, h + pb)  # the overlap,
            c_lo, c_hi = max(-oj, -pl), min(ww - oj, w + pr)  # tile-relative
            B[:, pt + r_lo : pt + r_hi, pl + c_lo : pl + c_hi] = windows[
                :, oi + r_lo : oi + r_hi, oj + c_lo : oj + c_hi
            ]
        self._sweep_fn(profile)(B, *self._row_args(profile, leaves, B, h, w))
        if B is not windows:
            windows[:, oi : oi + h, oj : oj + w] = B[:, pt : pt + h, pl : pl + w]


class RowScanKernel(RowKernel):
    """A compiled row-scan tile kernel (the ``fn`` of a ROW_SCAN_PREFIX AutoKernel).

    Row by row, the intra-row recurrence ``v[j] = max(base[j], v[j - s] +
    add[j])`` is solved in closed form: with ``S`` the inclusive prefix
    sum of ``add`` within each residue class mod ``s``, ``v - S`` is a
    running maximum of ``base - S`` down each class, seeded by the chain
    arriving from the ``s`` cells left of the tile. The hidden leaves are
    the add and a data stride.
    """

    kind = "rowscan"
    header = (
        "# row-scan kernel: prelude (base terms, pins, add, prefix sums)\n"
        "# -> per row: earlier-row slices -> seed -> accumulate -> store\n"
        "# (the fully-masked general variant, then the interior one)\n"
    )

    def __init__(self, cases, scan: int, form, leaves: _LeafTable, offsets, pads,
                 pre: _Renderer) -> None:
        self.scan = scan  # the case the scan solves; renders as ``_data + _Sr``
        self.pins = form.pins
        self.lane_add = form.lane_add
        literal = isinstance(form.stride, Const)
        self.stride = int(form.stride.value) if literal else None
        hidden = (form.add,) if literal else (form.add, form.stride)
        super().__init__(cases, leaves, offsets, pads, pre, hidden)

    def _sweep_source(self, profile, unpack: str, pre: _Renderer) -> str:
        se = _SliceEmitter(pre, self.leaves, self.offsets, profile, None)
        base = se.val(self.cases[self.scan][1])
        for idx in reversed(self.pins):
            # pinned cases chain through the scan: their (dependency-free)
            # values join the base wherever their guards fire
            guard, value = self.cases[idx]
            g = se.boolv(guard)
            if g is True:
                base = se.val(value)
            elif g is not False:
                base = f"np.where({g}, {se.val(value)}, {base})"
        se.line("_seed, _data, _classes = _bufs[_s]")
        se.line("_seed[...] = B2[:, _vd, _p:_a]")
        se.line("_Sr = _S[:, _r]")
        se.line(f"np.subtract({base}, _Sr, out=_data)")
        se.line("np.maximum.accumulate(_classes, axis=1, out=_classes)")
        body = se.emit(self.cases, scan=self.scan)
        return (
            f"def _sweep(B2, _rows, _a, _b, _leaves, _S, _bufs):\n{unpack}"
            f"    for _r, _vd, _s, _p in _rows:\n{body}\n"
        )

    def _extend(self, values, profiles, leaves, nb, h, w) -> None:
        """For a row-varying stride, each tile's profile ends with its
        per-row stride tuple: only tiles whose rows scan alike share a
        sweep. ``leaves`` gains ``S``, the add's inclusive prefix sum per
        residue class."""
        add, s = values[self.hidden_k[0]], self.stride
        if s is None:
            s = np.broadcast_to(values[self.hidden_k[1]], (nb, h, 1))
            for profile, strides in zip(profiles, s[:, :, 0].tolist()):
                profile.append(tuple(strides))
        if self.lane_add and s == 1:  # a lane-varying add has a literal stride
            S = np.cumsum(add, axis=-1)
        elif self.lane_add:  # per residue class: pad to whole classes
            lanes = np.pad(np.broadcast_to(add, (nb, h, w)), ((0, 0), (0, 0), (0, -w % s)))
            S = np.cumsum(lanes.reshape(nb, h, -1, s), axis=2).reshape(nb, h, -1)[:, :, :w]
        else:  # a row-constant add: the k-th lane of a class holds k + 1 of it
            S = (np.arange(w) // s + 1) * add
        leaves.append(S if np.ndim(S) == 3 else np.reshape(S, (1, 1, w)))

    def _row_args(self, profile, leaves, B, h, w) -> tuple:
        n = len(self.general_profile)
        strides = profile[n] if len(profile) > n else (self.stride,) * h
        pt, _pb, pl, _pr = self.pads
        # S rides along as one more array leaf
        *payload, S = _payload(profile[:n] + ("M",), leaves, len(B), h, w)
        dtype = np.result_type(B.dtype, S.dtype)
        bufs = {s: _scan_buffers(len(B), w, s, dtype) for s in set(strides)}
        # a row's seed is the s cells left of the tile, whose chains it continues
        rows = _row_table(tuple((s, pl - s) for s in strides), pt)
        return rows, pl, pl + w, tuple(payload), S, bufs


# -- the builder ------------------------------------------------------------------------


def build_slice_kernel(cls, app, dag, pads: Tuple[int, int, int, int]):
    """The slice kernel template for an ANTIDIAG, ELEMENTWISE or
    ROW_SCAN_PREFIX classification (``cls``: a classification or its
    spec); ``app`` and ``dag`` only shape the code, :meth:`_SliceKernel.bind`
    binds it.

    Raises :class:`repro.analysis.codegen.KernelBuildError` when the IR
    leaves the slice form — a data-dependent offset (in row geometry:
    one whose column data varies per lane), a dependency-carrying case
    guard, an activity predicate the prelude cannot vectorize, a
    partially active dag under a row kernel, a base read in the row
    being scanned, a lane-varying add under a data stride — and the app
    is then demoted to OPAQUE (``DP403``) and runs interpreted.
    """
    cases, leaves, pre = cls.ir.cases, _LeafTable(), _Renderer.for_dag(app, dag)
    if cls.klass == "ANTIDIAG_WAVEFRONT":
        offsets = _const_offsets(cases, cls.entries)
        leaves.intern_cases(cases)
        return FlatSweepKernel(cases, leaves, offsets, cls.rank[0], pads, pre)
    if pre.has_act:
        raise KernelBuildError("row emission requires a fully active dag")
    form = cls.row_scan
    if form is None:  # ELEMENTWISE
        shifts: List[Expr] = []
        offsets = _const_offsets(cases, cls.entries, shifts)
        leaves.intern_cases(cases)
        return RowKernel(cases, leaves, offsets, pads, pre, shifts)
    if form.lane_add and not isinstance(form.stride, Const):
        raise KernelBuildError("a lane-varying add needs a literal stride")
    scan = next(
        idx for idx, (_g, v) in enumerate(cases)
        if any(n == form.read for n in walk_expr(v))
    )
    # the scan case renders as its base: the recurrence itself is the scan
    cases = tuple((g, form.base if idx == scan else v) for idx, (g, v) in enumerate(cases))
    offsets = _const_offsets(cases, cls.entries)
    if any(di >= 0 for di, _dj in offsets.values()):
        raise KernelBuildError("a base read in the row being scanned")
    leaves.intern_cases(cases)
    return RowScanKernel(cases, scan, form, leaves, offsets, pads, pre)
