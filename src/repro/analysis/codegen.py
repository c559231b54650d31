"""NumPy tile-kernel generation from the classified ``compute()`` IR.

:func:`build_autokernel` turns a non-OPAQUE classification into a
``compute_tile(r0, c0, window, oi, oj, h, w) -> bool`` function with the
same contract as hand-written kernels (:meth:`repro.core.api.DPX10App.
compute_tile`): the window covers the tile plus its stencil halo, the
halo is pre-filled, unwritten cells read as dtype zero, and cell
``(i, j)`` lives at ``window[oi + i - r0, oj + j - c0]``.

Emission strategy per class:

* ``ELEMENTWISE`` — one vectorized sweep per tile row (every dependency
  is in an earlier row).
* ``ANTIDIAG_WAVEFRONT`` — the flat anti-diagonal sweep of
  :mod:`.flatsweep` (the only emitter for the class: an app it refuses
  is demoted to OPAQUE with ``DP403`` and runs interpreted).
* ``ROW_SCAN_PREFIX`` — per row, the intra-row recurrence
  ``v[j] = max(base[j], v[j - s] + add)`` is solved in closed form with
  a strided ``np.maximum.accumulate`` over residue classes mod ``s``
  (within a residue class, ``v_k = max_{l<=k}(base_l + (k-l)*add)``,
  which is ``accumulate(base - k*add) + k*add``).

Lane-safety rules baked into every emission:

* all window / self-array gathers are ``np.clip``-ed — ``np.where``
  evaluates both branches, so masked lanes must still index in range;
* ``dep.get(..., default)`` emits an in-bounds-and-active mask and a
  ``np.where`` against the default (the window's zero fill is *not* the
  default — banded's is ``10**9``);
* lanes on inactive cells are filtered out before the store, so
  inactive cells keep the zero other cells' defaulted reads observe.

The generated source is kept on the returned :class:`AutoKernel` for
the CLI (``repro analyze --dump-kernel``) and the docs walkthrough.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .classify import Classification, RowScanForm, classify_app
from .findings import AnalysisReport
from .infer import FootEntry, _expr_kind
from .ir import (
    AffineIndex,
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
)

__all__ = [
    "AutoKernel",
    "KernelBuildError",
    "KernelSpec",
    "build_autokernel",
    "kernel_from_spec",
]


class KernelBuildError(Exception):
    """The classified IR could not be turned into a kernel."""


@dataclass
class KernelSpec:
    """The picklable residue of a classification, enough to re-emit.

    The mp master classifies (and probes) once pre-fork, then ships
    this spec inside the tile metadata; workers call
    :func:`kernel_from_spec` to re-emit the kernel without re-running
    the AST pipeline or the numeric probes. Every field is built from
    frozen IR dataclasses, so the spec survives pickling — unlike the
    compiled kernel function itself.
    """

    subject: str
    klass: str
    rank: Optional[Tuple[int, int]] = None
    ir: Optional[object] = None
    entries: Tuple[FootEntry, ...] = ()
    row_scan: Optional[RowScanForm] = None
    case_kinds: dict = field(default_factory=dict)


@dataclass
class AutoKernel:
    """A generated tile kernel plus everything the runtime needs.

    ``mode`` is ``"window"`` for kernels honouring the
    ``compute_tile(r0, c0, window, oi, oj, h, w)`` contract and
    ``"cells"`` for tree-level kernels, whose ``fn.run_cells(rows,
    cols, halo_values)`` maps a tile's active cells straight to values
    (no dense window exists for object-valued apps). ``spec`` is the
    picklable classification residue mp workers rebuild from.
    """

    fn: object
    pads: Tuple[int, int, int, int]
    klass: str
    subject: str
    source: str
    mode: str = "window"
    spec: Optional[KernelSpec] = None

    def __call__(self, r0, c0, window, oi, oj, h, w) -> bool:
        return self.fn(r0, c0, window, oi, oj, h, w)


def _term_values(term: Expr, app) -> np.ndarray:
    if isinstance(term, SelfScalar):
        return np.asarray([getattr(app, term.attr)])
    if isinstance(term, (SelfElem, SelfElem2)):
        return np.asarray(getattr(app, term.attr)).ravel()
    raise KernelBuildError(f"unbounded index term {type(term).__name__}")


def _affine_bounds(aff: AffineIndex, app) -> Tuple[int, int]:
    lo = hi = aff.const
    for sign, term in aff.terms:
        vals = _term_values(term, app)
        if vals.size == 0:
            continue
        if not np.issubdtype(vals.dtype, np.integer):
            raise KernelBuildError("non-integer data term in a dependency index")
        vlo, vhi = int(vals.min()), int(vals.max())
        lo += min(sign * vlo, sign * vhi)
        hi += max(sign * vlo, sign * vhi)
    return lo, hi


def _pads_for(entries: Tuple[FootEntry, ...], app) -> Tuple[int, int, int, int]:
    rmin = rmax = cmin = cmax = 0
    for e in entries:
        lo, hi = _affine_bounds(e.row, app)
        rmin, rmax = min(rmin, lo), max(rmax, hi)
        lo, hi = _affine_bounds(e.col, app)
        cmin, cmax = min(cmin, lo), max(cmax, hi)
    return (max(0, -rmin), max(0, rmax), max(0, -cmin), max(0, cmax))


def _make_act(dag):
    """A vectorized activity predicate, or None when every cell is active."""
    from repro.core.dag import Dag

    if type(dag).is_active is Dag.is_active:
        # never overridden: every in-bounds cell is active, and the
        # kernel can drop per-level masking entirely (dense stencils
        # report an all-ones is_active_array, which would otherwise
        # cost an activity gather per wavefront level for nothing)
        return None
    probe = dag.is_active_array(np.asarray([0]), np.asarray([0]))
    if probe is not None:
        return lambda ri, rj: dag.is_active_array(
            np.asarray(ri), np.asarray(rj)
        )

    def act(ri, rj):
        ri, rj = np.broadcast_arrays(np.asarray(ri), np.asarray(rj))
        return np.fromiter(
            (dag.is_active(a, b) for a, b in zip(ri.ravel(), rj.ravel())),
            dtype=bool,
            count=ri.size,
        ).reshape(ri.shape)

    return act


class _Emitter:
    """Renders IR expressions as NumPy source over the lane vectors.

    Lane context: ``gi``/``gj`` are global row/col vectors for the lanes
    being computed, ``wi``/``wj`` the matching window indices. Dependency
    reads and presence tests are emitted as cached temporaries.
    """

    def __init__(self, app, dag, has_act: bool) -> None:
        self.app = app
        self.dag = dag
        self.has_act = has_act
        self.closures: Dict[str, object] = {"np": np}
        self.lines: List[str] = []
        self.indent = 2
        self._tmp = 0
        self._cache: Dict[Expr, str] = {}
        self._line_cache: Dict[str, str] = {}
        self._attr_arrays: Dict[Tuple[str, str], str] = {}
        self.H, self.W = dag.height, dag.width

    # -- plumbing ---------------------------------------------------------------------
    def line(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def tmp(self) -> str:
        self._tmp += 1
        return f"_t{self._tmp}"

    def cached(self, rhs: str) -> str:
        """Hoist ``rhs`` into a temp once per level; later uses share it."""
        if rhs.isidentifier() or rhs == "True":
            return rhs
        if rhs not in self._line_cache:
            t = self.tmp()
            self.line(f"{t} = {rhs}")
            self._line_cache[rhs] = t
        return self._line_cache[rhs]

    def reset_cache(self) -> None:
        self._cache.clear()
        self._line_cache.clear()

    def scalar_closure(self, attr: str) -> str:
        name = f"_s_{attr}"
        self.closures[name] = getattr(self.app, attr)
        return name

    def array_closure(self, attr: str) -> Tuple[str, Tuple[int, ...]]:
        key = (attr, "num")
        if key not in self._attr_arrays:
            arr = np.asarray(getattr(self.app, attr))
            name = f"_a_{attr}"
            self.closures[name] = arr
            self._attr_arrays[key] = name
        name = self._attr_arrays[key]
        return name, self.closures[name].shape  # type: ignore[union-attr]

    def codes_closure(self, attr: str) -> Tuple[str, int]:
        """Ord-code array for a string attribute (==/!= comparisons only)."""
        key = (attr, "str")
        if key not in self._attr_arrays:
            s = getattr(self.app, attr)
            name = f"_c_{attr}"
            self.closures[name] = np.asarray(
                [ord(ch) for ch in s], dtype=np.int64
            )
            self._attr_arrays[key] = name
        name = self._attr_arrays[key]
        return name, len(self.closures[name])  # type: ignore[arg-type]

    def kind(self, e: Expr) -> str:
        return _expr_kind(e, self.app)

    # -- expression rendering ---------------------------------------------------------
    def expr(self, e: Expr) -> str:
        if isinstance(e, Const):
            if isinstance(e.value, str):
                raise KernelBuildError("string constant outside a comparison")
            return repr(e.value)
        if isinstance(e, Index):
            return "gi" if e.axis == "i" else "gj"
        if isinstance(e, SelfScalar):
            value = getattr(self.app, e.attr)
            if isinstance(value, str):
                raise KernelBuildError("string attribute outside a comparison")
            return self.scalar_closure(e.attr)
        if isinstance(e, SelfElem):
            if isinstance(getattr(self.app, e.attr), str):
                raise KernelBuildError(
                    f"string element self.{e.attr}[...] outside a comparison"
                )
            name, shape = self.array_closure(e.attr)
            idx = self.expr(e.index)
            return f"{name}[np.clip({idx}, 0, {shape[0] - 1})]"
        if isinstance(e, SelfElem2):
            name, shape = self.array_closure(e.attr)
            r, c = self.expr(e.row), self.expr(e.col)
            return (
                f"{name}[np.clip({r}, 0, {shape[0] - 1}),"
                f" np.clip({c}, 0, {shape[1] - 1})]"
            )
        if isinstance(e, DepRead):
            return self.dep_read(e)
        if isinstance(e, Present):
            return self.present(e)
        if isinstance(e, Bin):
            return f"({self.expr(e.left)} {e.op} {self.expr(e.right)})"
        if isinstance(e, Neg):
            return f"(-{self.expr(e.operand)})"
        if isinstance(e, Cmp):
            return self.cmp(e)
        if isinstance(e, BoolE):
            fn = "np.logical_and" if e.op == "and" else "np.logical_or"
            out = self.expr(e.parts[0])
            for p in e.parts[1:]:
                out = f"{fn}({out}, {self.expr(p)})"
            return out
        if isinstance(e, NotE):
            return f"np.logical_not({self.expr(e.operand)})"
        if isinstance(e, Call):
            return self.call(e)
        if isinstance(e, Cond):
            return (
                f"np.where({self.expr(e.test)}, {self.expr(e.then)},"
                f" {self.expr(e.orelse)})"
            )
        if isinstance(e, Reduce):
            return self.reduce(e)
        raise KernelBuildError(f"unemittable node {type(e).__name__}")

    def str_code(self, e: Expr) -> str:
        if isinstance(e, Const) and isinstance(e.value, str):
            return str(ord(e.value)) if len(e.value) == 1 else "-1"
        if isinstance(e, SelfElem) and isinstance(
            getattr(self.app, e.attr), str
        ):
            name, length = self.codes_closure(e.attr)
            idx = self.expr(e.index)
            return f"{name}[np.clip({idx}, 0, {max(length - 1, 0)})]"
        raise KernelBuildError("string value outside a simple comparison")

    def cmp(self, e: Cmp) -> str:
        lk, rk = self.kind(e.left), self.kind(e.right)
        if "str" in (lk, rk):
            left, right = self.str_code(e.left), self.str_code(e.right)
        else:
            left, right = self.expr(e.left), self.expr(e.right)
        return f"({left} {e.op} {right})"

    def call(self, e: Call) -> str:
        if e.fn in ("max", "min"):
            fold = "np.maximum" if e.fn == "max" else "np.minimum"
            out = self.expr(e.args[0])
            for a in e.args[1:]:
                out = f"{fold}({out}, {self.expr(a)})"
            return out
        if e.fn == "abs":
            return f"np.abs({self.expr(e.args[0])})"
        if e.fn in ("int", "float"):
            operand = e.args[0]
            rendered = self.expr(operand)
            kind = self.kind(operand)
            if e.fn == "int" and kind == "float":
                return f"np.trunc({rendered}).astype(np.int64)"
            if e.fn == "float" and kind != "float":
                return f"({rendered} * 1.0)"
            return f"({rendered})"
        raise KernelBuildError(f"call {e.fn}() is not emittable")

    def reduce(self, e: Reduce) -> str:
        ident = "_minv" if e.fn == "max" else "_maxv"
        self.ident_closure()
        fold = "np.maximum" if e.fn == "max" else "np.minimum"
        out = None
        for g, x in e.items:
            term = self.expr(x)
            if g is not None:
                term = f"np.where({self.expr(g)}, {term}, {ident})"
            out = term if out is None else f"{fold}({out}, {term})"
        if out is None:  # pragma: no cover - lifter rejects empty reduces
            raise KernelBuildError("empty reduction")
        return out

    def ident_closure(self) -> None:
        dtype = np.dtype(type(self.app).value_dtype)
        if dtype.kind in ("i", "u"):
            self.closures["_minv"] = int(np.iinfo(dtype).min // 4)
            self.closures["_maxv"] = int(np.iinfo(dtype).max // 4)
        else:
            self.closures["_minv"] = -np.inf
            self.closures["_maxv"] = np.inf

    def _index_offset(self, e: Expr):
        """``(axis, k)`` when ``e`` is ``Index +- const``, else None."""
        if isinstance(e, Index):
            return e.axis, 0
        if isinstance(e, Bin) and e.op in ("+", "-"):
            left, right = e.left, e.right
            if isinstance(left, Index) and isinstance(right, Const) and isinstance(right.value, int):
                return left.axis, (right.value if e.op == "+" else -right.value)
            if (
                e.op == "+"
                and isinstance(right, Index)
                and isinstance(left, Const)
                and isinstance(left.value, int)
            ):
                return right.axis, left.value
        return None

    def _axis_conds(self, e: Expr, temp: str, size: int) -> Optional[List[str]]:
        """Bounds comparisons for ``0 <= e < size``, minus the provable ones.

        Lane coordinates satisfy ``gi in [0, H-1]`` / ``gj in [0, W-1]``,
        so for a stencil index ``Index +- k`` at most one side of the
        bounds check can actually fail; the other folds away.
        """
        off = self._index_offset(e)
        if off is None:
            return None
        axis, k = off
        span = (self.H if axis == "i" else self.W) - 1
        conds = []
        if k < 0:
            conds.append(f"({temp} >= 0)")
        if span + k >= size:
            conds.append(f"({temp} < {size})")
        return conds

    def _bounds_mask(self, e: "Present | DepRead", r: str, c: str) -> str:
        conds = self._axis_conds(e.row, r, self.H)
        if conds is None:
            conds = [f"({r} >= 0)", f"({r} < {self.H})"]
        cconds = self._axis_conds(e.col, c, self.W)
        if cconds is None:
            cconds = [f"({c} >= 0)", f"({c} < {self.W})"]
        conds += cconds
        terms = [self.cached(cond) for cond in conds]
        if self.has_act:
            terms.append(
                self.cached(
                    f"_act(np.clip({r}, 0, {self.H - 1}),"
                    f" np.clip({c}, 0, {self.W - 1}))"
                )
            )
        if not terms:
            return "True"
        mask = terms[0]
        for term in terms[1:]:
            mask = f"np.logical_and({mask}, {term})"
        return mask

    def dep_read(self, e: DepRead) -> str:
        if e in self._cache:
            return self._cache[e]
        r = self.cached(self.expr(e.row))
        c = self.cached(self.expr(e.col))
        ri = self.cached(f"np.clip({r} - r0 + oi, 0, _wh - 1)")
        ci = self.cached(f"np.clip({c} - c0 + oj, 0, _ww - 1)")
        gather = f"window[{ri}, {ci}]"
        mask = None if e.default is None else self._bounds_mask(e, r, c)
        if mask is None or mask == "True":
            t = self.cached(gather)
        else:
            t = self.tmp()
            m = self.cached(mask)
            self.line(f"{t} = np.where({m}, {gather}, {self.expr(e.default)})")
        self._cache[e] = t
        return t

    def present(self, e: Present) -> str:
        if e in self._cache:
            return self._cache[e]
        r = self.cached(self.expr(e.row))
        c = self.cached(self.expr(e.col))
        t = self.cached(self._bounds_mask(e, r, c))
        self._cache[e] = t
        return t

    # -- case chain -------------------------------------------------------------------
    def emit_cases(
        self, cases, override: Optional[Dict[int, str]] = None
    ) -> None:
        """Emit ``_res`` = first-match decision list as a where-chain."""
        override = override or {}
        rendered = []
        for idx, (guard, value) in enumerate(cases):
            g = None if guard is None else self.expr(guard)
            v = override.get(idx) or self.expr(value)
            rendered.append((g, v))
        # the last case acts as the default: by termination, some case
        # always fires, so its guard is redundant once the others failed
        _, default = rendered[-1]
        self.line(f"_res = {default}")
        for g, v in reversed(rendered[:-1]):
            self.line(f"_res = np.where({g}, {v}, _res)")


def _emit_kernel(cls: Classification, app, dag) -> Tuple[str, Dict[str, object]]:
    act = _make_act(dag)
    em = _Emitter(app, dag, has_act=act is not None)
    if act is not None:
        em.closures["_act"] = act
    em.indent = 1
    em.line("_wh, _ww = window.shape")

    if cls.klass == "ELEMENTWISE":
        em.line("for _r in range(h):")
        em.indent = 2
        em.line("li = np.full(w, _r)")
        em.line("lj = np.arange(w)")
        _emit_level_body(em, cls, act)
    elif cls.klass == "ROW_SCAN_PREFIX":
        if act is not None:
            raise KernelBuildError(
                "prefix-scan emission requires a fully active row"
            )
        _emit_row_scan(em, cls)
    else:  # pragma: no cover - caller filters OPAQUE and the flat sweep
        raise KernelBuildError(f"no emitter for class {cls.klass}")

    em.indent = 1
    em.line("return True")
    body = "\n".join(em.lines)
    source = f"def compute_tile(r0, c0, window, oi, oj, h, w):\n{body}\n"
    return source, em.closures


def _emit_level_body(em: _Emitter, cls: Classification, act) -> None:
    em.line("gi = r0 + li")
    em.line("gj = c0 + lj")
    if act is not None:
        em.line("_ok = _act(gi, gj)")
        em.line("li, lj = li[_ok], lj[_ok]")
        em.line("gi, gj = gi[_ok], gj[_ok]")
        em.line("if gi.size == 0:")
        em.line("    continue")
    em.line("wi = oi + li")
    em.line("wj = oj + lj")
    em.reset_cache()
    em.emit_cases(cls.ir.cases)  # type: ignore[union-attr]
    em.line("window[wi, wj] = _res")


def _emit_row_scan(em: _Emitter, cls: Classification) -> None:
    form = cls.row_scan
    assert form is not None and cls.ir is not None
    em.ident_closure()
    em.line("lj = np.arange(w)")
    em.line("gj = c0 + lj")
    em.line("for _r in range(h):")
    em.indent = 2
    em.line("li = np.full(w, _r)")
    em.line("gi = r0 + li")
    em.line("wi = oi + _r")
    em.line("wj = oj + lj")
    em.reset_cache()
    # the stride is row-constant: render it against scalar coordinates
    scalar = _ScalarRowEmitter(em)
    em.line(f"_stride = int({scalar.expr(form.stride)})")
    em.line(f"_base = np.zeros(w, dtype=window.dtype) + ({em.expr(form.base)})")
    for idx in reversed(form.pins):
        # pinned cases chain through the scan: their (dependency-free)
        # values join the base wherever their guards fire
        guard, value = cls.ir.cases[idx]
        assert guard is not None
        em.line(
            f"_base = np.where({em.expr(guard)}, {em.expr(value)}, _base)"
        )
    em.line("_nc = -(-w // _stride)")
    em.line("_B = np.concatenate([_base, np.full(_nc * _stride - w, _minv, dtype=_base.dtype)]).reshape(_nc, _stride)")
    em.line("_sr = np.arange(_stride)")
    em.line("_seed = np.where(c0 + _sr - _stride >= 0, window[wi, np.clip(oj + _sr - _stride, 0, _ww - 1)], _minv)")
    if form.lane_add:
        # lane-varying add: v_k = max(b_k, v_{k-1} + a_k) solves to
        # accumulate(b - S) + S with S the inclusive prefix sum of a
        em.line(f"_addv = np.zeros(w, dtype=window.dtype) + ({em.expr(form.add)})")
        em.line("_A = np.concatenate([_addv, np.zeros(_nc * _stride - w, dtype=_addv.dtype)]).reshape(_nc, _stride)")
        em.line("_B[0] = np.maximum(_B[0], _seed + _A[0])")
        em.line("_S = np.cumsum(_A, axis=0)")
        em.line("_T = np.maximum.accumulate(_B - _S, axis=0) + _S")
    else:
        em.line(f"_add = {scalar.expr(form.add)}")
        em.line("_B[0] = np.maximum(_B[0], _seed + _add)")
        em.line("_k = np.arange(_nc)[:, None]")
        em.line("_T = np.maximum.accumulate(_B - _k * _add, axis=0) + _k * _add")
    em.line("_scan = _T.reshape(-1)[:w]")
    em.emit_cases(cls.ir.cases, override={_scan_case_index(cls): "_scan"})
    em.line("window[wi, wj] = _res")


def _scan_case_index(cls: Classification) -> int:
    form = cls.row_scan
    assert form is not None and cls.ir is not None
    from .ir import walk_expr

    for idx, (guard, value) in enumerate(cls.ir.cases):
        if any(n == form.read for n in walk_expr(value)):
            return idx
    raise KernelBuildError("row-scan case vanished")  # pragma: no cover


class _ScalarRowEmitter:
    """Renders row-constant exprs with scalar ``gi`` (``r0 + _r``)."""

    def __init__(self, em: _Emitter) -> None:
        self.em = em

    def expr(self, e: Expr) -> str:
        if isinstance(e, Index):
            if e.axis == "i":
                return "(r0 + _r)"
            raise KernelBuildError("j inside a row-constant expression")
        if isinstance(e, SelfElem):
            name, shape = self.em.array_closure(e.attr)
            return f"{name}[np.clip({self.expr(e.index)}, 0, {shape[0] - 1})]"
        if isinstance(e, SelfElem2):
            name, shape = self.em.array_closure(e.attr)
            return (
                f"{name}[np.clip({self.expr(e.row)}, 0, {shape[0] - 1}),"
                f" np.clip({self.expr(e.col)}, 0, {shape[1] - 1})]"
            )
        if isinstance(e, SelfScalar):
            return self.em.scalar_closure(e.attr)
        if isinstance(e, Const):
            return repr(e.value)
        if isinstance(e, Bin):
            return f"({self.expr(e.left)} {e.op} {self.expr(e.right)})"
        if isinstance(e, Neg):
            return f"(-{self.expr(e.operand)})"
        if isinstance(e, Call) and e.fn in ("max", "min", "abs", "int", "float"):
            args = ", ".join(self.expr(a) for a in e.args)
            return f"{e.fn}({args})"
        raise KernelBuildError(
            f"{type(e).__name__} inside a row-constant expression"
        )


def _kernel_for(cls: Classification, app, dag) -> AutoKernel:
    """Emit the kernel for a non-OPAQUE classification (may raise)."""
    if cls.klass in ("TENSOR_HYPERPLANE", "TREE_LEVEL_GATHER"):
        from .domainkern import TensorHyperplaneKernel, TreeLevelKernel

        maker = (
            TensorHyperplaneKernel
            if cls.klass == "TENSOR_HYPERPLANE"
            else TreeLevelKernel
        )
        k = maker(app, dag)
        return AutoKernel(
            fn=k,
            pads=k.pads,
            klass=cls.klass,
            subject=cls.subject,
            source=k.source,
            mode=k.mode,
        )
    pads = _pads_for(cls.entries, app)
    if cls.klass == "ANTIDIAG_WAVEFRONT":
        from .flatsweep import build_flat_sweep

        k = build_flat_sweep(cls, app, dag, pads)
        return AutoKernel(
            fn=k,
            pads=pads,
            klass=cls.klass,
            subject=cls.subject,
            source=k.source,
        )
    source, closures = _emit_kernel(cls, app, dag)
    namespace = dict(closures)
    code = compile(source, f"<autokernel:{cls.subject}>", "exec")
    exec(code, namespace)
    return AutoKernel(
        fn=namespace["compute_tile"],
        pads=pads,
        klass=cls.klass,
        subject=cls.subject,
        source=source,
    )


def _spec_for(cls: Classification) -> KernelSpec:
    return KernelSpec(
        subject=cls.subject,
        klass=cls.klass,
        rank=cls.rank,
        ir=cls.ir,
        entries=cls.entries,
        row_scan=cls.row_scan,
        case_kinds=cls.case_kinds,
    )


def kernel_from_spec(spec: KernelSpec, app, dag) -> Optional[AutoKernel]:
    """Re-emit a kernel from a shipped :class:`KernelSpec`.

    Skips classification and the numeric probes — the master already
    ran them pre-fork; the spec is trusted. Returns None when emission
    fails (the worker then computes interpreted, never wrongly).
    """
    cls = Classification(
        subject=spec.subject,
        klass=spec.klass,
        report=AnalysisReport(subject=spec.subject),
        ir=spec.ir,
        entries=spec.entries,
        rank=spec.rank,
        row_scan=spec.row_scan,
        case_kinds=spec.case_kinds,
    )
    try:
        kernel = _kernel_for(cls, app, dag)
    except KernelBuildError:
        return None
    kernel.spec = spec
    return kernel


def build_autokernel(app, dag, subject: str = ""):
    """Classify ``app`` and emit its tile kernel.

    Returns ``(AutoKernel | None, Classification)``. The build is a pure
    function of ``(type(app), app data, dag)``; the returned kernel
    carries a picklable ``spec`` so multiprocessing workers re-emit it
    from :func:`kernel_from_spec` instead of pickling the generated
    function (or re-running classification post-fork).
    """
    cls = classify_app(app, dag, subject=subject)
    if cls.klass == "OPAQUE":
        return None, cls
    try:
        kernel = _kernel_for(cls, app, dag)
    except KernelBuildError as exc:
        cls.report.add("DP403", f"kernel emission failed: {exc}")
        cls.klass = "OPAQUE"
        return None, cls
    kernel.spec = _spec_for(cls)
    return kernel, cls
