"""Inference passes over the lifted ``compute()`` IR.

Three passes feed the classifier (:mod:`repro.analysis.classify`):

* :func:`analyze_effects` — AST-level effect/purity analysis: what the
  recurrence reads from ``self`` and module globals, what it mutates,
  and which calls leave the whitelisted numeric core (including the
  nondeterminism sources the lint flags as DP202).
* :func:`infer_types` — dtype inference seeded from ``value_dtype``:
  every expression gets a kind (``int``/``float``/``bool``/``str``/the
  value dtype) and each case's value must unify with the cell dtype.
* :func:`footprint` — dependency-footprint extraction: every
  :class:`~repro.analysis.ir.DepRead`/``Present`` index resolved to
  :class:`~repro.analysis.ir.AffineIndex` form (``axis + const +
  data terms``), which is what lets ``(i-1, j - self.weights[i-1])``
  be cross-checked against the pattern's declared stencil instead of
  dead-ending in a DP204 note.

:func:`probe_footprint` then evaluates those affine indices on a sample
of real cells (using the app's actual data) and compares each reachable
read against ``dag.get_dependency`` — the numeric cross-check behind
DP404.

Pure ``ast``/IR module: no ``repro.core`` imports, so it is safe to pull
into the light ``repro.analysis`` import surface.
"""

from __future__ import annotations

import ast
import builtins
import functools
import inspect
import operator
import textwrap
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .ir import (
    AffineIndex,
    Bin,
    BoolE,
    Call,
    Cmp,
    ComputeIR,
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
)
from .lint import _NONDET_ATTRS, _NONDET_BUILTINS, _NONDET_ROOTS

__all__ = [
    "Effects",
    "InferError",
    "FootEntry",
    "analyze_effects",
    "infer_types",
    "footprint",
    "compile_expr",
    "probe_footprint",
    "sample_cells",
    "NO_DATA",
]

#: call roots that never count as foreign: the numeric core, the harness
#: API, and pure builtins (loopy-but-pure bodies should demote as DP401,
#: not DP405)
_CORE_CALLS = {
    "max",
    "min",
    "abs",
    "int",
    "float",
    "bool",
    "len",
    "sum",
    "range",
    "enumerate",
    "zip",
    "sorted",
    "reversed",
    "list",
    "tuple",
    "dict",
    "set",
    "frozenset",
    "dependency_map",
}
#: method names that are part of the harness contract, not effects
_CORE_METHODS = {"get", "get_result", "append", "values", "items", "keys"}


class InferError(Exception):
    """A pass could not complete (type conflict, non-affine index, ...)."""


# -- effect / purity analysis ---------------------------------------------------------
@dataclass
class Effects:
    """What a ``compute()`` body touches beyond its dependency reads."""

    self_reads: Tuple[str, ...] = ()
    self_writes: Tuple[str, ...] = ()
    global_reads: Tuple[str, ...] = ()
    global_writes: Tuple[str, ...] = ()
    foreign_calls: Tuple[str, ...] = ()
    nondet_calls: Tuple[str, ...] = ()

    @property
    def pure(self) -> bool:
        return not (self.self_writes or self.global_writes or self.foreign_calls)

    def describe(self) -> str:
        bits = []
        if self.self_writes:
            bits.append(f"writes self.{'/self.'.join(self.self_writes)}")
        if self.global_writes:
            bits.append(f"mutates global {'/'.join(self.global_writes)}")
        if self.nondet_calls:
            bits.append(f"nondeterministic call {'/'.join(self.nondet_calls)}")
        foreign = [c for c in self.foreign_calls if c not in self.nondet_calls]
        if foreign:
            bits.append(f"calls {'/'.join(foreign)} outside the numeric core")
        return "; ".join(bits) if bits else "pure"


def _call_chain(node: ast.AST) -> List[str]:
    chain: List[str] = []
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        chain.append(node.id)
    chain.reverse()
    return chain


def analyze_effects(compute_fn) -> Effects:
    """Effect analysis of a ``compute`` function (AST-level, total)."""
    source = textwrap.dedent(inspect.getsource(compute_fn))
    tree = ast.parse(source)
    fn = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef))
    globals_ns = getattr(compute_fn, "__globals__", {}) or {}

    args = fn.args
    local: set = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            local.add(node.id)
        elif isinstance(node, ast.For) and isinstance(node.target, ast.Name):
            local.add(node.target.id)
        elif isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
            for comp in node.generators:
                for sub in ast.walk(comp.target):
                    if isinstance(sub, ast.Name):
                        local.add(sub.id)

    self_reads: List[str] = []
    self_writes: List[str] = []
    global_reads: List[str] = []
    global_writes: List[str] = []
    foreign: List[str] = []
    nondet: List[str] = []

    def note(bucket: List[str], name: str) -> None:
        if name not in bucket:
            bucket.append(name)

    for node in ast.walk(fn):
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                if isinstance(node.ctx, ast.Store):
                    note(self_writes, node.attr)
                else:
                    note(self_reads, node.attr)
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            base = node.value
            if (
                isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id == "self"
            ):
                note(self_writes, base.attr)
            elif isinstance(base, ast.Name) and base.id not in local:
                note(global_writes, base.id)
        elif isinstance(node, ast.AugAssign):
            target = node.target
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                note(self_writes, target.attr)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
            if (
                name not in local
                and name != "self"
                and not hasattr(builtins, name)
                and name in globals_ns
            ):
                note(global_reads, name)
        elif isinstance(node, ast.Call):
            chain = _call_chain(node.func)
            if not chain:
                continue
            root = chain[0]
            dotted = ".".join(chain)
            if root in _NONDET_ROOTS or (
                len(chain) > 1 and set(chain[1:]) & _NONDET_ATTRS
            ):
                note(nondet, dotted)
                note(foreign, dotted)
            elif len(chain) == 1 and root in _NONDET_BUILTINS:
                note(nondet, dotted)
                note(foreign, dotted)
            elif len(chain) == 1:
                if root not in _CORE_CALLS and root not in local:
                    note(foreign, dotted)
            else:
                if chain[-1] not in _CORE_METHODS and root != "self":
                    note(foreign, dotted)
                elif root == "self" and chain[-1] not in _CORE_METHODS:
                    note(foreign, dotted)
    return Effects(
        self_reads=tuple(self_reads),
        self_writes=tuple(self_writes),
        global_reads=tuple(global_reads),
        global_writes=tuple(global_writes),
        foreign_calls=tuple(foreign),
        nondet_calls=tuple(nondet),
    )


# -- dtype inference ------------------------------------------------------------------
_NUM_ORDER = {"bool": 0, "int": 1, "value": 1, "float": 2}


def _unify(a: str, b: str) -> str:
    if a == b:
        return a
    if a == "str" or b == "str":
        raise InferError(f"cannot unify {a} with {b}")
    return a if _NUM_ORDER[a] >= _NUM_ORDER[b] else b


def _elem_kind(app, attr: str) -> str:
    """Kind of an element of ``app.<attr>`` (str char, list item, array cell)."""
    data = getattr(app, attr, None)
    if isinstance(data, str):
        return "str"
    if isinstance(data, (list, tuple)):
        head = data[0] if data else 0
        return _scalar_kind(head)
    kind = getattr(getattr(data, "dtype", None), "kind", None)
    if kind in ("i", "u"):
        return "int"
    if kind == "f":
        return "float"
    if kind == "b":
        return "bool"
    if kind in ("U", "S"):
        return "str"
    raise InferError(f"cannot infer element kind of self.{attr}")


def _scalar_kind(value) -> str:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "float"
    if isinstance(value, str):
        return "str"
    kind = getattr(getattr(value, "dtype", None), "kind", None)
    if kind in ("i", "u"):
        return "int"
    if kind == "f":
        return "float"
    raise InferError(f"cannot infer kind of constant {value!r}")


def _expr_kind(e: Expr, app) -> str:
    if isinstance(e, Const):
        return _scalar_kind(e.value)
    if isinstance(e, Index):
        return "int"
    if isinstance(e, DepRead):
        kind = "value"
        if e.default is not None:
            kind = _unify(kind, _expr_kind(e.default, app))
        return kind
    if isinstance(e, Present):
        return "bool"
    if isinstance(e, SelfScalar):
        if app is None:
            return "int"
        return _scalar_kind(getattr(app, e.attr))
    if isinstance(e, (SelfElem, SelfElem2)):
        idxs = (e.index,) if isinstance(e, SelfElem) else (e.row, e.col)
        for idx in idxs:
            k = _expr_kind(idx, app)
            if k not in ("int", "bool", "value"):
                raise InferError(f"non-integer subscript of self.{e.attr}")
        return "int" if app is None else _elem_kind(app, e.attr)
    if isinstance(e, Bin):
        lk, rk = _expr_kind(e.left, app), _expr_kind(e.right, app)
        if lk == "str" or rk == "str":
            raise InferError(f"string arithmetic in {e.op!r}")
        return _unify(lk, rk)
    if isinstance(e, Neg):
        k = _expr_kind(e.operand, app)
        if k == "str":
            raise InferError("negation of a string")
        return k
    if isinstance(e, Cmp):
        lk, rk = _expr_kind(e.left, app), _expr_kind(e.right, app)
        if ("str" in (lk, rk)) and lk != rk:
            raise InferError(f"comparison of {lk} with {rk}")
        if "str" in (lk, rk) and e.op not in ("==", "!="):
            raise InferError("ordered comparison of strings")
        return "bool"
    if isinstance(e, (BoolE, NotE)):
        return "bool"
    if isinstance(e, Call):
        if e.fn == "int":
            return "int"
        if e.fn == "float":
            return "float"
        kinds = [_expr_kind(a, app) for a in e.args]
        out = "bool"
        for k in kinds:
            out = _unify(out, k)
        return out
    if isinstance(e, Cond):
        _expr_kind(e.test, app)
        return _unify(_expr_kind(e.then, app), _expr_kind(e.orelse, app))
    if isinstance(e, Reduce):
        out = None
        for g, x in e.items:
            if g is not None:
                _expr_kind(g, app)
            k = _expr_kind(x, app)
            out = k if out is None else _unify(out, k)
        return out or "int"
    raise InferError(f"untypable IR node {type(e).__name__}")  # pragma: no cover


def infer_types(ir: ComputeIR, value_dtype, app=None) -> Dict[int, str]:
    """Check each case types against ``value_dtype``; returns case kinds.

    ``value_dtype`` only selects the target family (integer/float); the
    pass raises :class:`InferError` on kind conflicts (string results,
    string arithmetic, ordered string comparisons).
    """
    import numpy as np

    target = "float" if np.dtype(value_dtype).kind == "f" else "int"
    out: Dict[int, str] = {}
    for idx, (guard, value) in enumerate(ir.cases):
        if guard is not None:
            gk = _expr_kind(guard, app)
            if gk == "str":
                raise InferError(f"case {idx} guard has kind {gk}")
        vk = _expr_kind(value, app)
        if vk == "str":
            raise InferError(f"case {idx} produces a string value")
        if vk == "float" and target == "int":
            raise InferError(
                f"case {idx} produces a float for an integer value_dtype"
            )
        out[idx] = vk
    return out


# -- dependency-footprint extraction --------------------------------------------------
@dataclass(frozen=True)
class FootEntry:
    """One dependency access with affine-resolved indices.

    ``optional`` marks accesses that tolerate absence (``dep.get`` with
    a default, or a ``Present`` guard probe).
    """

    row: AffineIndex
    col: AffineIndex
    optional: bool
    read: Optional[DepRead] = None

    @property
    def data_dependent(self) -> bool:
        return self.row.data_dependent or self.col.data_dependent

    @property
    def const_offset(self) -> Optional[Tuple[int, int]]:
        """(di, dj) when both indices are pure ``axis + const`` form."""
        if (
            self.row.axis == "i"
            and self.col.axis == "j"
            and not self.row.terms
            and not self.col.terms
        ):
            return (self.row.const, self.col.const)
        return None


def footprint(ir: ComputeIR) -> List[FootEntry]:
    """Resolve every dependency access to affine form.

    Raises :class:`InferError` when an index cannot be written as
    ``axis + const + data terms`` — the unresolvable case that keeps
    DP204 a note.
    """
    entries: List[FootEntry] = []
    for e in ir.exprs():
        if isinstance(e, (DepRead, Present)):
            row, col = affine_of(e.row), affine_of(e.col)
            if row is None or col is None:
                raise InferError(
                    f"dependency index {ir and '' or ''}({e.row}, {e.col})"
                    " is not affine"
                )
            if row.axis != "i" or col.axis != "j":
                raise InferError(
                    "dependency index does not follow (i + di, j + dj) form"
                )
            optional = isinstance(e, Present) or (
                isinstance(e, DepRead) and e.default is not None
            )
            entry = FootEntry(
                row=row,
                col=col,
                optional=optional,
                read=e if isinstance(e, DepRead) else None,
            )
            if entry not in entries:
                entries.append(entry)
    return entries


# -- the compiled evaluator / numeric probing ----------------------------------------
class _NeedsDep(Exception):
    """A compiled expression hit a DepRead/Present: unknown without a solve."""


def _needs_dep(i, j, app):
    raise _NeedsDep()


class _NoData:
    """An app whose every ``self`` value is unknown to the probes."""

    def __getattr__(self, name):
        raise _NeedsDep()


#: the data-free view of an app (``classify_app(..., data=False)``)
NO_DATA = _NoData()


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
        "//": operator.floordiv, "%": operator.mod, "==": operator.eq,
        "!=": operator.ne, "<": operator.lt, "<=": operator.le,
        ">": operator.gt, ">=": operator.ge}
_CALLS = {"max": max, "min": min, "abs": abs, "int": int, "float": float}


def compile_expr(e: Expr):
    """``e`` as a closure ``f(i, j, app)`` that evaluates it at cell ``(i, j)``.

    Dependency reads/presence tests (and a ``Reduce`` with no live
    candidate) raise an internal marker the probe treats as "unknown";
    everything else evaluates with the app's real data, read from ``app``
    at call time — which is what resolves data-dependent indices
    numerically, and why one compilation serves every instance.
    """
    if isinstance(e, Const):
        v = e.value
        return lambda i, j, app: v
    if isinstance(e, Index):
        return (lambda i, j, app: i) if e.axis == "i" else (lambda i, j, app: j)
    if isinstance(e, (DepRead, Present)):
        return _needs_dep
    if isinstance(e, SelfScalar):
        attr = e.attr
        return lambda i, j, app: getattr(app, attr)
    if isinstance(e, SelfElem):
        attr, ix = e.attr, compile_expr(e.index)
        return lambda i, j, app: getattr(app, attr)[ix(i, j, app)]
    if isinstance(e, SelfElem2):
        attr, r, c = e.attr, compile_expr(e.row), compile_expr(e.col)
        return lambda i, j, app: getattr(app, attr)[r(i, j, app), c(i, j, app)]
    if isinstance(e, (Bin, Cmp)):
        op, a, b = _OPS[e.op], compile_expr(e.left), compile_expr(e.right)
        return lambda i, j, app: op(a(i, j, app), b(i, j, app))
    if isinstance(e, (Neg, NotE)):
        op, f = operator.neg if isinstance(e, Neg) else operator.not_, compile_expr(e.operand)
        return lambda i, j, app: op(f(i, j, app))
    if isinstance(e, BoolE):
        ps, any_all = tuple(map(compile_expr, e.parts)), all if e.op == "and" else any
        return lambda i, j, app: any_all(p(i, j, app) for p in ps)
    if isinstance(e, Call):
        fn, args = _CALLS[e.fn], tuple(map(compile_expr, e.args))
        return lambda i, j, app: fn(*[a(i, j, app) for a in args])
    if isinstance(e, Cond):
        t, a, b = compile_expr(e.test), compile_expr(e.then), compile_expr(e.orelse)
        return lambda i, j, app: a(i, j, app) if t(i, j, app) else b(i, j, app)
    if isinstance(e, Reduce):
        fn = max if e.fn == "max" else min
        items = tuple(
            (None if g is None else compile_expr(g), compile_expr(x)) for g, x in e.items
        )

        def reduce_(i, j, app):
            vals = [x(i, j, app) for g, x in items if g is None or g(i, j, app)]
            if not vals:
                raise _NeedsDep()  # empty candidate set: treat as unknown
            return fn(vals)

        return reduce_
    raise InferError(f"unevaluable IR node {type(e).__name__}")  # pragma: no cover


def sample_cells(dag, limit: int = 144) -> List[Tuple[int, int]]:
    """A deterministic grid sample of active cells (corners included)."""
    h, w = dag.height, dag.width
    steps = max(1, int(limit**0.5))
    ivals = sorted({0, h - 1, *(r * (h - 1) // max(1, steps - 1) for r in range(steps))})
    jvals = sorted({0, w - 1, *(c * (w - 1) // max(1, steps - 1) for c in range(steps))})
    cells = []
    for i in ivals:
        for j in jvals:
            if dag.is_active(i, j):
                cells.append((i, j))
    return cells[:limit]


def _seq(plans):
    """Run the non-``None`` read plans in order (``None`` if there are none)."""
    plans = tuple(p for p in plans if p is not None)
    if len(plans) <= 1:
        return plans[0] if plans else None

    def seq(i, j, app, out):
        for p in plans:
            p(i, j, app, out)

    return seq


#: a branch that reads nothing (a Reduce item's or a decision list's miss)
_NOTHING = Const(None)


def _read_plan(e: Expr):
    """A closure ``f(i, j, app, out)`` appending, in pre-order, the
    ``(row, col, optional)`` reads of ``e`` that may execute at ``(i, j)``;
    ``None`` when ``e`` holds no DepRead/Present and so can add no read.

    Inner guards are respected when they evaluate with data alone: a
    ``Cond`` only contributes its taken branch and a ``Reduce`` only its
    live candidates, which is what keeps guarded reads like MTP's
    ``i > 0 => dep[(i-1, j)]`` from tripping false DP404s on the border.
    An unknown guard contributes its own reads and both sides.
    """
    if isinstance(e, (DepRead, Present)):
        default = e.default if isinstance(e, DepRead) else None
        read = (compile_expr(e.row), compile_expr(e.col),
                default is not None or isinstance(e, Present))
        return _seq([lambda i, j, app, out: out.append(read),
                     None if default is None else _read_plan(default)])
    if isinstance(e, Cond):
        then, orelse = _read_plan(e.then), _read_plan(e.orelse)
        unknown, test = _seq([_read_plan(e.test), then, orelse]), compile_expr(e.test)

        def cond(i, j, app, out):
            try:
                branch = then if test(i, j, app) else orelse
            except _NeedsDep:
                branch = unknown
            if branch is not None:
                branch(i, j, app, out)

        return None if unknown is None else cond
    if isinstance(e, Reduce):  # each guarded candidate reads as ``g ? x : nothing``
        return _seq([_read_plan(x if g is None else Cond(g, x, _NOTHING)) for g, x in e.items])
    return _seq([_read_plan(c) for c in children(e)])


@functools.lru_cache(maxsize=64)
def _probe_plan(cases) -> object:
    """``ir.cases`` compiled for :func:`probe_footprint`, memoized per IR:
    it holds no instance data, so every build still probes its own app.

    The decision list is the chain ``g1 ? v1 : (g2 ? v2 : ...)``, which the
    Cond rule reads exactly as the cases run: a false guard moves on, a
    true one stops, an unknown one adds its own and its value's reads and
    moves on.
    """
    chain: Expr = _NOTHING
    for guard, value in reversed(cases):
        chain = value if guard is None else Cond(guard, value, chain)
    return _read_plan(chain)


def probe_footprint(
    ir: ComputeIR,
    app,
    dag,
    limit: int = 144,
) -> List[str]:
    """Numerically cross-check the footprint against the declared DAG.

    For a sample of active cells, resolve every reachable dependency
    index with the app's real data and require each mandatory read to be
    declared by ``dag.get_dependency``; optional reads (``dep.get`` /
    scan presence) must be declared whenever in bounds and active.
    Returns human-readable problem strings (empty = consistent).
    """
    plan = _probe_plan(ir.cases)
    problems: List[str] = []
    if plan is None:  # no case reads a dependency
        return problems
    h, w = dag.height, dag.width
    for i, j in sample_cells(dag, limit):
        declared, reads = None, []
        plan(i, j, app, reads)
        for row, col, optional in reads:
            try:
                ri, rj = row(i, j, app), col(i, j, app)
            except _NeedsDep:  # pragma: no cover - indices are data-only
                continue
            if not (0 <= ri < h and 0 <= rj < w) or not dag.is_active(ri, rj):
                if not optional:
                    problems.append(
                        f"cell ({i}, {j}) reads ({ri}, {rj}) which is outside the DAG"
                    )
                continue
            if declared is None:
                declared = {(d.i, d.j) for d in dag.get_dependency(i, j)}
            if (ri, rj) not in declared:
                problems.append(
                    f"cell ({i}, {j}) reads ({ri}, {rj}) but the pattern"
                    f" declares only {sorted(declared)}"
                )
        if len(problems) >= 5:
            break
    return problems
