"""Typed dataflow IR for user ``compute()`` recurrences.

The AST lint (:mod:`repro.analysis.lint`) answers "does this read look
declared?"; this module answers the stronger question "what *is* this
recurrence?". :func:`lift_compute` symbolically executes the restricted
Python subset DP recurrences are written in — straight-line assignments,
``if``/``elif`` chains, ``dependency_map`` lookups, candidate lists with
guarded ``append``, numeric calls — and produces a :class:`ComputeIR`: a
decision list of ``(guard, value)`` cases over a small expression
language whose leaves are the cell indices, ``self`` data and dependency
reads.

Downstream passes run over the IR, never the AST:

* :mod:`repro.analysis.infer` — dtype inference, effect analysis and
  dependency-footprint extraction (affine index resolution);
* :mod:`repro.analysis.classify` — the vectorization-class verdict;
* :mod:`repro.analysis.codegen` — NumPy tile-kernel emission.

Anything outside the liftable subset (loops, comprehensions, foreign
calls, writes through ``self``) raises :class:`LiftError` with the
offending construct and line — surfaced as a DP401 finding, never a
crash.

Like the lint, this module is imported from ``repro.analysis.__init__``
territory and therefore must not import ``repro.core`` / ``repro.patterns``
/ ``repro.apps``: it is pure ``ast`` + dataclasses.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from dataclasses import dataclass, fields
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "LiftError",
    "Expr",
    "Const",
    "Index",
    "SelfScalar",
    "SelfElem",
    "SelfElem2",
    "DepRead",
    "Present",
    "Bin",
    "Neg",
    "Cmp",
    "BoolE",
    "NotE",
    "Call",
    "Cond",
    "Reduce",
    "ComputeIR",
    "AffineIndex",
    "lift_compute",
    "lift_function",
    "normalize",
    "affine_of",
    "expr_to_str",
]

#: calls considered part of the whitelisted numeric core
NUMERIC_CALLS = ("max", "min", "abs", "int", "float")


class LiftError(Exception):
    """``compute()`` uses a construct outside the liftable subset."""

    def __init__(self, reason: str, lineno: Optional[int] = None) -> None:
        self.reason = reason
        self.lineno = lineno
        suffix = f" (line {lineno})" if lineno is not None else ""
        super().__init__(reason + suffix)


# -- expression nodes -----------------------------------------------------------------
@dataclass(frozen=True)
class Expr:
    """Base class for IR expressions (frozen: structural equality)."""


@dataclass(frozen=True)
class Const(Expr):
    value: object


@dataclass(frozen=True)
class Index(Expr):
    """One of the two cell coordinates; ``axis`` is ``"i"`` or ``"j"``."""

    axis: str


@dataclass(frozen=True)
class SelfScalar(Expr):
    """A plain ``self.<attr>`` load (run-constant app data)."""

    attr: str


@dataclass(frozen=True)
class SelfElem(Expr):
    """A 1-D ``self.<attr>[index]`` load (string, list, 1-D array)."""

    attr: str
    index: Expr


@dataclass(frozen=True)
class SelfElem2(Expr):
    """A 2-D ``self.<attr>[row, col]`` load."""

    attr: str
    row: Expr
    col: Expr


@dataclass(frozen=True)
class DepRead(Expr):
    """A dependency-map lookup: ``dep[(row, col)]`` / ``dep.get(..., default)``."""

    row: Expr
    col: Expr
    default: Optional[Expr] = None


@dataclass(frozen=True)
class Present(Expr):
    """True iff dependency ``(row, col)`` of the current cell exists.

    Produced when lifting the coordinate-scan idiom (``for vertex in
    vertices: if vertex.i == ... and vertex.j == ...``): the loop body
    only runs for dependencies that are in bounds, active and declared,
    which this guard encodes.
    """

    row: Expr
    col: Expr


@dataclass(frozen=True)
class Bin(Expr):
    op: str  # + - * // %
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr


@dataclass(frozen=True)
class Cmp(Expr):
    op: str  # == != < <= > >=
    left: Expr
    right: Expr


@dataclass(frozen=True)
class BoolE(Expr):
    op: str  # and / or
    parts: Tuple[Expr, ...]


@dataclass(frozen=True)
class NotE(Expr):
    operand: Expr


@dataclass(frozen=True)
class Call(Expr):
    fn: str  # one of NUMERIC_CALLS
    args: Tuple[Expr, ...]


@dataclass(frozen=True)
class Cond(Expr):
    """``then if test else orelse`` — also the phi node for branch merges."""

    test: Expr
    then: Expr
    orelse: Expr


@dataclass(frozen=True)
class Reduce(Expr):
    """``max``/``min`` over guarded candidates (the candidates-list idiom).

    ``items`` holds ``(guard, expr)`` pairs; ``guard=None`` means the
    candidate is always present.
    """

    fn: str
    items: Tuple[Tuple[Optional[Expr], Expr], ...]


#: field names per node class: ``dataclasses.fields()`` per visited node
#: dominated every IR walk
_FIELD_NAMES: Dict[type, Tuple[str, ...]] = {}


def children(e: Expr) -> Iterator[Expr]:
    """The direct sub-expressions of ``e``, in field order (Reduce guards
    before their candidates)."""
    names = _FIELD_NAMES.get(type(e))
    if names is None:
        names = _FIELD_NAMES[type(e)] = tuple(f.name for f in fields(e))
    for name in names:
        v = getattr(e, name)
        if isinstance(v, Expr):
            yield v
        elif isinstance(v, tuple):
            for item in v:
                if isinstance(item, Expr):
                    yield item
                elif isinstance(item, tuple):  # Reduce items
                    yield from (sub for sub in item if isinstance(sub, Expr))


def walk_expr(e: Expr) -> Iterator[Expr]:
    """Yield ``e`` and every sub-expression, depth-first."""
    yield e
    for child in children(e):
        yield from walk_expr(child)


# -- the lifted program ---------------------------------------------------------------
@dataclass
class ComputeIR:
    """A ``compute()`` body as a decision list of guarded value cases.

    Cases are tried in order; the first whose guard holds supplies the
    cell value (``guard=None`` always holds). The lifter only produces a
    terminating list — a recurrence that can fall off the end is a
    :class:`LiftError`.
    """

    cases: Tuple[Tuple[Optional[Expr], Expr], ...]
    pi: str = "i"
    pj: str = "j"

    def exprs(self) -> Iterator[Expr]:
        for guard, value in self.cases:
            if guard is not None:
                yield from walk_expr(guard)
            yield from walk_expr(value)

    def dep_reads(self) -> List[DepRead]:
        """Every dependency read, in deterministic program order."""
        seen: List[DepRead] = []
        for e in self.exprs():
            if isinstance(e, DepRead) and e not in seen:
                seen.append(e)
        return seen

    def pretty(self) -> str:
        """Stable textual form (golden-tested per built-in app)."""
        lines = [f"compute({self.pi}, {self.pj}):"]
        for guard, value in self.cases:
            head = "else" if guard is None else f"when {expr_to_str(guard)}"
            lines.append(f"  {head} -> {expr_to_str(value)}")
        return "\n".join(lines)


# -- rendering ------------------------------------------------------------------------
def expr_to_str(e: Expr) -> str:
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Index):
        return e.axis
    if isinstance(e, SelfScalar):
        return f"self.{e.attr}"
    if isinstance(e, SelfElem):
        return f"self.{e.attr}[{expr_to_str(e.index)}]"
    if isinstance(e, SelfElem2):
        return f"self.{e.attr}[{expr_to_str(e.row)}, {expr_to_str(e.col)}]"
    if isinstance(e, DepRead):
        key = f"({expr_to_str(e.row)}, {expr_to_str(e.col)})"
        if e.default is None:
            return f"dep[{key}]"
        return f"dep.get({key}, {expr_to_str(e.default)})"
    if isinstance(e, Present):
        return f"present({expr_to_str(e.row)}, {expr_to_str(e.col)})"
    if isinstance(e, Bin):
        return f"({expr_to_str(e.left)} {e.op} {expr_to_str(e.right)})"
    if isinstance(e, Neg):
        return f"(-{expr_to_str(e.operand)})"
    if isinstance(e, Cmp):
        return f"({expr_to_str(e.left)} {e.op} {expr_to_str(e.right)})"
    if isinstance(e, BoolE):
        return "(" + f" {e.op} ".join(expr_to_str(p) for p in e.parts) + ")"
    if isinstance(e, NotE):
        return f"(not {expr_to_str(e.operand)})"
    if isinstance(e, Call):
        return f"{e.fn}({', '.join(expr_to_str(a) for a in e.args)})"
    if isinstance(e, Cond):
        return (
            f"({expr_to_str(e.then)} if {expr_to_str(e.test)}"
            f" else {expr_to_str(e.orelse)})"
        )
    if isinstance(e, Reduce):
        parts = [
            expr_to_str(x) if g is None else f"{expr_to_str(g)} => {expr_to_str(x)}"
            for g, x in e.items
        ]
        return f"{e.fn}{{{', '.join(parts)}}}"
    raise TypeError(f"unrenderable IR node {type(e).__name__}")  # pragma: no cover


# -- the lifter -----------------------------------------------------------------------
class _Poison:
    """A name defined on only one side of a branch merge; reading it fails."""

    __slots__ = ("reason",)

    def __init__(self, reason: str) -> None:
        self.reason = reason

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Poison)

    def __hash__(self) -> int:  # pragma: no cover - not dict-keyed
        return hash("_Poison")


class _ListVal:
    """A lifted candidates list: guarded items accumulated by ``append``."""

    __slots__ = ("items",)

    def __init__(self, items: Sequence[Tuple[Optional[Expr], Expr]] = ()) -> None:
        self.items = tuple(items)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _ListVal) and self.items == other.items

    def __hash__(self) -> int:  # pragma: no cover - not dict-keyed
        return hash(self.items)


_CMP_OPS = {
    ast.Eq: "==",
    ast.NotEq: "!=",
    ast.Lt: "<",
    ast.LtE: "<=",
    ast.Gt: ">",
    ast.GtE: ">=",
}
_BIN_OPS = {
    ast.Add: "+",
    ast.Sub: "-",
    ast.Mult: "*",
    ast.FloorDiv: "//",
    ast.Mod: "%",
}


def _conj(a: Expr, b: Optional[Expr]) -> Expr:
    return a if b is None else BoolE("and", (a, b))


class _Lifter:
    def __init__(self, fn: ast.FunctionDef, globals_ns: Dict[str, object]) -> None:
        args = fn.args
        params = [a.arg for a in args.posonlyargs + args.args]
        if params and params[0] == "self":
            params = params[1:]
        if len(params) < 3:
            raise LiftError(
                f"compute() has {len(params)} parameters, expected (i, j, vertices)",
                fn.lineno,
            )
        self.pi, self.pj, self.vertices = params[0], params[1], params[2]
        self.globals_ns = globals_ns
        self.dep_vars: set = set()
        # coordinate-scan context: (loop var name, row Expr, col Expr)
        self.scan_ctx: Optional[Tuple[str, Expr, Expr]] = None

    # -- expressions ------------------------------------------------------------------
    def lift_expr(self, node: ast.AST, env: Dict[str, object]) -> Expr:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float, bool, str)):
                return Const(node.value)
            raise LiftError(f"constant {node.value!r} is not liftable", node.lineno)
        if isinstance(node, ast.Name):
            name = node.id
            if name == self.pi:
                return Index("i")
            if name == self.pj:
                return Index("j")
            if name in self.dep_vars:
                raise LiftError("the dependency map is used as a value", node.lineno)
            if name == self.vertices:
                raise LiftError("vertices used as a plain value", node.lineno)
            if self.scan_ctx is not None and name == self.scan_ctx[0]:
                raise LiftError(
                    "scan vertex used outside .get_result()/.i/.j", node.lineno
                )
            if name in env:
                val = env[name]
                if isinstance(val, _Poison):
                    raise LiftError(
                        f"{name!r} is only assigned on one branch ({val.reason})",
                        node.lineno,
                    )
                if isinstance(val, _ListVal):
                    raise LiftError(
                        f"list {name!r} used outside max()/min()", node.lineno
                    )
                return val  # type: ignore[return-value]
            if name in self.globals_ns:
                gv = self.globals_ns[name]
                if isinstance(gv, (int, float, bool)):
                    return Const(gv)
                raise LiftError(
                    f"reads module global {name!r} of type {type(gv).__name__}",
                    node.lineno,
                )
            raise LiftError(f"unresolvable name {name!r}", node.lineno)
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                return SelfScalar(node.attr)
            if (
                self.scan_ctx is not None
                and isinstance(node.value, ast.Name)
                and node.value.id == self.scan_ctx[0]
                and node.attr in ("i", "j")
            ):
                return self.scan_ctx[1] if node.attr == "i" else self.scan_ctx[2]
            raise LiftError(
                f"attribute chain {ast.unparse(node)!r} is not self.<attr>",
                node.lineno,
            )
        if isinstance(node, ast.Subscript):
            base = node.value
            if isinstance(base, ast.Name) and base.id in self.dep_vars:
                row, col = self._dep_key(node.slice, env, node.lineno)
                return DepRead(row, col)
            target = self.lift_expr(base, env)
            if isinstance(target, SelfScalar):
                if isinstance(node.slice, ast.Tuple):
                    if len(node.slice.elts) != 2:
                        raise LiftError(
                            "self data subscript with != 2 indices", node.lineno
                        )
                    return SelfElem2(
                        target.attr,
                        self.lift_expr(node.slice.elts[0], env),
                        self.lift_expr(node.slice.elts[1], env),
                    )
                return SelfElem(target.attr, self.lift_expr(node.slice, env))
            raise LiftError(
                f"subscript of non-self data {ast.unparse(base)!r}", node.lineno
            )
        if isinstance(node, ast.BinOp):
            op = _BIN_OPS.get(type(node.op))
            if op is None:
                raise LiftError(
                    f"operator {type(node.op).__name__} is not liftable", node.lineno
                )
            return Bin(op, self.lift_expr(node.left, env), self.lift_expr(node.right, env))
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.USub):
                return Neg(self.lift_expr(node.operand, env))
            if isinstance(node.op, ast.Not):
                return NotE(self.lift_expr(node.operand, env))
            raise LiftError(
                f"unary {type(node.op).__name__} is not liftable", node.lineno
            )
        if isinstance(node, ast.Compare):
            left = self.lift_expr(node.left, env)
            pairs: List[Expr] = []
            for op, comparator in zip(node.ops, node.comparators):
                sym = _CMP_OPS.get(type(op))
                if sym is None:
                    raise LiftError(
                        f"comparison {type(op).__name__} is not liftable", node.lineno
                    )
                right = self.lift_expr(comparator, env)
                pairs.append(Cmp(sym, left, right))
                left = right
            return pairs[0] if len(pairs) == 1 else BoolE("and", tuple(pairs))
        if isinstance(node, ast.BoolOp):
            op = "and" if isinstance(node.op, ast.And) else "or"
            return BoolE(op, tuple(self.lift_expr(v, env) for v in node.values))
        if isinstance(node, ast.IfExp):
            return Cond(
                self.lift_expr(node.test, env),
                self.lift_expr(node.body, env),
                self.lift_expr(node.orelse, env),
            )
        if isinstance(node, ast.Call):
            return self._lift_call(node, env)
        raise LiftError(
            f"{type(node).__name__} is outside the liftable subset",
            getattr(node, "lineno", None),
        )

    def _dep_key(
        self, key: ast.AST, env: Dict[str, object], lineno: int
    ) -> Tuple[Expr, Expr]:
        if not (isinstance(key, ast.Tuple) and len(key.elts) == 2):
            raise LiftError("dependency key is not a 2-tuple", lineno)
        return (
            self.lift_expr(key.elts[0], env),
            self.lift_expr(key.elts[1], env),
        )

    def _lift_call(self, node: ast.Call, env: Dict[str, object]) -> Expr:
        func = node.func
        if node.keywords:
            raise LiftError("call with keyword arguments", node.lineno)
        # dep.get((i-1, j), default)
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "get"
            and isinstance(func.value, ast.Name)
            and func.value.id in self.dep_vars
        ):
            if len(node.args) != 2:
                raise LiftError("dep.get() without an explicit default", node.lineno)
            row, col = self._dep_key(node.args[0], env, node.lineno)
            return DepRead(row, col, self.lift_expr(node.args[1], env))
        # vertex.get_result() inside a coordinate-scan block
        if (
            self.scan_ctx is not None
            and isinstance(func, ast.Attribute)
            and func.attr == "get_result"
            and isinstance(func.value, ast.Name)
            and func.value.id == self.scan_ctx[0]
            and not node.args
        ):
            return DepRead(self.scan_ctx[1], self.scan_ctx[2])
        if isinstance(func, ast.Name) and func.id in NUMERIC_CALLS:
            fn = func.id
            # max(candidates) over a lifted list -> a guarded reduction
            if (
                fn in ("max", "min")
                and len(node.args) == 1
                and isinstance(node.args[0], ast.Name)
                and isinstance(env.get(node.args[0].id), _ListVal)
            ):
                items = env[node.args[0].id].items  # type: ignore[union-attr]
                if not items:
                    raise LiftError(f"{fn}() over an empty candidate list", node.lineno)
                return Reduce(fn, items)
            if fn in ("max", "min") and len(node.args) == 1:
                raise LiftError(
                    f"{fn}() over a comprehension/iterable argument", node.lineno
                )
            return Call(fn, tuple(self.lift_expr(a, env) for a in node.args))
        name = ast.unparse(func)
        raise LiftError(
            f"call to {name!r} outside the whitelisted numeric core", node.lineno
        )

    # -- statements -------------------------------------------------------------------
    def _is_depmap_call(self, value: ast.AST) -> bool:
        return (
            isinstance(value, ast.Call)
            and (
                (
                    isinstance(value.func, ast.Name)
                    and value.func.id == "dependency_map"
                )
                or (
                    isinstance(value.func, ast.Attribute)
                    and value.func.attr == "dependency_map"
                )
            )
            and bool(value.args)
            and isinstance(value.args[0], ast.Name)
            and value.args[0].id == self.vertices
        )

    def _do_assign(self, stmt: ast.Assign, env: Dict[str, object]) -> None:
        if len(stmt.targets) > 1:
            # chained assignment: a = b = c = <expr>, all plain names
            if not all(isinstance(t, ast.Name) for t in stmt.targets):
                raise LiftError("chained assignment to non-names", stmt.lineno)
            val = self.lift_expr(stmt.value, env)
            for t in stmt.targets:
                env[t.id] = val  # type: ignore[union-attr]
            return
        target = stmt.targets[0]
        if self._is_depmap_call(stmt.value):
            if isinstance(target, ast.Name):
                self.dep_vars.add(target.id)
                env.pop(target.id, None)
                return
            raise LiftError("dependency_map bound to a non-name", stmt.lineno)
        if isinstance(target, ast.Name):
            if isinstance(stmt.value, ast.List):
                env[target.id] = _ListVal(
                    tuple((None, self.lift_expr(e, env)) for e in stmt.value.elts)
                )
                return
            env[target.id] = self.lift_expr(stmt.value, env)
            return
        if isinstance(target, ast.Tuple) and isinstance(stmt.value, ast.Tuple):
            if len(target.elts) != len(stmt.value.elts):
                raise LiftError("unbalanced tuple assignment", stmt.lineno)
            vals = [self.lift_expr(v, env) for v in stmt.value.elts]
            for t, v in zip(target.elts, vals):
                if not isinstance(t, ast.Name):
                    raise LiftError("tuple assignment to a non-name", stmt.lineno)
                env[t.id] = v
            return
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            raise LiftError(
                f"write through {ast.unparse(target)!r} (compute() must be pure)",
                stmt.lineno,
            )
        raise LiftError("unsupported assignment target", stmt.lineno)

    def _merge_env(
        self,
        test: Expr,
        benv: Dict[str, object],
        oenv: Dict[str, object],
        lineno: int,
    ) -> Dict[str, object]:
        merged: Dict[str, object] = {}
        for name in set(benv) | set(oenv):
            bv = benv.get(name, _Poison("undefined on else branch"))
            ov = oenv.get(name, _Poison("undefined on then branch"))
            if bv == ov:
                merged[name] = bv
            elif isinstance(bv, _Poison) or isinstance(ov, _Poison):
                merged[name] = _Poison("assigned on only one branch")
            elif isinstance(bv, _ListVal) or isinstance(ov, _ListVal):
                merged[name] = self._merge_lists(test, bv, ov, lineno)
            else:
                merged[name] = Cond(test, bv, ov)  # type: ignore[arg-type]
        return merged

    def _merge_lists(
        self, test: Expr, bv: object, ov: object, lineno: int
    ) -> _ListVal:
        if not (isinstance(bv, _ListVal) and isinstance(ov, _ListVal)):
            raise LiftError("a name is a list on only one branch", lineno)
        prefix = 0
        while (
            prefix < len(bv.items)
            and prefix < len(ov.items)
            and bv.items[prefix] == ov.items[prefix]
        ):
            prefix += 1
        if prefix < min(len(bv.items), len(ov.items)):
            raise LiftError("branches rewrite earlier list candidates", lineno)
        items = list(bv.items[:prefix])
        items += [(_conj(test, g), e) for g, e in bv.items[prefix:]]
        items += [(_conj(NotE(test), g), e) for g, e in ov.items[prefix:]]
        return _ListVal(items)

    def _do_scan_loop(self, stmt: ast.For, env: Dict[str, object]) -> None:
        """Lift the coordinate-scan idiom (Figure 7 style)::

            for vertex in vertices:
                if vertex.i == i - 1 and vertex.j == j:
                    top = vertex.get_result() + ...

        Each coordinate-test block runs exactly when that dependency is
        present, so its net effect on the environment is a phi through a
        :class:`Present` guard.
        """
        if not (
            isinstance(stmt.iter, ast.Name)
            and stmt.iter.id == self.vertices
            and isinstance(stmt.target, ast.Name)
            and not stmt.orelse
        ):
            raise LiftError(
                "only `for <v> in vertices:` scan loops are liftable", stmt.lineno
            )
        if self.scan_ctx is not None:
            raise LiftError("nested vertex scan loops", stmt.lineno)
        vname = stmt.target.id
        for sub in stmt.body:
            if not (isinstance(sub, ast.If) and not sub.orelse):
                raise LiftError(
                    "scan loop body must be coordinate-test if blocks", sub.lineno
                )
            key = self._scan_test(sub.test, vname, env)
            if key is None:
                raise LiftError(
                    "scan test is not `v.i == <expr> and v.j == <expr>`",
                    sub.lineno,
                )
            row, col = key
            self.scan_ctx = (vname, row, col)
            try:
                bcases, benv, bterm = self.exec_block(sub.body, dict(env))
            finally:
                self.scan_ctx = None
            if bcases or bterm:
                raise LiftError("return inside a scan loop", sub.lineno)
            guard = Present(row, col)
            for name in benv:
                if benv[name] != env.get(name):
                    old = env.get(name)
                    if not isinstance(old, Expr):
                        raise LiftError(
                            f"{name!r} first assigned inside a scan block",
                            sub.lineno,
                        )
                    env[name] = Cond(guard, benv[name], old)  # type: ignore[arg-type]

    def _scan_test(
        self, test: ast.AST, vname: str, env: Dict[str, object]
    ) -> Optional[Tuple[Expr, Expr]]:
        """Parse ``v.i == <expr> and v.j == <expr>`` -> (row, col) Exprs."""
        if not (
            isinstance(test, ast.BoolOp)
            and isinstance(test.op, ast.And)
            and len(test.values) == 2
        ):
            return None
        coords: Dict[str, Expr] = {}
        for part in test.values:
            if not (
                isinstance(part, ast.Compare)
                and len(part.ops) == 1
                and isinstance(part.ops[0], ast.Eq)
            ):
                return None
            left, right = part.left, part.comparators[0]
            if not (
                isinstance(left, ast.Attribute)
                and isinstance(left.value, ast.Name)
                and left.value.id == vname
                and left.attr in ("i", "j")
            ):
                left, right = right, left
            if not (
                isinstance(left, ast.Attribute)
                and isinstance(left.value, ast.Name)
                and left.value.id == vname
                and left.attr in ("i", "j")
            ):
                return None
            coords[left.attr] = self.lift_expr(right, env)
        if set(coords) != {"i", "j"}:
            return None
        return coords["i"], coords["j"]

    def exec_block(
        self, stmts: Sequence[ast.stmt], env: Dict[str, object]
    ) -> Tuple[List[Tuple[Optional[Expr], Expr]], Dict[str, object], bool]:
        """Symbolically run a statement list; returns (cases, env, terminated)."""
        cases: List[Tuple[Optional[Expr], Expr]] = []
        for stmt in stmts:
            if isinstance(stmt, ast.Expr):
                v = stmt.value
                if isinstance(v, ast.Constant) and isinstance(v.value, str):
                    continue  # docstring
                if (
                    isinstance(v, ast.Call)
                    and isinstance(v.func, ast.Attribute)
                    and v.func.attr == "append"
                    and isinstance(v.func.value, ast.Name)
                    and isinstance(env.get(v.func.value.id), _ListVal)
                    and len(v.args) == 1
                ):
                    lst: _ListVal = env[v.func.value.id]  # type: ignore[assignment]
                    env[v.func.value.id] = _ListVal(
                        lst.items + ((None, self.lift_expr(v.args[0], env)),)
                    )
                    continue
                raise LiftError("effectful expression statement", stmt.lineno)
            if isinstance(stmt, ast.Assign):
                self._do_assign(stmt, env)
                continue
            if isinstance(stmt, ast.AugAssign):
                op = _BIN_OPS.get(type(stmt.op))
                if op is None or not isinstance(stmt.target, ast.Name):
                    raise LiftError("unsupported augmented assignment", stmt.lineno)
                name = stmt.target.id
                prior = env.get(name)
                if not isinstance(prior, Expr):
                    raise LiftError(
                        f"augmented assignment to unbound name {name!r}", stmt.lineno
                    )
                env[name] = Bin(op, prior, self.lift_expr(stmt.value, env))
                continue
            if isinstance(stmt, ast.For):
                self._do_scan_loop(stmt, env)
                continue
            if isinstance(stmt, ast.AnnAssign):
                if stmt.value is None or not isinstance(stmt.target, ast.Name):
                    raise LiftError("annotated assignment without value", stmt.lineno)
                env[stmt.target.id] = self.lift_expr(stmt.value, env)
                continue
            if isinstance(stmt, ast.Return):
                if stmt.value is None:
                    raise LiftError("return without a value", stmt.lineno)
                cases.append((None, self.lift_expr(stmt.value, env)))
                return cases, env, True
            if isinstance(stmt, ast.If):
                test = self.lift_expr(stmt.test, env)
                bcases, benv, bterm = self.exec_block(stmt.body, dict(env))
                ocases, oenv, oterm = self.exec_block(stmt.orelse, dict(env))
                for g, e in bcases:
                    cases.append((_conj(test, g), e))
                for g, e in ocases:
                    cases.append((_conj(NotE(test), g), e))
                if bterm and oterm:
                    return cases, env, True
                if bterm:
                    env = oenv  # the continuation only runs when test is false
                elif oterm:
                    env = benv
                else:
                    env = self._merge_env(test, benv, oenv, stmt.lineno)
                continue
            if isinstance(stmt, ast.Pass):
                continue
            raise LiftError(
                f"{type(stmt).__name__} statement is outside the liftable subset",
                stmt.lineno,
            )
        return cases, env, False

    def lift(self, fn: ast.FunctionDef) -> ComputeIR:
        cases, _env, terminated = self.exec_block(fn.body, {})
        if not terminated:
            raise LiftError("compute() can fall off the end without returning")
        # drop guards the decision list makes redundant: a trailing
        # guarded case acts as the default once every earlier guard failed
        return ComputeIR(cases=tuple(cases), pi=self.pi, pj=self.pj)


def lift_function(
    fn: ast.FunctionDef, globals_ns: Optional[Dict[str, object]] = None
) -> ComputeIR:
    """Lift a parsed ``compute`` FunctionDef into :class:`ComputeIR`."""
    return _Lifter(fn, globals_ns or {}).lift(fn)


def lift_compute(compute_fn) -> ComputeIR:
    """Lift a ``compute`` function/bound method into :class:`ComputeIR`.

    Raises :class:`LiftError` when the body leaves the liftable subset
    and ``OSError``/``TypeError`` when source is unavailable.
    """
    source = textwrap.dedent(inspect.getsource(compute_fn))
    tree = ast.parse(source)
    fn = next((n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)), None)
    if fn is None:  # pragma: no cover - getsource always yields a def
        raise LiftError("no function definition found in source")
    globals_ns = getattr(compute_fn, "__globals__", None)
    if globals_ns is None:
        globals_ns = getattr(
            getattr(compute_fn, "__func__", None), "__globals__", {}
        )
    return lift_function(fn, globals_ns)


# -- normalization --------------------------------------------------------------------
def _rebuild(e: Expr, mapper) -> Expr:
    """Rebuild ``e`` with every child expression passed through ``mapper``."""
    if isinstance(e, (Const, Index, SelfScalar)):
        return e
    if isinstance(e, SelfElem):
        return SelfElem(e.attr, mapper(e.index))
    if isinstance(e, SelfElem2):
        return SelfElem2(e.attr, mapper(e.row), mapper(e.col))
    if isinstance(e, DepRead):
        return DepRead(
            mapper(e.row),
            mapper(e.col),
            None if e.default is None else mapper(e.default),
        )
    if isinstance(e, Present):
        return Present(mapper(e.row), mapper(e.col))
    if isinstance(e, Bin):
        return Bin(e.op, mapper(e.left), mapper(e.right))
    if isinstance(e, Neg):
        return Neg(mapper(e.operand))
    if isinstance(e, Cmp):
        return Cmp(e.op, mapper(e.left), mapper(e.right))
    if isinstance(e, BoolE):
        return BoolE(e.op, tuple(mapper(p) for p in e.parts))
    if isinstance(e, NotE):
        return NotE(mapper(e.operand))
    if isinstance(e, Call):
        return Call(e.fn, tuple(mapper(a) for a in e.args))
    if isinstance(e, Cond):
        return Cond(mapper(e.test), mapper(e.then), mapper(e.orelse))
    if isinstance(e, Reduce):
        return Reduce(
            e.fn,
            tuple(
                (None if g is None else mapper(g), mapper(x)) for g, x in e.items
            ),
        )
    raise TypeError(type(e).__name__)  # pragma: no cover


def _normalize_expr(e: Expr) -> Expr:
    e = _rebuild(e, _normalize_expr)
    # phi nodes that are really max/min: Cond(a > b, a, b) and friends
    if isinstance(e, Cond) and isinstance(e.test, Cmp):
        t, a, b = e.test, e.then, e.orelse
        if t.op in (">", ">=") and t.left == a and t.right == b:
            return Call("max", (a, b))
        if t.op in ("<", "<=") and t.left == a and t.right == b:
            return Call("min", (a, b))
        if t.op in (">", ">=") and t.left == b and t.right == a:
            return Call("min", (a, b))
        if t.op in ("<", "<=") and t.left == b and t.right == a:
            return Call("max", (a, b))
    return e


def normalize(ir: ComputeIR) -> ComputeIR:
    """Rewrite compare-and-pick phi nodes into ``max``/``min`` calls.

    ``best = take if take > best else best`` and the equivalent branch
    assignment both become ``max(take, best)`` — the form the classifier's
    row-scan matcher and the code generator consume.
    """
    cases = tuple(
        (
            None if g is None else _normalize_expr(g),
            _normalize_expr(v),
        )
        for g, v in ir.cases
    )
    return ComputeIR(cases=cases, pi=ir.pi, pj=ir.pj)


# -- affine index resolution ----------------------------------------------------------
@dataclass(frozen=True)
class AffineIndex:
    """An index expression as ``axis + const + sum(sign * data_term)``.

    ``axis`` is ``"i"``/``"j"`` (coefficient one) or ``None``; ``terms``
    holds run-constant data expressions (``self.weights[i-1]``-style)
    with their signs. Anything that cannot be written in this shape
    resolves to ``None``.
    """

    axis: Optional[str]
    const: int
    terms: Tuple[Tuple[int, Expr], ...] = ()

    @property
    def data_dependent(self) -> bool:
        return bool(self.terms)


def _signed_terms(node: Expr, sign: int, parts: List[Tuple[int, Expr]]) -> None:
    """``+``/``-``/negation flattened to ``(sign, term)`` parts (not a closure:
    a self-recursive nested function is a reference cycle per call)."""
    if isinstance(node, Bin) and node.op in ("+", "-"):
        _signed_terms(node.left, sign, parts)
        _signed_terms(node.right, sign if node.op == "+" else -sign, parts)
    elif isinstance(node, Neg):
        _signed_terms(node.operand, -sign, parts)
    else:
        parts.append((sign, node))


def affine_of(e: Expr) -> Optional[AffineIndex]:
    """Resolve an IR index expression to :class:`AffineIndex`, or ``None``."""
    parts: List[Tuple[int, Expr]] = []
    _signed_terms(e, 1, parts)
    axis: Optional[str] = None
    const = 0
    terms: List[Tuple[int, Expr]] = []
    for sign, node in parts:
        if isinstance(node, Index):
            if axis is not None or sign != 1:
                return None  # i+j / -i indices are out of scope
            axis = node.axis
        elif isinstance(node, Const):
            if not isinstance(node.value, int):
                return None
            const += sign * node.value
        elif isinstance(node, (SelfScalar, SelfElem, SelfElem2)):
            terms.append((sign, node))
        else:
            return None  # DepRead / Cond / Call inside an index
    return AffineIndex(axis=axis, const=const, terms=tuple(terms))
