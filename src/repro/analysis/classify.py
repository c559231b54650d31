"""Vectorization-class assignment for ``compute()`` recurrences.

:func:`classify_app` runs the full front-end — effect analysis, IR
lifting, dtype inference, footprint extraction, numeric probing — and
assigns one of four classes:

* ``ELEMENTWISE`` — every dependency is in a strictly earlier row, so
  whole rows vectorize directly (Knapsack: ``(i-1, j)`` and
  ``(i-1, j - w_i)``).
* ``ANTIDIAG_WAVEFRONT`` — a ranking vector ``(a, b)`` with
  ``a*di + b*dj < 0`` for every offset orders cells along
  anti-diagonals (LCS, SW, NW, edit distance, banded, LPS, MTP).
* ``ROW_SCAN_PREFIX`` — one intra-row data-dependent read in the
  ``max(base, dep[(i, j - s)] + add)`` shape; rows vectorize with a
  strided ``np.maximum.accumulate`` prefix scan (unbounded knapsack).
* ``OPAQUE`` — everything else, with a DP4xx finding naming the exact
  demotion reason per line.

Demotion findings:

* DP401 — the body leaves the liftable subset (loops/comprehensions/
  foreign calls), so no IR exists;
* DP402 — ``value_dtype`` is ``None``: no typed plane to vectorize into;
* DP403 — lifted but not vectorizable (type conflict, non-affine index,
  unsupported dependency shape);
* DP404 — the inferred footprint contradicts the pattern's declared
  dependencies on real cells (an error: the interpreted path is racing);
* DP405 — effect analysis found mutation or nondeterminism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Tuple

from repro.util.lru import LRU

from .findings import AnalysisReport
from .infer import (
    NO_DATA,
    Effects,
    FootEntry,
    InferError,
    analyze_effects,
    compile_expr,
    footprint,
    infer_types,
    probe_footprint,
    sample_cells,
)
from .ir import (
    Bin,
    Call,
    Cmp,
    ComputeIR,
    Cond,
    Const,
    DepRead,
    Expr,
    Index,
    LiftError,
    Reduce,
    SelfElem,
    SelfElem2,
    SelfScalar,
    lift_compute,
    normalize,
    walk_expr,
)

__all__ = [
    "CLASSES",
    "Classification",
    "RowScanForm",
    "classify_app",
]

CLASSES = (
    "ELEMENTWISE",
    "ANTIDIAG_WAVEFRONT",
    "ROW_SCAN_PREFIX",
    "TENSOR_HYPERPLANE",
    "TREE_LEVEL_GATHER",
    "OPAQUE",
)


@dataclass
class RowScanForm:
    """The matched ``max(base, dep[(i, j - stride)] + add)`` shape.

    ``stride`` is a row-constant data expression (no ``j``); ``guard``
    is the recognised ``stride <= j`` feasibility test. ``add`` is
    row-constant unless ``lane_add`` is set, in which case it may vary
    per lane (mention ``j``) and emission switches from the
    constant-slope prefix scan to the segment-sum form
    ``accumulate(base - cumsum(add)) + cumsum(add)``. ``pins`` names
    case indices (all guarded, dependency-free, earlier than the scan
    case) whose values must be pinned into the scan base so the
    recurrence chains *through* them — MTP's ``(0, 0) -> 0`` seed is
    the canonical example.
    """

    read: DepRead
    stride: Expr
    add: Expr
    base: Expr
    guard: Optional[Expr]
    lane_add: bool = False
    pins: Tuple[int, ...] = ()


@dataclass
class Classification:
    """Everything the analyzer learned about one app."""

    subject: str
    klass: str
    report: AnalysisReport
    effects: Optional[Effects] = None
    ir: Optional[ComputeIR] = None
    entries: Tuple[FootEntry, ...] = ()
    rank: Optional[Tuple[int, int]] = None
    row_scan: Optional[RowScanForm] = None
    case_kinds: dict = field(default_factory=dict)

    @property
    def vectorizable(self) -> bool:
        return self.klass != "OPAQUE"


def _rank_for(offsets: List[Tuple[int, int]]) -> Optional[Tuple[int, int]]:
    """A ranking vector making every offset strictly backward, if any."""
    for rank in ((1, 0), (1, 1), (-1, 1)):
        a, b = rank
        if all(a * di + b * dj < 0 for di, dj in offsets):
            return rank
    return None


def _is_row_constant(e: Expr) -> bool:
    """True when the expression never mentions ``j`` or a dependency."""
    return all(
        not (isinstance(n, Index) and n.axis == "j") and not isinstance(n, DepRead)
        for n in walk_expr(e)
    )


def _has_dep(e: Expr) -> bool:
    return any(isinstance(n, DepRead) for n in walk_expr(e))


def _mentions_j(e: Expr) -> bool:
    return any(
        isinstance(n, Index) and n.axis == "j" for n in walk_expr(e)
    )


def _guard_matches(feas: Expr, stride: Expr) -> bool:
    """Whether ``feas`` is a recognised ``j >= stride`` feasibility test."""
    if not isinstance(feas, Cmp):
        return False
    j = Index("j")
    if feas.op == "<=" and feas.left == stride and feas.right == j:
        return True
    if feas.op == ">=" and feas.left == j and feas.right == stride:
        return True
    # with a literal stride s, ``j > s - 1`` / ``s - 1 < j`` also works
    if isinstance(stride, Const) and isinstance(stride.value, int):
        below = Const(stride.value - 1)
        if feas.op == ">" and feas.left == j and feas.right == below:
            return True
        if feas.op == "<" and feas.left == below and feas.right == j:
            return True
    return False


def _split_take(take: Expr, read: DepRead) -> Optional[Expr]:
    """``add`` such that ``take == read + add``, or None."""
    if take == read:
        return Const(0)
    if isinstance(take, Bin) and take.op == "+":
        if take.left == read:
            return take.right
        if take.right == read:
            return take.left
    return None


def _scan_pins(
    ir: ComputeIR, scan_idx: int, stride_val: Optional[int], app, dag
) -> Optional[Tuple[int, ...]]:
    """Case indices safe to pin into the scan base; None = unsafe mix.

    A pinned case participates in the recurrence chain, so it must hold
    the *true* cell value wherever it fires: guarded, dependency-free,
    and earlier in the decision list than the scan case. A row-constant
    guard is always safe (the whole row is overridden after the scan
    anyway); a guard mentioning ``j`` is safe only if it never fires at
    ``j >= stride`` — verified by sampling — because a mid-row pin would
    let ``max(pin, chain)`` exceed the pinned truth and propagate.
    """
    pins = []
    for idx, (guard, value) in enumerate(ir.cases):
        if idx == scan_idx:
            continue
        if guard is None or idx > scan_idx:
            return None  # an unguarded or post-scan sibling: cannot pin
        if _has_dep(guard) or _has_dep(value):
            return None
        if _mentions_j(guard):
            if stride_val is None:
                return None
            fires = compile_expr(guard)
            for i, j in sample_cells(dag, 64):
                if j < stride_val:
                    continue
                try:
                    if fires(i, j, app):
                        return None
                except Exception:
                    return None
        pins.append(idx)
    return tuple(pins)


def _match_row_scan(
    ir: ComputeIR, entry: FootEntry, app, dag, stride: Optional[Expr] = None
) -> Optional[RowScanForm]:
    """Recognise the prefix-scan shape around the intra-row read ``entry``.

    ``stride`` is the ``s`` of a constant ``(0, -s)`` offset, or None for
    a data stride, read off a column ``j - stride`` and row-constant. The
    read must appear exactly once: in a 2-arg ``max(base, read + add)``
    guarded by the feasibility test ``stride <= j`` (a case guard or an
    enclosing ``Cond`` test), or — constant strides — in the
    guarded-``Reduce`` shape MTP lifts to::

        Reduce max { (i > 0) => dep[(i-1, j)] + down,
                     (j > 0) => dep[(i, j-1)] + right }

    where the read's guard is the feasibility test, the remaining items
    form the base, and ``add`` may vary along the row (``lane_add``).
    Other cases pin into the base (see :class:`RowScanForm`): under a
    constant stride every one must be pinnable; under a data stride pins
    are an optimisation, and the seed-only chain the fallback.
    """
    read = entry.read
    if read is None:
        return None
    const = stride is not None
    if not const:
        col = entry.col
        if col.const != 0 or len(col.terms) != 1 or col.terms[0][0] != -1:
            return None
        stride = col.terms[0][1]
        if not _is_row_constant(stride):
            return None
    holders = [
        (idx, g, v)
        for idx, (g, v) in enumerate(ir.cases)
        if any(n == read for n in walk_expr(v))
        or (g is not None and any(n == read for n in walk_expr(g)))
    ]
    if len(holders) != 1:
        return None
    scan_idx, guard, value = holders[0]
    if guard is not None and any(n == read for n in walk_expr(guard)):
        return None

    feas: Optional[Expr] = None
    base: Optional[Expr] = None
    take: Optional[Expr] = None
    if const and isinstance(value, Reduce) and value.fn == "max":
        with_read = [
            (g, x)
            for g, x in value.items
            if any(n == read for n in walk_expr(x))
        ]
        rest = [
            (g, x)
            for g, x in value.items
            if not any(n == read for n in walk_expr(x))
        ]
        if len(with_read) != 1 or not rest:
            return None
        feas, take = with_read[0]
        if feas is None or _has_dep(feas) or not _guard_matches(feas, stride):
            return None
        base = Reduce("max", tuple(rest))
    else:
        # peel a feasibility Cond: (take-form if stride <= j else base)
        cond_guard: Optional[Expr] = None
        if isinstance(value, Cond):
            cond_guard, inner, base_alt = value.test, value.then, value.orelse
            if any(n == read for n in walk_expr(base_alt)) or any(
                n == read for n in walk_expr(cond_guard)
            ):
                return None
            value = inner
        else:
            base_alt = None
        if not (
            isinstance(value, Call) and value.fn == "max" and len(value.args) == 2
        ):
            return None
        with_r = [a for a in value.args if any(n == read for n in walk_expr(a))]
        without = [a for a in value.args if not any(n == read for n in walk_expr(a))]
        if len(with_r) != 1 or len(without) != 1:
            return None
        take, base = with_r[0], without[0]
        if base_alt is not None and base_alt != base:
            return None
        feas = cond_guard if cond_guard is not None else guard
        if feas is not None and not _guard_matches(feas, stride):
            return None

    add = _split_take(take, read)
    if add is None or _has_dep(add) or not (const or _is_row_constant(add)):
        return None
    # base may read strictly-earlier rows (the caller verified every
    # sibling offset has di < 0): those gathers are plain window reads
    # in the row loop, already computed by the time the row scans
    pins = _scan_pins(ir, scan_idx, stride.value if const else None, app, dag)
    if pins is None and const:
        return None
    return RowScanForm(
        read=read,
        stride=stride,
        add=add,
        base=base,
        guard=feas,
        lane_add=not _is_row_constant(add),
        pins=pins or (),
    )


def _dag_fully_active(dag) -> bool:
    from repro.core.dag import Dag

    return type(dag).is_active is Dag.is_active


def _try_const_row_scan(
    ir: ComputeIR, entries: Tuple[FootEntry, ...], app, dag
) -> Optional[RowScanForm]:
    """Attempt the constant-stride prefix scan before settling on ANTIDIAG.

    Requires exactly one intra-row read at ``(0, -s)`` whose siblings
    are all strictly-earlier-row offsets — MTP's shape. SW/LCS-style
    recurrences fall through (their other cases carry reads, or the
    value is a wider ``max``), keeping the antidiagonal flat sweep in
    charge there.
    """
    if not _dag_fully_active(dag):
        return None  # the scan emission requires fully active rows
    intra = []
    for e in entries:
        off = e.const_offset
        if off is None:
            return None
        di, dj = off
        if di == 0 and dj < 0 and e.read is not None:
            intra.append(e)
        elif di >= 0:
            return None  # not strictly earlier-row: no scan shape
    if len(intra) != 1:
        return None
    return _match_row_scan(ir, intra[0], app, dag, Const(-intra[0].col.const))


#: the plan memo: ``compute()``'s source facts, the plans of
#: :func:`repro.analysis.codegen.build_autokernel` and the kernel
#: templates, each under its own key kind (docs/ANALYSIS.md §8). Bounded:
#: a long-lived server meets an open-ended set of user app classes and
#: shapes. No entry holds instance data.
PLAN_MEMO = LRU(256)


class _SourceFacts(NamedTuple):
    """What the front-end learns from ``compute()``'s source alone."""

    effects: Optional[Effects]  # None: source unavailable
    ir: Optional[ComputeIR] = None
    entries: Optional[Tuple[FootEntry, ...]] = None
    #: the ``(code, message, location)`` finding that stopped lifting
    #: (``ir`` is None) or footprint extraction (``entries`` is None)
    finding: Optional[tuple] = None
    #: the ``self`` attributes the IR reads, sorted
    attrs: Tuple[str, ...] = ()


def _read_source(compute, _folded: tuple = ()) -> _SourceFacts:
    """Effect analysis, lift + normalize and the symbolic footprint.

    Pure functions of ``compute()``'s source and of the scalar module
    globals the lifter folds into constants (``_folded``), so memoized in
    :data:`PLAN_MEMO` under both (:func:`_source_facts`):
    ``inspect.getsource`` + tokenizer + AST walk were ~2.5 ms of a 25 ms
    default solve.
    """
    try:
        effects = analyze_effects(compute)
    except (OSError, TypeError):
        effects = None
    if effects is not None and not effects.pure:
        return _SourceFacts(effects)
    try:
        ir = normalize(lift_compute(compute))
    except LiftError as exc:
        return _SourceFacts(
            effects,
            finding=(
                "DP401",
                f"compute() left the liftable subset: {exc.reason}",
                f"line {exc.lineno}" if exc.lineno else None,
            ),
        )
    except (OSError, TypeError) as exc:
        return _SourceFacts(
            effects, finding=("DP401", f"compute() source unavailable: {exc}", None)
        )
    try:
        entries = tuple(footprint(ir))
    except InferError as exc:
        return _SourceFacts(
            effects, ir, finding=("DP403", f"footprint extraction failed: {exc}", None)
        )
    attrs = {n.attr for n in ir.exprs() if isinstance(n, (SelfScalar, SelfElem, SelfElem2))}
    return _SourceFacts(effects, ir, entries, attrs=tuple(sorted(attrs)))


def source_key(compute) -> tuple:
    """What ``compute()``'s source facts are a function of: the function and
    the scalar module globals the lifter folds into constants."""
    ns = getattr(compute, "__globals__", {})
    names = getattr(getattr(compute, "__code__", None), "co_names", ())
    return (compute, tuple((n, ns[n]) for n in names if type(ns.get(n)) in (int, float, bool)))


def _source_facts(compute) -> _SourceFacts:
    key = source_key(compute)
    return PLAN_MEMO.lookup(("source",) + key, lambda: _read_source(*key))


def classify_app(app, dag, subject: str = "", data: bool = True) -> Classification:
    """Run the full analysis front-end over one app/dag pair.

    ``data=False`` probes a data-free view of the app (``infer.NO_DATA``):
    a read that ``self`` data guards counts on both branches and a pin
    that data guards is refused, so the result holds for every app whose
    plan signature this one shares (``codegen.build_autokernel``).
    """
    probe = app if data else NO_DATA
    subject = subject or type(app).__name__
    report = AnalysisReport(subject=subject)
    cls = Classification(subject=subject, klass="OPAQUE", report=report)

    # domain-declared batched recurrences short-circuit the AST pipeline:
    # their compute() is the generic DomainApp decoder (unliftable by
    # construction), but the batched form is probed numerically instead
    from .domainkern import (
        DomainKernelError,
        match_domain_class,
        probe_tensor_hyperplane,
        probe_tree_level,
    )

    domain_klass = match_domain_class(app, dag)
    if domain_klass is not None:
        try:
            if domain_klass == "TENSOR_HYPERPLANE":
                probe_tensor_hyperplane(app, dag)
            else:
                probe_tree_level(app, dag)
        except DomainKernelError as exc:
            report.add("DP403", f"domain kernel probe failed: {exc}")
            return cls
        cls.klass = domain_klass
        return cls

    # the source-level half of the front-end is memoized per compute();
    # everything below that takes ``app`` or ``dag`` runs per instance
    facts = _source_facts(type(app).compute)
    cls.effects = facts.effects
    if cls.effects is not None and not cls.effects.pure:
        report.add("DP405", f"compute() is impure: {cls.effects.describe()}")
        return cls
    if facts.ir is None:
        report.add(*facts.finding)
        return cls
    cls.ir = facts.ir

    if type(app).value_dtype is None:
        report.add("DP402", "value_dtype is None: no typed value plane to vectorize")
        return cls

    try:
        cls.case_kinds = infer_types(cls.ir, type(app).value_dtype, app)
    except InferError as exc:
        report.add("DP403", f"dtype inference failed: {exc}")
        return cls

    if facts.entries is None:
        report.add(*facts.finding)
        return cls
    entries = cls.entries = facts.entries

    problems = probe_footprint(cls.ir, probe, dag)
    if problems:
        for p in problems:
            report.add("DP404", p)
        return cls

    const_offs: List[Tuple[int, int]] = []
    data_entries: List[FootEntry] = []
    for entry in entries:
        off = entry.const_offset
        if off is not None:
            if off not in const_offs:
                const_offs.append(off)
        else:
            data_entries.append(entry)

    if not data_entries:
        rank = _rank_for(const_offs)
        if rank is None:
            report.add(
                "DP403", f"no ranking vector orders offsets {const_offs}"
            )
            return cls
        cls.rank = rank
        if rank == (1, 0):
            cls.klass = "ELEMENTWISE"
            return cls
        # a lone constant intra-row read may still be a prefix scan —
        # O(h) accumulate sweeps instead of O(h + w) antidiagonal levels
        form = _try_const_row_scan(cls.ir, cls.entries, probe, dag)
        if form is not None:
            cls.rank = (1, 0)
            cls.row_scan = form
            cls.klass = "ROW_SCAN_PREFIX"
            return cls
        cls.klass = "ANTIDIAG_WAVEFRONT"
        return cls

    # data-dependent reads: strictly-earlier-row reads vectorize
    # elementwise; a single intra-row read may be a prefix scan
    if _rank_for(const_offs) != (1, 0):
        report.add(
            "DP403",
            "data-dependent reads mixed with non-elementwise constant"
            f" offsets {const_offs}",
        )
        return cls
    earlier_row = [
        e for e in data_entries if not e.row.terms and e.row.const < 0
    ]
    intra_row = [e for e in data_entries if not e.row.terms and e.row.const == 0]
    if len(earlier_row) + len(intra_row) != len(data_entries):
        report.add(
            "DP403", "a data-dependent read has a data-dependent row index"
        )
        return cls
    if not intra_row:
        cls.rank = (1, 0)
        cls.klass = "ELEMENTWISE"
        return cls
    if len(intra_row) > 1:
        report.add(
            "DP403",
            f"{len(intra_row)} intra-row data-dependent reads; the prefix"
            " scan handles exactly one",
        )
        return cls
    form = _match_row_scan(cls.ir, intra_row[0], probe, dag)
    if form is None:
        report.add(
            "DP403",
            "intra-row data-dependent read does not match the"
            " max(base, dep[(i, j - s)] + add) prefix-scan shape",
        )
        return cls
    # the scan stride must be positive on every sampled row
    stride = compile_expr(form.stride)
    for i, j in sample_cells(dag, 64):
        try:
            s = stride(i, j, probe)
        except Exception:
            s = None
        if not isinstance(s, int) or s < 1:
            report.add(
                "DP403",
                f"prefix-scan stride {s!r} at row {i} is not a positive"
                " integer",
            )
            return cls
    cls.rank = (1, 0)
    cls.row_scan = form
    cls.klass = "ROW_SCAN_PREFIX"
    return cls
