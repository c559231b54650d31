"""NumPy tile-kernel generation from the classified ``compute()`` IR.

:func:`build_autokernel` turns a non-OPAQUE classification into a
``compute_tile(r0, c0, window, oi, oj, h, w) -> bool`` function with the
same contract as hand-written kernels (:meth:`repro.core.api.DPX10App.
compute_tile`): the window covers the tile plus its stencil halo, the
halo is pre-filled, unwritten cells read as dtype zero, and cell
``(i, j)`` lives at ``window[oi + i - r0, oj + j - c0]``.

Emission per class (an app its kernel refuses is demoted to OPAQUE with
``DP403`` and runs interpreted): ``ANTIDIAG_WAVEFRONT``, ``ELEMENTWISE``
and ``ROW_SCAN_PREFIX`` build the slice kernels of :mod:`.flatsweep`
(:class:`~.flatsweep.FlatSweepKernel`, :class:`~.flatsweep.RowKernel`,
:class:`~.flatsweep.RowScanKernel`); ``TENSOR_HYPERPLANE`` /
``TREE_LEVEL_GATHER`` the domain kernels of :mod:`.domainkern`.

A kernel's ``fn.source`` is the generated source the CLI prints
(``repro analyze --dump-kernel``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

import numpy as np

from .classify import PLAN_MEMO, Classification, RowScanForm, _source_facts, classify_app, source_key
from .findings import AnalysisReport
from .infer import FootEntry
from .ir import AffineIndex, Expr, SelfElem, SelfElem2, SelfScalar

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
    compiled kernel function itself. ``digest`` names a slice kernel's
    template in :data:`~.classify.PLAN_MEMO`: a hash of everything the
    generated code is a function of, so a pooled place re-emits once per
    shape, not once per job.
    """

    subject: str
    klass: str
    rank: Optional[Tuple[int, int]] = None
    ir: Optional[object] = None
    entries: Tuple[FootEntry, ...] = ()
    row_scan: Optional[RowScanForm] = None
    case_kinds: dict = field(default_factory=dict)
    pads: Tuple[int, int, int, int] = (0, 0, 0, 0)
    digest: Optional[str] = None


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


#: the :class:`KernelSpec` fields a :class:`Classification` shares
_SPEC_FIELDS = ("rank", "ir", "entries", "row_scan", "case_kinds")


def _attr_keys(app) -> tuple:
    """What a generated kernel and the classifier see of each ``self``
    attribute the IR reads: its kind, dtype and shape, or a string's length."""
    keys = []
    for name in _source_facts(type(app).compute).attrs:
        v = getattr(app, name, None)
        head = type(v[0]) if isinstance(v, (list, tuple)) and len(v) else None
        keys.append((name, (str, len(v)) if isinstance(v, str) else (
            type(v), np.asarray(v).dtype.str, np.shape(v), head)))
    return tuple(keys)


def _signature(app, dag) -> Optional[tuple]:
    """The plan key of ``app`` on ``dag`` (docs/ANALYSIS.md §8), or None
    where a plan is not a function of one: a domain kernel, a dag other
    than a plain grid stencil, a data-valued dependency offset."""
    from repro.patterns.base import StencilDag

    kind, extra = type(dag), dict(vars(dag))
    extra.pop("_results", None)
    if not (
        isinstance(dag, StencilDag)
        and kind.get_dependency is StencilDag.get_dependency
        and extra.pop("_domain", None) is None
        and all(type(v) in (int, float, bool, str) for v in extra.values())
    ):
        return None
    facts = _source_facts(type(app).compute)
    if facts.entries is None or any(e.data_dependent for e in facts.entries):
        return None
    return (source_key(type(app).compute), type(app), str(type(app).value_dtype),
            kind, tuple(dag.offsets), tuple(sorted(extra.items())), _attr_keys(app))


def _spec_for(cls: Classification, app, dag) -> KernelSpec:
    spec = KernelSpec(cls.subject, cls.klass, **{f: getattr(cls, f) for f in _SPEC_FIELDS})
    if cls.klass not in ("TENSOR_HYPERPLANE", "TREE_LEVEL_GATHER"):
        spec.pads = _pads_for(cls.entries, app)
        shape = (replace(spec, subject=""), dag.height, dag.width, _make_act(dag) is not None,
                 np.dtype(type(app).value_dtype).str, _attr_keys(app))
        spec.digest = hashlib.sha1(repr(shape).encode()).hexdigest()
    return spec


def _classification(spec: KernelSpec, subject: str) -> Classification:
    return Classification(subject, spec.klass, AnalysisReport(subject=subject),
                          **{f: getattr(spec, f) for f in _SPEC_FIELDS})


def _kernel_for(spec: KernelSpec, app, dag) -> AutoKernel:
    """Build the kernel for a non-OPAQUE spec (may raise). A slice kernel
    binds the template its digest names, made on first sight."""
    if spec.klass in ("TENSOR_HYPERPLANE", "TREE_LEVEL_GATHER"):
        from .domainkern import TensorHyperplaneKernel, TreeLevelKernel

        maker = (
            TensorHyperplaneKernel
            if spec.klass == "TENSOR_HYPERPLANE"
            else TreeLevelKernel
        )
        k = maker(app, dag)
    else:
        from .flatsweep import build_slice_kernel

        k = PLAN_MEMO.lookup(
            ("kernel", spec.digest), lambda: build_slice_kernel(spec, app, dag, spec.pads)
        ).bind(app, dag)
    return AutoKernel(fn=k, pads=k.pads, klass=spec.klass, subject=spec.subject, mode=k.mode,
                      spec=spec)


def kernel_from_spec(spec: KernelSpec, app, dag) -> Optional[AutoKernel]:
    """Re-emit a kernel from a shipped :class:`KernelSpec`.

    Skips classification and the numeric probes — the master already
    ran them pre-fork; the spec is trusted. Returns None when emission
    fails (the worker then computes interpreted, never wrongly).
    """
    try:
        return _kernel_for(spec, app, dag)
    except KernelBuildError:
        return None


def _build(app, dag, subject: str):
    """Classify ``app`` with its data and emit its kernel: the per-instance path."""
    cls = classify_app(app, dag, subject=subject)
    if cls.klass == "OPAQUE":
        return None, cls
    try:
        kernel = _kernel_for(_spec_for(cls, app, dag), app, dag)
    except KernelBuildError as exc:
        cls.report.add("DP403", f"kernel emission failed: {exc}")
        cls.klass = "OPAQUE"
        return None, cls
    return kernel, cls


def build_autokernel(app, dag, subject: str = ""):
    """Classify ``app`` and emit its tile kernel.

    Returns ``(AutoKernel | None, Classification)``. The build is not a
    pure function of ``(type(app), app data, dag)``: it reads and fills
    :data:`~.classify.PLAN_MEMO`, which keeps the instance-independent
    half of a build per plan *signature*
    (:func:`_signature`: ``compute()``'s source, the app type and value
    dtype, the kind, dtype and shape of every attribute the IR reads, the
    dag type, shape and offsets). The first app of a signature is
    classified with its data, as before, and once more against a
    data-free view; when the two agree on a kernel, every later app of
    the signature skips classification and probes and binds the memoized
    template to its own data. A signature whose classification depends
    on data (a data-guarded undeclared read, a data-guarded scan pin),
    and a domain kernel or data-valued offset that has no signature,
    classifies every instance (docs/ANALYSIS.md §8). The returned kernel
    carries a picklable ``spec`` so multiprocessing workers re-emit it
    from :func:`kernel_from_spec` instead of pickling the generated
    function (or re-running classification post-fork).
    """
    subject = subject or type(app).__name__
    key = _signature(app, dag)
    if key is None:
        return _build(app, dag, subject)
    built = []

    def plan() -> Optional[KernelSpec]:
        built.append(_build(app, dag, subject))
        kernel, cls = built[0]
        if kernel is None:
            return None
        free = classify_app(app, dag, subject=subject, data=False)
        same = (free.klass, free.rank, free.row_scan) == (cls.klass, cls.rank, cls.row_scan)
        return kernel.spec if same else None

    spec = PLAN_MEMO.lookup(("plan", key), plan)
    if built or spec is None:
        return built[0] if built else _build(app, dag, subject)
    cls = _classification(spec, subject)
    return _kernel_for(spec, app, dag), cls
