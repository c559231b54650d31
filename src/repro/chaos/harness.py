"""The differential chaos harness.

One **case** is a (app, pattern, engine, tile shape, index domain)
configuration; one
**trial** runs that case under a seeded :class:`~repro.chaos.schedule.
ChaosSchedule` and diffs *every result cell* against an independent serial
reference — the pattern-generic :func:`~repro.chaos.probe.probe_oracle`
for the probe app, or ``repro.apps.serial`` matrices for the concrete
apps. A trial fails if any cell differs, if the run raises anything other
than a clean :class:`~repro.errors.UnrecoverableError`, or if it produces
no result at all.

:func:`sweep` walks the cross product app x pattern x engine x tile-shape
x seed, generating one schedule per (case, seed) — fully replayable:
re-running the same sweep arguments reproduces the same schedules, and a
failing trial's exact (spec, schedule) pair is what
:func:`~repro.chaos.shrink.shrink_case` minimizes and
:func:`~repro.chaos.shrink.write_replay` stores.

Cases that cannot exist are *skipped*, not failed: a square tile shape on
a pattern whose coarsening is cyclic raises
:class:`~repro.errors.PatternError` at build time, and the concrete apps
only run on their own pattern.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.chaos.probe import ChaosProbeApp, probe_oracle
from repro.chaos.schedule import ChaosSchedule
from repro.errors import PatternError, UnrecoverableError
from repro.patterns import get_pattern

__all__ = ["PLANNED", "CaseSpec", "CaseResult", "build_case", "run_case", "sweep"]

Coord = Tuple[int, int]

#: the ``CaseSpec.tile_shape`` spelling of "let the runtime plan it"
PLANNED = "planned"

#: mismatches reported per failing trial before truncation
_MAX_DIFFS = 8

#: apps the harness knows how to build and diff. "probe" / "buggy-probe"
#: run on every pattern; the concrete apps pin their own pattern and act
#: as end-to-end spot checks with the repro.apps.serial oracles. The
#: tree/tensor apps exercise the non-grid index domains (and the object
#: value store, for the tree pair) under the same seeded schedules.
APPS = (
    "probe",
    "buggy-probe",
    "lcs",
    "sw",
    "knapsack",
    "tree-knapsack",
    "tree-mis",
    "msa3",
)

#: the index domain each concrete app runs on (everything else is grid)
DOMAIN_OF = {"tree-knapsack": "tree", "tree-mis": "tree", "msa3": "tensor"}


@dataclass(frozen=True)
class CaseSpec:
    """One point of the configuration space, independent of the schedule."""

    app: str = "probe"
    pattern: str = "diagonal"
    engine: str = "inline"
    nplaces: int = 3
    height: int = 12
    width: int = 12
    #: ``None`` is the per-vertex oracle path (``DPX10Config(tile_shape=
    #: (1, 1))`` — stored replays keep their meaning), ``"planned"`` leaves
    #: the shape to the runtime (a bare config), a pair pins it
    tile_shape: Union[None, str, Tuple[int, int]] = None
    #: probe salt / instance seed for the concrete apps
    salt: int = 0
    #: mp plane backing, as DPX10Config.shm: False forces private planes
    shm: bool = True
    #: index domain the app's DAG lives on: "grid", "tree" or "tensor"
    domain: str = "grid"

    def label(self) -> str:
        if self.tile_shape == PLANNED:
            tile = " tile=planned"
        elif self.tile_shape:
            tile = f" tile={self.tile_shape[0]}x{self.tile_shape[1]}"
        else:
            tile = ""
        shm = "" if self.shm else " shm=False"
        dom = "" if self.domain == "grid" else f" domain={self.domain}"
        return (
            f"{self.app}:{self.pattern} engine={self.engine} "
            f"places={self.nplaces} {self.height}x{self.width}{tile}{shm}{dom}"
        )

    def to_dict(self) -> dict:
        d = asdict(self)
        if self.tile_shape and self.tile_shape != PLANNED:
            d["tile_shape"] = list(self.tile_shape)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "CaseSpec":
        data = dict(data)
        if data.get("tile_shape") and data["tile_shape"] != PLANNED:
            data["tile_shape"] = tuple(data["tile_shape"])
        return cls(**data)


@dataclass
class CaseResult:
    """The verdict of one trial: case + schedule + cell-level diff."""

    spec: CaseSpec
    schedule: ChaosSchedule
    ok: bool
    skipped: bool = False
    #: why the case was skipped / what the run raised, if anything
    error: Optional[str] = None
    #: first few ``(coord, expected, actual)`` mismatches
    mismatches: List[Tuple[Coord, object, object]] = field(default_factory=list)
    mismatch_count: int = 0
    completions: int = 0
    recoveries: int = 0
    msg_retries: int = 0
    #: chaos events actually injected, by kind (from the controller)
    injected: Dict[str, int] = field(default_factory=dict)

    def describe(self) -> str:
        """A reproduction-ready failure report (printed by tests and CLI)."""
        lines = [
            f"case    : {self.spec.label()}",
            f"seed    : {self.schedule.seed}",
            "schedule:",
        ]
        lines += ["  " + ln for ln in self.schedule.describe().splitlines()]
        if self.skipped:
            lines.append(f"skipped : {self.error}")
        elif self.error:
            lines.append(f"raised  : {self.error}")
        for coord, exp, got in self.mismatches:
            lines.append(f"diff    : cell {coord}: expected {exp}, got {got}")
        if self.mismatch_count > len(self.mismatches):
            lines.append(
                f"          ... {self.mismatch_count - len(self.mismatches)}"
                " more cells differ"
            )
        return "\n".join(lines)


def _build_dag(pattern: str, height: int, width: int):
    cls = get_pattern(pattern)
    if pattern == "banded":
        return cls(height, width, max(2, min(height, width) // 3))
    return cls(height, width)


def build_case(spec: CaseSpec):
    """Instantiate ``(app, dag, expected)`` for a spec.

    ``expected`` maps every active coord to its reference value, computed
    without any runtime machinery. Raises :class:`PatternError` for
    impossible combinations (the sweep converts that into a skip).
    """
    if spec.app in ("probe", "buggy-probe"):
        dag = _build_dag(spec.pattern, spec.height, spec.width)
        app = ChaosProbeApp(
            salt=spec.salt, buggy_recompute=spec.app == "buggy-probe"
        )
        return app, dag, probe_oracle(dag, spec.salt)
    if spec.app == "lcs":
        from repro.apps.lcs import LCSApp
        from repro.apps.serial import lcs_matrix
        from repro.patterns.diagonal import DiagonalDag

        x, y = _strings(spec.height - 1, spec.width - 1, spec.salt)
        dag = DiagonalDag(len(x) + 1, len(y) + 1)
        ref = lcs_matrix(x, y)
        return LCSApp(x, y), dag, _matrix_cells(dag, ref)
    if spec.app == "sw":
        from repro.apps.serial import sw_matrix
        from repro.apps.smith_waterman import SWApp
        from repro.patterns.diagonal import DiagonalDag

        x, y = _strings(spec.height - 1, spec.width - 1, spec.salt)
        dag = DiagonalDag(len(x) + 1, len(y) + 1)
        ref = sw_matrix(x, y)
        return SWApp(x, y), dag, _matrix_cells(dag, ref)
    if spec.app == "knapsack":
        from repro.apps.knapsack import KnapsackApp, make_knapsack_instance
        from repro.apps.serial import knapsack_matrix
        from repro.patterns.knapsack import KnapsackDag

        capacity = max(4, spec.width - 1)
        weights, values = make_knapsack_instance(
            max(2, spec.height - 1), capacity, seed=spec.salt
        )
        dag = KnapsackDag(weights, capacity)
        ref = knapsack_matrix(weights, values, capacity)
        return KnapsackApp(weights, values, capacity), dag, _matrix_cells(dag, ref)
    if spec.app in ("tree-knapsack", "tree-mis"):
        from repro.apps.serial import tree_knapsack_tables, tree_mis_tables
        from repro.apps.tree_knapsack import TreeKnapsackApp, make_tree_instance
        from repro.apps.tree_mis import TreeMISApp
        from repro.core.domain import TreeDomain
        from repro.patterns.tree import TreeDag

        n = max(2, spec.height)
        parents, weights, values = make_tree_instance(n, seed=spec.salt)
        dom = TreeDomain(parents)
        dag = TreeDag(dom)
        if spec.app == "tree-knapsack":
            capacity = max(4, spec.width - 1)
            tables = tree_knapsack_tables(parents, weights, values, capacity)
            app = TreeKnapsackApp(dom, weights, values, capacity)
        else:
            tables = tree_mis_tables(parents, weights)
            app = TreeMISApp(dom, weights)
        return app, dag, {dom.to_cell(v): tables[v] for v in range(n)}
    if spec.app == "msa3":
        from repro.apps.msa import MSA3App, make_msa3_instance
        from repro.apps.serial import msa3_matrix
        from repro.patterns.tensor import TensorWavefrontDag

        length = max(2, min(spec.height, spec.width) // 3)
        x, y, z = make_msa3_instance(length, seed=spec.salt)
        app = MSA3App(x, y, z)
        dag = TensorWavefrontDag(app.domain.shape)
        ref = msa3_matrix(x, y, z)
        expected = {
            app.domain.to_cell(idx): int(ref[idx])
            for idx in app.domain.indices()
        }
        return app, dag, expected
    raise ValueError(f"unknown harness app {spec.app!r}; known: {APPS}")


def _strings(n: int, m: int, salt: int) -> Tuple[str, str]:
    """Deterministic DNA-ish inputs sized to the case's matrix."""
    from repro.util.rng import seeded_rng

    rng = seeded_rng(salt, "chaos-harness-strings")
    alphabet = "ACGT"
    x = "".join(alphabet[int(k)] for k in rng.integers(0, 4, size=max(1, n)))
    y = "".join(alphabet[int(k)] for k in rng.integers(0, 4, size=max(1, m)))
    return x, y


def _matrix_cells(dag, matrix) -> Dict[Coord, object]:
    return {
        (i, j): matrix[i][j]
        for i, j in dag.region
        if dag.is_active(i, j)
    }


def _show(value: object) -> object:
    """A plain, comparable rendering of a cell value for diff reports."""
    import numpy as np

    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return tuple(_show(v) for v in value)
    return int(value)  # type: ignore[call-overload]


def _values_differ(exp: object, got: object) -> bool:
    """Cell-value inequality across the value types the apps use.

    Grid/tensor apps store scalars; the tree apps store numpy arrays
    (knapsack budget tables) and tuples (MIS ``(take, skip)`` pairs).
    """
    import numpy as np

    if isinstance(exp, np.ndarray) or isinstance(got, np.ndarray):
        return not np.array_equal(exp, got)
    if isinstance(exp, tuple) or isinstance(got, tuple):
        return _show(exp) != _show(got)
    return int(got) != int(exp)  # type: ignore[call-overload]


def run_case(spec: CaseSpec, schedule: ChaosSchedule) -> CaseResult:
    """Run one trial and diff every cell against the serial reference."""
    from repro.core.config import DPX10Config
    from repro.core.runtime import DPX10Runtime
    from repro.core.tiling import plan_tiles

    try:
        app, dag, expected = build_case(spec)
        # tree DAGs partition by subtree, exactly as the apps' solvers do
        # by default, so recovery re-partitions over the survivors too
        dom = dag.domain
        custom_dist = dom.make_dist if dom.kind == "tree" else None
        config = DPX10Config(
            nplaces=spec.nplaces,
            engine=spec.engine,
            tile_shape=(
                None if spec.tile_shape == PLANNED else spec.tile_shape or (1, 1)
            ),
            chaos=None if schedule.is_empty else schedule,
            shm=spec.shm,
            custom_dist=custom_dist,
        )
        runtime = DPX10Runtime(app, dag, config)
        # tiling verifies the coarsened pattern lazily; probe it up front
        # so impossible (pattern, tile) pairs skip instead of fail
        plan_tiles(dag, config)
    except PatternError as exc:
        return CaseResult(
            spec, schedule, ok=True, skipped=True, error=str(exc)
        )

    result = CaseResult(spec, schedule, ok=True)
    try:
        report = runtime.run()
    except UnrecoverableError as exc:
        # a schedule that kills place 0 / every place *must* end here —
        # cleanly — rather than hang or return wrong cells
        result.error = f"{type(exc).__name__}: {exc}"
        result.ok = True
        return result
    except Exception as exc:  # noqa: BLE001 - the verdict, not a crash
        result.error = f"{type(exc).__name__}: {exc}"
        result.ok = False
        return result

    result.completions = report.completions
    result.recoveries = report.recoveries
    result.msg_retries = report.msg_retries
    if runtime.chaos is not None:
        result.injected = dict(runtime.chaos.counts)
    for coord, exp in sorted(expected.items()):
        got = dag.get_vertex(*coord).get_result()
        if _values_differ(exp, got):
            result.mismatch_count += 1
            if len(result.mismatches) < _MAX_DIFFS:
                result.mismatches.append((coord, _show(exp), _show(got)))
    if result.mismatch_count:
        result.ok = False
    return result


def sweep(
    apps: Sequence[str] = ("probe",),
    patterns: Sequence[str] = ("diagonal",),
    engines: Sequence[str] = ("inline",),
    seeds: Sequence[int] = (0,),
    *,
    nplaces: int = 3,
    height: int = 12,
    width: int = 12,
    tile_shapes: Sequence[Union[None, str, Tuple[int, int]]] = (None,),
    intensity: float = 1.0,
    message_chaos: Optional[bool] = None,
    shm: bool = True,
    on_result: Optional[Callable[[CaseResult], None]] = None,
    stop_on_failure: bool = False,
) -> List[CaseResult]:
    """Run the full cross product of cases under seeded schedules.

    One schedule is generated per (case, seed) by
    :meth:`ChaosSchedule.generate` against the case's actual work size,
    so the same arguments always reproduce the same trials.
    ``message_chaos`` defaults to "mp engine only" (the in-process
    engines model it on the network instead of the pipes, which the mp
    engine exercises for real).
    """
    results: List[CaseResult] = []
    for app in apps:
        for pattern in patterns:
            if app not in ("probe", "buggy-probe") and pattern != "diagonal":
                continue  # concrete apps pin their own pattern
            for tile_shape in tile_shapes:
                spec0 = CaseSpec(
                    app=app,
                    pattern=pattern,
                    nplaces=nplaces,
                    height=height,
                    width=width,
                    tile_shape=tile_shape,
                    shm=shm,
                    domain=DOMAIN_OF.get(app, "grid"),
                )
                try:
                    _, dag, expected = build_case(spec0)
                    total_work = len(expected)
                except PatternError as exc:
                    skip = CaseResult(
                        spec0,
                        ChaosSchedule(seed=0),
                        ok=True,
                        skipped=True,
                        error=str(exc),
                    )
                    results.append(skip)
                    if on_result:
                        on_result(skip)
                    continue
                for engine in engines:
                    spec = CaseSpec(
                        app=app,
                        pattern=pattern,
                        engine=engine,
                        nplaces=nplaces,
                        height=height,
                        width=width,
                        tile_shape=tile_shape,
                        shm=shm,
                        domain=DOMAIN_OF.get(app, "grid"),
                    )
                    for seed in seeds:
                        schedule = ChaosSchedule.generate(
                            seed,
                            nplaces,
                            total_work,
                            intensity=intensity,
                            message_chaos=(
                                engine == "mp"
                                if message_chaos is None
                                else message_chaos
                            ),
                        )
                        result = run_case(spec, schedule)
                        results.append(result)
                        if on_result:
                            on_result(result)
                        if stop_on_failure and not result.ok:
                            return results
    return results
