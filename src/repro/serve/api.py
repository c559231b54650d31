"""The job catalog and request schema of the DP job server.

A *job* names an app from the catalog plus that app's parameters; the
catalog entry knows how to build the ``(app, dag)`` pair, extract the
JSON-able result, and — for differential checking in tests and soaks —
compute the serial-oracle score without any runtime machinery.

Sequence apps (``sw``, ``nw``, ``lcs``, ``edit``) accept either explicit
inputs (``{"a": "ACGT...", "b": "..."}``) or a synthetic instance
(``{"size": 512, "seed": 1}``) generated deterministically server-side —
the same spelling always denotes the same instance, which is what makes
the result cache's ``input_hash`` meaningful. Parameter normalization
materializes defaults and coerces types *before* hashing, so requests
that differ only in spelling share a cache entry.

Fault parameters (``faults: [{"place": 2, "after_completions": 1000}]``)
are the chaos soak hook: they map to :class:`~repro.apgas.failure.
FaultPlan` kills and are only honored when the server was started with
``allow_faults=True`` (they are excluded from the cache key's parameter
hash — a killed run must produce bit-identical results, and the soak
asserts exactly that).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.apgas.failure import FaultPlan
from repro.serve.cache import cache_key

__all__ = [
    "APPS",
    "AppSpec",
    "BadRequest",
    "JobRequest",
    "parse_job_request",
    "execute_job",
]

_MAX_DIM = 4096  # request-size guardrail: one job may not exceed this


class BadRequest(ValueError):
    """A malformed job request; the HTTP layer maps this to 400."""


def _rand_string(n: int, seed: int, stream: str) -> str:
    from repro.util.rng import seeded_rng

    rng = seeded_rng(seed, f"serve-{stream}")
    return "".join("ACGT"[int(k)] for k in rng.integers(0, 4, size=max(1, n)))


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise BadRequest(msg)


def _as_int(params: Dict[str, Any], key: str, lo: int, hi: int) -> int:
    v = params.get(key)
    _require(isinstance(v, int) and not isinstance(v, bool), f"{key} must be an int")
    _require(lo <= v <= hi, f"{key} must be in [{lo}, {hi}], got {v}")
    return v


def _as_str(params: Dict[str, Any], key: str) -> str:
    v = params.get(key)
    _require(isinstance(v, str) and len(v) >= 1, f"{key} must be a non-empty string")
    _require(len(v) < _MAX_DIM, f"{key} longer than {_MAX_DIM - 1} chars")
    return v


def _norm_pair(params: Dict[str, Any]) -> Dict[str, Any]:
    """Normalize a two-sequence app's params (explicit or synthetic)."""
    if "size" in params:
        return {
            "size": _as_int(params, "size", 2, _MAX_DIM),
            "seed": _as_int({"seed": params.get("seed", 0)}, "seed", 0, 2**31),
        }
    return {"a": _as_str(params, "a"), "b": _as_str(params, "b")}


def _pair_strings(params: Dict[str, Any]) -> Tuple[str, str]:
    if "size" in params:
        n = params["size"] - 1
        return (
            _rand_string(n, params["seed"], "a"),
            _rand_string(n, params["seed"], "b"),
        )
    return params["a"], params["b"]


@dataclass(frozen=True)
class AppSpec:
    """One catalog entry: how to build, finish, and independently check."""

    name: str
    pattern: str
    #: canonicalize + validate raw params (raises BadRequest)
    normalize: Callable[[Dict[str, Any]], Dict[str, Any]]
    #: normalized params -> (app, dag)
    build: Callable[[Dict[str, Any]], Tuple[Any, Any]]
    #: finished (app, dag) -> JSON-able result payload (has "score")
    result: Callable[[Any, Any], Dict[str, Any]]
    #: normalized params -> the serial-oracle score (no runtime involved)
    oracle: Callable[[Dict[str, Any]], int]


def _build_sw(p):
    from repro.apps.smith_waterman import SWApp
    from repro.patterns.diagonal import DiagonalDag

    a, b = _pair_strings(p)
    return SWApp(a, b), DiagonalDag(len(a) + 1, len(b) + 1)


def _oracle_sw(p):
    from repro.apps.serial import sw_matrix

    a, b = _pair_strings(p)
    return int(sw_matrix(a, b).max())


def _build_nw(p):
    from repro.apps.needleman_wunsch import NWApp
    from repro.patterns.diagonal import DiagonalDag

    a, b = _pair_strings(p)
    return NWApp(a, b), DiagonalDag(len(a) + 1, len(b) + 1)


def _oracle_nw(p):
    from repro.apps.serial import nw_matrix

    a, b = _pair_strings(p)
    return int(nw_matrix(a, b)[-1, -1])


def _build_lcs(p):
    from repro.apps.lcs import LCSApp
    from repro.patterns.diagonal import DiagonalDag

    a, b = _pair_strings(p)
    return LCSApp(a, b), DiagonalDag(len(a) + 1, len(b) + 1)


def _oracle_lcs(p):
    from repro.apps.serial import lcs_matrix

    a, b = _pair_strings(p)
    return int(lcs_matrix(a, b)[-1, -1])


def _build_edit(p):
    from repro.apps.edit_distance import EditDistanceApp
    from repro.patterns.diagonal import DiagonalDag

    a, b = _pair_strings(p)
    return EditDistanceApp(a, b), DiagonalDag(len(a) + 1, len(b) + 1)


def _oracle_edit(p):
    from repro.apps.serial import edit_distance_matrix

    a, b = _pair_strings(p)
    return int(edit_distance_matrix(a, b)[-1, -1])


def _norm_lps(p):
    if "size" in p:
        return {
            "size": _as_int(p, "size", 2, _MAX_DIM),
            "seed": _as_int({"seed": p.get("seed", 0)}, "seed", 0, 2**31),
        }
    return {"s": _as_str(p, "s")}


def _lps_string(p):
    return (
        _rand_string(p["size"], p["seed"], "s") if "size" in p else p["s"]
    )


def _build_lps(p):
    from repro.apps.lps import LPSApp
    from repro.patterns.interval import IntervalDag

    s = _lps_string(p)
    return LPSApp(s), IntervalDag(len(s), len(s))


def _oracle_lps(p):
    from repro.apps.serial import lps_matrix

    s = _lps_string(p)
    return int(lps_matrix(s)[0, len(s) - 1])


def _norm_chain(p):
    if "size" in p:
        return {
            "size": _as_int(p, "size", 2, 512),
            "seed": _as_int({"seed": p.get("seed", 0)}, "seed", 0, 2**31),
        }
    dims = p.get("dims")
    _require(
        isinstance(dims, list)
        and 2 <= len(dims) <= 513
        and all(isinstance(d, int) and 1 <= d <= 10_000 for d in dims),
        "dims must be a list of 2..513 ints in [1, 10000]",
    )
    return {"dims": list(dims)}


def _chain_dims(p):
    if "size" in p:
        from repro.apps.matrix_chain import make_chain_dims

        return make_chain_dims(p["size"], seed=p["seed"])
    return p["dims"]


def _build_chain(p):
    from repro.apps.matrix_chain import MatrixChainApp
    from repro.patterns.triangular import TriangularDag

    dims = _chain_dims(p)
    n = len(dims) - 1
    return MatrixChainApp(dims), TriangularDag(n, n)


def _oracle_chain(p):
    from repro.apps.serial import matrix_chain_matrix

    dims = _chain_dims(p)
    return int(matrix_chain_matrix(dims)[0, len(dims) - 2])


def _norm_knapsack(p):
    if "size" in p:
        return {
            "size": _as_int(p, "size", 2, 512),
            "seed": _as_int({"seed": p.get("seed", 0)}, "seed", 0, 2**31),
        }
    weights, values = p.get("weights"), p.get("values")
    capacity = _as_int(p, "capacity", 1, _MAX_DIM)

    def _ints(v, name):
        _require(
            isinstance(v, list)
            and 1 <= len(v) <= _MAX_DIM
            and all(isinstance(x, int) and 1 <= x <= 10_000 for x in v),
            f"{name} must be a list of 1..{_MAX_DIM} ints in [1, 10000]",
        )
        return list(v)

    weights, values = _ints(weights, "weights"), _ints(values, "values")
    _require(len(weights) == len(values), "weights and values must match in length")
    return {"weights": weights, "values": values, "capacity": capacity}


def _knapsack_instance(p):
    if "size" in p:
        from repro.apps.knapsack import make_knapsack_instance

        capacity = p["size"] - 1
        weights, values = make_knapsack_instance(
            p["size"] - 1, capacity, seed=p["seed"]
        )
        return list(weights), list(values), capacity
    return p["weights"], p["values"], p["capacity"]


def _build_knapsack(p):
    from repro.apps.knapsack import KnapsackApp
    from repro.patterns.knapsack import KnapsackDag

    weights, values, capacity = _knapsack_instance(p)
    return KnapsackApp(weights, values, capacity), KnapsackDag(weights, capacity)


def _oracle_knapsack(p):
    from repro.apps.serial import knapsack_matrix

    weights, values, capacity = _knapsack_instance(p)
    return int(knapsack_matrix(weights, values, capacity)[-1, -1])


def _norm_mtp(p):
    return {
        "size": _as_int(p, "size", 2, _MAX_DIM),
        "seed": _as_int({"seed": p.get("seed", 0)}, "seed", 0, 2**31),
    }


def _mtp_weights(p):
    from repro.apps.mtp import make_mtp_weights

    return make_mtp_weights(p["size"], p["size"], seed=p["seed"])


def _build_mtp(p):
    from repro.apps.mtp import MTPApp
    from repro.patterns.grid import GridDag

    w_down, w_right = _mtp_weights(p)
    return MTPApp(w_down, w_right), GridDag(p["size"], p["size"])


def _oracle_mtp(p):
    from repro.apps.serial import mtp_matrix

    w_down, w_right = _mtp_weights(p)
    return int(mtp_matrix(w_down, w_right)[-1, -1])


def _corner_result(attr: str):
    def extract(app, dag) -> Dict[str, Any]:
        return {"score": int(getattr(app, attr))}

    return extract


APPS: Dict[str, AppSpec] = {
    "sw": AppSpec(
        "sw", "diagonal", _norm_pair, _build_sw, _corner_result("best_score"), _oracle_sw
    ),
    "nw": AppSpec(
        "nw", "diagonal", _norm_pair, _build_nw, _corner_result("score"), _oracle_nw
    ),
    "lcs": AppSpec(
        "lcs", "diagonal", _norm_pair, _build_lcs, _corner_result("length"), _oracle_lcs
    ),
    "edit": AppSpec(
        "edit",
        "diagonal",
        _norm_pair,
        _build_edit,
        _corner_result("distance"),
        _oracle_edit,
    ),
    "lps": AppSpec(
        "lps", "interval", _norm_lps, _build_lps, _corner_result("length"), _oracle_lps
    ),
    "matrix_chain": AppSpec(
        "matrix_chain",
        "triangular",
        _norm_chain,
        _build_chain,
        _corner_result("min_multiplications"),
        _oracle_chain,
    ),
    "knapsack": AppSpec(
        "knapsack",
        "knapsack",
        _norm_knapsack,
        _build_knapsack,
        _corner_result("best_value"),
        _oracle_knapsack,
    ),
    "mtp": AppSpec(
        "mtp",
        "grid",
        _norm_mtp,
        _build_mtp,
        _corner_result("best_path_weight"),
        _oracle_mtp,
    ),
}

_ENGINES = ("inline", "threaded", "mp")


@dataclass
class JobRequest:
    """A validated, normalized job submission."""

    tenant: str
    app: str
    params: Dict[str, Any]
    engine: str = "mp"
    nplaces: int = 4
    tile_shape: Optional[Tuple[int, int]] = None
    autokernel: bool = False
    use_cache: bool = True
    #: capture an ExecutionTrace for causal post-mortem (GET /jobs/{id}/trace)
    trace: bool = False
    #: chaos soak hook; only honored with server allow_faults=True
    faults: List[FaultPlan] = field(default_factory=list)

    @property
    def pattern(self) -> str:
        return APPS[self.app].pattern

    @property
    def cache_key(self) -> str:
        return cache_key(self.app, self.params, self.pattern, self.tile_shape)


def parse_job_request(
    body: Any, *, allow_faults: bool = False, default_nplaces: int = 4
) -> JobRequest:
    """Validate a decoded JSON body into a :class:`JobRequest`.

    Raises :class:`BadRequest` with a client-presentable message on any
    violation; nothing about the request is trusted. Only ``app`` and
    ``params`` are required: an omitted ``tile_shape`` is planned by the
    runtime (as under a bare ``DPX10Config()``) and an omitted
    ``nplaces`` is ``default_nplaces`` — the server passes what its pool
    can actually lease.
    """
    _require(isinstance(body, dict), "request body must be a JSON object")
    tenant = body.get("tenant", "default")
    _require(
        isinstance(tenant, str) and 1 <= len(tenant) <= 64,
        "tenant must be a string of 1..64 chars",
    )
    app = body.get("app")
    _require(
        isinstance(app, str) and app in APPS,
        f"app must be one of {sorted(APPS)}, got {app!r}",
    )
    raw_params = body.get("params", {})
    _require(isinstance(raw_params, dict), "params must be a JSON object")
    params = APPS[app].normalize(raw_params)
    engine = body.get("engine", "mp")
    _require(engine in _ENGINES, f"engine must be one of {_ENGINES}")
    nplaces = body.get("nplaces", default_nplaces)
    _require(
        isinstance(nplaces, int) and 1 <= nplaces <= 64,
        "nplaces must be an int in [1, 64]",
    )
    tile_shape = body.get("tile_shape")
    if tile_shape is not None:
        _require(
            isinstance(tile_shape, (list, tuple))
            and len(tile_shape) == 2
            and all(isinstance(t, int) and 1 <= t <= _MAX_DIM for t in tile_shape),
            "tile_shape must be [th, tw] with ints >= 1",
        )
        tile_shape = (tile_shape[0], tile_shape[1])
    autokernel = bool(body.get("autokernel", False))
    _require(
        not autokernel or tile_shape != (1, 1),
        "autokernel has no per-vertex form: tile_shape [1, 1] is the "
        "interpreted reference path",
    )
    use_cache = bool(body.get("cache", True))
    trace = bool(body.get("trace", False))
    faults: List[FaultPlan] = []
    raw_faults = body.get("faults", [])
    if raw_faults:
        _require(allow_faults, "faults are disabled on this server")
        _require(
            isinstance(raw_faults, list) and len(raw_faults) <= 8,
            "faults must be a list of at most 8 kill plans",
        )
        for f in raw_faults:
            _require(
                isinstance(f, dict) and isinstance(f.get("place"), int),
                "each fault needs an int place",
            )
            if "after_completions" in f:
                _require(
                    isinstance(f["after_completions"], int)
                    and f["after_completions"] >= 0,
                    "after_completions must be an int >= 0",
                )
                faults.append(
                    FaultPlan(
                        place_id=f["place"],
                        after_completions=f["after_completions"],
                    )
                )
            else:
                frac = f.get("at_fraction", 0.5)
                _require(
                    isinstance(frac, (int, float)) and 0.0 <= frac <= 1.0,
                    "at_fraction must be in [0, 1]",
                )
                faults.append(
                    FaultPlan(place_id=f["place"], at_fraction=float(frac))
                )
    return JobRequest(
        tenant=tenant,
        app=app,
        params=params,
        engine=engine,
        nplaces=nplaces,
        tile_shape=tile_shape,
        autokernel=autokernel,
        use_cache=use_cache,
        trace=trace,
        faults=faults,
    )


def execute_job(req: JobRequest, config, on_report=None) -> Dict[str, Any]:
    """Run one job synchronously under the given config.

    Returns the JSON-able result payload: the app's score plus run
    accounting. Called by the server from an executor thread (the
    config carries the pacer hook and the warm pool) and by tests
    directly. ``on_report`` receives the full :class:`RunReport` before
    the payload is built — the server uses it to capture the execution
    trace for ``GET /jobs/{id}/trace`` without forcing the trace through
    the JSON result path.
    """
    from repro.core.runtime import DPX10Runtime

    spec = APPS[req.app]
    app, dag = spec.build(req.params)
    runtime = DPX10Runtime(app, dag, config, fault_plans=req.faults)
    report = runtime.run()
    if on_report is not None:
        on_report(report)
    payload = spec.result(app, dag)
    payload.update(
        {
            "app": req.app,
            "pattern": spec.pattern,
            "wall_time": report.wall_time,
            "completions": report.completions,
            "active_vertices": report.active_vertices,
            "recoveries": report.recoveries,
            "final_alive_places": report.final_alive_places,
            "tile_shape": list(report.tile_shape) if report.tile_shape else None,
            "kernel": report.kernel,
        }
    )
    return payload
