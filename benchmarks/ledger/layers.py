"""The per-layer ladder: nested configurations, one rung per layer cost.

A traced run measures the rungs that belong to its workload's layers
(every other per-layer metric reads 0 in that run — see README.md,
"Per-layer metrics"). A rung times calls into a layer's *public*
functions from the benchmark's side, each call wrapped in a span; the
differences between neighbouring rungs are the "seconds added by" each
layer. Layer = module name under ``src/repro``.

Rungs that take seconds use the median of ``SLOW_REPS`` calls, the rest
of ``FAST_REPS``; ``--quick`` runs everything twice at toy size.
"""

from __future__ import annotations

import gc
import os
import signal
import time
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro import native
from repro.analysis.classify import classify_app
from repro.analysis.codegen import build_autokernel
from repro.apgas.failure import FaultPlan
from repro.apps import serial
from repro.apps.knapsack import KnapsackApp, KnapsackDag
from repro.apps.lcs import LCSApp
from repro.apps.msa import MSA3App, make_msa3_instance
from repro.apps.mtp import MTPApp, make_mtp_weights
from repro.apps.smith_waterman import SWApp
from repro.core.config import DPX10Config
from repro.core.scheduler import make_strategy
from repro.core.shm import SEGMENT_PREFIX, ShmArena, attach_array, detach_all, leaked_segments
from repro.patterns.diagonal import DiagonalDag
from repro.patterns.grid import GridDag
from repro.patterns.tensor import TensorWavefrontDag
from repro.serve.api import execute_job, parse_job_request
from repro.serve.pool import PlacePool
from repro.serve.scheduler import TenantPolicy
from repro.serve.server import JobServer

from procs import alive, survivors
from spans import SpanRecorder
from workloads import (
    CPUS,
    NPLACES,
    SERVE_WARMUP_JOBS,
    TILE,
    HttpServerProcess,
    JobSample,
    ServeWorkload,
    SolveSample,
    SolverWorkload,
    median,
    pin,
    upper_quartile,
    workload_rng,
)

__all__ = ["run_ladder"]

SLOW_REPS = 3
FAST_REPS = 5
QUICK_REPS = 2


class Ladder:
    """Times rungs under spans and collects the named metrics."""

    def __init__(self, spans: SpanRecorder, quick: bool) -> None:
        self.spans = spans
        self.quick = quick
        self.metrics: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}
        self.errors: List[str] = []

    def reps(self, slow: bool = False) -> int:
        return QUICK_REPS if self.quick else (SLOW_REPS if slow else FAST_REPS)

    def time(self, name: str, fn: Callable[[], Any], reps: int, warm: bool = False):
        """Median seconds of ``reps`` calls of ``fn`` (and its last result)."""
        result = fn() if warm else None
        times: List[float] = []
        for _ in range(reps):
            gc.collect()
            with self.spans.span(name):
                t0 = time.perf_counter()
                result = fn()
                times.append(time.perf_counter() - t0)
        self.samples[name] = times
        return median(times), result

    def per_call_us(self, name: str, fn: Callable[[], Any], calls: int) -> float:
        """Median microseconds per call over ``reps`` batches of ``calls``."""

        def batch() -> None:
            for _ in range(calls):
                fn()

        seconds, _ = self.time(name, batch, self.reps())
        return seconds / calls * 1e6

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.errors.append(what)

    def solve(self, wl: SolverWorkload, name: str, reps: int, fault_plans=(), **cfg):
        """Median seconds, and the last report, of ``wl.solve(**cfg)``;
        every rung that is a whole solve has its score checked."""
        seconds, (app, _dag, report) = self.time(
            name, lambda: wl.solve(fault_plans=fault_plans, **cfg), reps
        )
        self.check(app.best_score == wl.score, f"{name}: score != native")
        return seconds, report


# -- shared by every workload -------------------------------------------------------
def solver_common(lad: Ladder, samples: List[SolveSample]) -> float:
    """``native.baseline_s`` and ``bench.trace_overhead_x``; returns the
    window's untraced solve, the number most rungs subtract from."""
    lad.metrics["native.baseline_s"] = upper_quartile([s.native_s for s in samples])
    # the window alternates traced / untraced solves: dividing neighbours
    # keeps a change of machine speed between solves out of the ratio
    lad.metrics["bench.trace_overhead_x"] = median(
        [t.wall_s / u.wall_s for t, u in zip(samples[0::2], samples[1::2])]
    )
    return upper_quartile([s.wall_s for s in samples if not s.traced])


# -- analysis + tiling + dist + obs: home workload sw_tiled_inline_1024 -----------
def _sweep_tiles(fn, plane: np.ndarray, th: int, tw: int) -> None:
    """Drive a tile kernel over every window of a plain ndarray.

    The plane itself is the window (``oi, oj`` = the tile's origin), so
    the kernel reads its halo from, and writes its cells to, the same
    array: kernel arithmetic and nothing else. Row-major tile order is a
    wavefront order for the (-1,-1), (-1,0), (0,-1) stencil.
    """
    height, width = plane.shape
    for r0 in range(0, height, th):
        for c0 in range(0, width, tw):
            h, w = min(th, height - r0), min(tw, width - c0)
            if not fn(r0, c0, plane, r0, c0, h, w):
                raise RuntimeError(f"kernel declined tile ({r0}, {c0})")


def _whole_matrix_cases(lad: Ladder, wl: SolverWorkload):
    """app name -> (app, dag, reference matrix) for the throughput rungs."""
    n = wl.n
    rng = workload_rng(0, "ladder-kernels")
    w_down, w_right = make_mtp_weights(n, n, seed=0)
    items = n // 2
    kw = [int(x) for x in rng.integers(1, 12, size=items)]
    kv = [int(x) for x in rng.integers(1, 100, size=items)]
    x, y, z = make_msa3_instance(15 if lad.quick else 63, seed=0)
    msa = MSA3App(x, y, z)
    return {
        "sw": (SWApp(wl.a, wl.b), DiagonalDag(n + 1, n + 1),
               lambda: native.sw_native(wl.a, wl.b)),
        "lcs": (LCSApp(wl.a, wl.b), DiagonalDag(n + 1, n + 1),
                lambda: native.lcs_native(wl.a, wl.b)),
        "mtp": (MTPApp(w_down, w_right), GridDag(n, n),
                lambda: native.mtp_native(w_down, w_right)),
        "knapsack": (KnapsackApp(kw, kv, n), KnapsackDag(kw, n),
                     lambda: serial.knapsack_matrix(kw, kv, n)),
        "msa3": (msa, TensorWavefrontDag(msa.domain.shape),
                 lambda: native.msa3_native(x, y, z)),
    }


def tiling_ladder(lad: Ladder, wl: SolverWorkload, window: Dict[str, Any]) -> None:
    m = lad.metrics
    p2_s = solver_common(lad, window["samples"])
    m["dist.network_bytes"] = wl.last_report.network_bytes
    n, (th, tw) = wl.n, TILE
    want = native.sw_native(wl.a, wl.b)

    def classify_and_build():
        app, dag = SWApp(wl.a, wl.b), DiagonalDag(n + 1, n + 1)
        classify_app(app, dag)
        return build_autokernel(app, dag)

    m["analysis.classify_build_s"], (kernel, _cls) = lad.time(
        "analysis.classify_build", classify_and_build, lad.reps()
    )

    def sweep(fn) -> np.ndarray:
        plane = np.zeros((n + 1, n + 1), dtype=np.int64)
        _sweep_tiles(fn, plane, th, tw)
        return plane

    m["analysis.kernel_tiles_s"], got = lad.time(
        "analysis.kernel_tiles", lambda: sweep(kernel.fn), lad.reps(), warm=True
    )
    lad.check(np.array_equal(got, want), "generated kernel over tiles != native")
    hand = SWApp(wl.a, wl.b).compute_tile
    m["apps.hand_kernel_tiles_s"], got = lad.time(
        "apps.hand_kernel_tiles", lambda: sweep(hand), lad.reps(), warm=True
    )
    lad.check(np.array_equal(got, want), "hand kernel over tiles != native")

    for name, (app, dag, reference) in _whole_matrix_cases(lad, wl).items():
        fn = build_autokernel(app, dag)[0].fn
        shape = (dag.height, dag.width)

        def whole(fn=fn, shape=shape, dtype=app.value_dtype) -> np.ndarray:
            window = np.zeros(shape, dtype=dtype)
            fn(0, 0, window, 0, 0, *shape)
            return window

        seconds, got = lad.time(
            f"analysis.whole_matrix.{name}", whole, lad.reps(), warm=True
        )
        ref = reference()
        lad.check(
            np.array_equal(got.reshape(ref.shape), ref),
            f"generated {name} kernel over the whole matrix != reference",
        )
        m[f"analysis.mcells_per_s.{name}"] = got.size / seconds / 1e6

    m["tiling.coarsen_s"], _ = lad.time(
        "tiling.coarsen", lambda: DiagonalDag(n + 1, n + 1).coarsen(th, tw), lad.reps()
    )
    m["tiling.inline_p1_s"], _ = lad.solve(
        wl, "tiling.inline_p1", lad.reps(slow=True), nplaces=1
    )
    m["tiling.added_s"] = m["tiling.inline_p1_s"] - m["apps.hand_kernel_tiles_s"]
    m["dist.added_s"] = p2_s - m["tiling.inline_p1_s"]

    traced_s, report = lad.solve(
        wl, "obs.traced_solve", QUICK_REPS, trace=True, metrics=True
    )
    m["obs.trace_overhead_x"] = traced_s / p2_s
    m["obs.events"] = len(report.trace) + len(report.trace.spans)


# -- mp + shm + recovery: home workload sw_tiled_mp_2048 ----------------------------
def mp_ladder(lad: Ladder, wl: SolverWorkload, window: Dict[str, Any]) -> None:
    m = lad.metrics
    solve_s = solver_common(lad, window["samples"])
    m["mp.bytes_moved"] = wl.last_report.network_bytes

    # the inline workload's instance size: mp.added_s reads against its solve_s
    hand_tiled = {"nplaces": NPLACES, "tile_shape": TILE}
    mid = wl.prefix(wl.n // 2, hand_tiled)
    m["mp.shm_p2_s"] = lad.solve(mid, "mp.shm_p2", lad.reps(), engine="mp", shm=True)[0]
    inline_p2_s = lad.solve(mid, "tiling.inline_p2", QUICK_REPS, engine="inline")[0]
    m["mp.added_s"] = m["mp.shm_p2_s"] - inline_p2_s
    # pickled pipes cost ~20 s at 1024²; a quarter-size instance keeps the rung
    small = wl.prefix(wl.n // 4, hand_tiled)
    m["mp.pipe_p2_s"] = lad.solve(
        small, "mp.pipe_p2", QUICK_REPS, engine="mp", shm=False
    )[0]
    shm_small_s = lad.solve(
        small, "mp.shm_p2_small", lad.reps(), engine="mp", shm=True
    )[0]
    m["mp.pipe_over_shm_x"] = m["mp.pipe_p2_s"] / shm_small_s
    # 2x2 tiles: all fork/init/join, almost no cells
    tiny = wl.prefix(2 * TILE[0] - 1, hand_tiled)
    m["mp.fork_join_s"] = lad.solve(
        tiny, "mp.fork_join", lad.reps(), engine="mp", shm=True
    )[0]

    shape = (wl.n + 1, wl.n + 1)

    def create_attach_close() -> None:
        arena = ShmArena()
        try:
            _plane, name = arena.create(shape, np.int64)
            attach_array(name, shape, np.int64)
            detach_all()
        finally:
            arena.close()

    m["shm.create_attach_close_s"], _ = lad.time(
        "shm.create_attach_close", create_attach_close, lad.reps()
    )

    # the one rung allowed both CPUs: what pinning hides from solve_s
    os.sched_setaffinity(0, set(CPUS))
    try:
        m["mp.unpinned_solve_s"] = lad.solve(
            wl, "mp.unpinned_solve", lad.reps(slow=True)
        )[0]
    finally:
        pin(CPUS[0])
    m["mp.parallel_x"] = solve_s / m["mp.unpinned_solve_s"]

    kill = [FaultPlan(place_id=1, at_fraction=0.5)]
    m["recovery.kill_solve_s"], report = lad.solve(
        wl, "recovery.kill_solve", lad.reps(slow=True), fault_plans=kill
    )
    m["recovery.added_s"] = m["recovery.kill_solve_s"] - solve_s
    m["recovery.recomputed_cells"] = report.recomputed
    m["recovery.recoveries"] = report.recoveries
    m["shm.leaked_segments"] = len(leaked_segments())


# -- worker + scheduler + patterns + cache + apgas: home sw_vertex_default_256 ---
def vertex_ladder(lad: Ladder, wl: SolverWorkload, window: Dict[str, Any]) -> None:
    m = lad.metrics
    solve_s = solver_common(lad, window["samples"])
    report = wl.last_report
    m["worker.us_per_cell"] = solve_s / wl.cells * 1e6
    m["cache.hit_rate"] = report.cache_hit_rate
    m["apgas.network_bytes"] = report.network_bytes
    m["worker.run_p1_s"], _ = lad.solve(
        wl, "worker.run_p1", lad.reps(slow=True), nplaces=1
    )

    calls = 200 if lad.quick else 20000
    rng = np.random.default_rng(0)
    alive_ids = tuple(range(DPX10Config().nplaces))
    for name in ("local", "random", "mincomm"):
        choose = make_strategy(name).choose_place
        m[f"scheduler.choose_place_us.{name}"] = lad.per_call_us(
            f"scheduler.choose_place.{name}",
            lambda: choose((5, 5), 1, (0, 1, 1), alive_ids, rng, 8),
            calls,
        )
    dag = DiagonalDag(wl.n + 1, wl.n + 1)
    m["patterns.get_dependency_us"] = lad.per_call_us(
        "patterns.get_dependency", lambda: dag.get_dependency(wl.n // 2, wl.n // 2), calls
    )


# -- serve: home workload serve_http_small --------------------------------------------
def _sigterm_rung(lad: Ladder, wl: ServeWorkload, bodies: List[dict]) -> None:
    """A second, short server stopped with SIGTERM: what does it leave?"""
    with lad.spans.span("serve.sigterm_server"):
        server = HttpServerProcess(
            os.path.join(wl.out_dir, "server-sigterm.log"), CPUS[-1]
        )
        for body in bodies[:4]:
            server.run_job(body)
        tree = server.tree()
        server.stop(signal.SIGTERM)
        orphans = survivors(tree, 0.3)
        prefix = f"{SEGMENT_PREFIX}{server.pid}-"
        leaked = [s for s in leaked_segments() if s.startswith(prefix)]
    lad.metrics["serve.sigterm_orphans"] = len(orphans)
    lad.metrics["serve.sigterm_leaked_segments"] = len(leaked)
    # put the box back: the workload's own clean-up check must see it tidy
    for pid in tree:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + 5.0
    while any(alive(p) for p in tree) and time.monotonic() < deadline:
        time.sleep(0.05)
    for seg in leaked:
        try:
            os.unlink(os.path.join("/dev/shm", seg))
        except FileNotFoundError:
            pass  # the resource tracker got there first


def serve_ladder(lad: Ladder, wl: ServeWorkload, window: Dict[str, Any]) -> None:
    m = lad.metrics
    samples: List[JobSample] = window["samples"]
    latencies = sorted(s.latency_s for s in samples)
    computed = [s for s in samples if not s.cached]
    m["native.baseline_s"] = median([wl.native_of(s.index)[1] for s in samples])
    m["bench.trace_overhead_x"] = median(
        [s.latency_s for s in computed if s.traced]
    ) / median([s.latency_s for s in computed if not s.traced])
    m["serve.jobs_per_s"] = len(samples) / window["window_s"]
    m["serve.job_p95_s"] = latencies[int(0.95 * len(latencies))]
    hits = [s.latency_s for s in samples if s.cached]
    m["serve.cached_job_s"] = median(hits) if hits else 0.0
    m["serve.computed_job_s"] = median([s.latency_s for s in computed])
    m["serve.cache_hit_ratio"] = len(hits) / len(samples)
    repeats = sum(wl.jobs[s.index].repeat_of is not None for s in samples)
    lad.check(len(hits) == repeats, f"{len(hits)} cache hits for {repeats} repeats")
    m["serve.rejected"] = wl.rejected
    pool = wl.server.request("GET", "/stats")[1]["pool"]
    m["serve.pool_forks"] = pool["forks"]
    m["serve.pool_leases"] = pool["leases"]
    m["serve.rss_growth_mb"] = window["server_rss_mb"] - wl.rss_after_warmup_mb

    # the distinct jobs the rest of the ladder replays, uncached: the
    # warm-up's, one of every (app, size) type
    count = 4 if lad.quick else SERVE_WARMUP_JOBS
    distinct = [j for j in wl.jobs if j.repeat_of is None][:count]
    bodies = [dict(j.body, cache=False) for j in distinct]
    scores = [wl.native_of(j.index)[0] for j in distinct]

    def replay(name: str, run_one: Callable[[dict], int]) -> float:
        times = []
        for body, want in zip(bodies, scores):
            with lad.spans.span(name):
                t0 = time.perf_counter()
                got = run_one(body)
                times.append(time.perf_counter() - t0)
            lad.check(got == want, f"{name}: score {got} != native {want}")
        lad.samples[name] = times
        return median(times)

    m["serve.parse_us"] = lad.per_call_us(
        "serve.parse", lambda: parse_job_request(bodies[0]), 20 if lad.quick else 2000
    )
    pool_obj = PlacePool(NPLACES, prewarm=True)
    try:
        m["serve.lease_release_us"] = lad.per_call_us(
            "serve.lease_release",
            lambda: pool_obj.release(list(pool_obj.lease(NPLACES).values())),
            10 if lad.quick else 200,
        )
    finally:
        pool_obj.close()

    cfg = DPX10Config(engine="mp", nplaces=NPLACES, tile_shape=TILE, autokernel=True)
    m["serve.direct_execute_s"] = replay(
        "serve.direct_execute",
        lambda body: execute_job(parse_job_request(body), cfg)["score"],
    )
    lifted = TenantPolicy(rate=1e6, burst=1e6, max_in_flight=64)
    inproc = JobServer(port=0, pool_capacity=NPLACES, per_tenant={"bench": lifted})
    try:

        def submit_wait(body: dict) -> int:
            _status, doc = inproc.submit(body)
            return inproc.wait(doc["id"], timeout=60.0)["result"]["score"]

        submit_wait(bodies[0])  # first-touch of the in-process pool
        m["serve.inproc_warm_s"] = replay("serve.inproc_warm", submit_wait)
    finally:
        inproc.close()
    m["serve.warm_saving_s"] = m["serve.direct_execute_s"] - m["serve.inproc_warm_s"]
    http_s = replay(
        "serve.http_single_client",
        lambda body: wl.server.run_job(body)[1]["result"]["score"],
    )
    m["serve.http_added_s"] = http_s - m["serve.inproc_warm_s"]
    _sigterm_rung(lad, wl, bodies)


_LADDERS: Dict[str, Callable] = {
    "sw_tiled_inline_1024": tiling_ladder,
    "sw_tiled_mp_2048": mp_ladder,
    "sw_vertex_default_256": vertex_ladder,
    "serve_http_small": serve_ladder,
}


def run_ladder(
    wl, window, spans: SpanRecorder, quick: bool
) -> Tuple[Dict[str, float], Dict[str, List[float]], List[str]]:
    """``(metrics, per-rung samples, failed checks)`` of ``wl``'s rungs."""
    lad = Ladder(spans, quick)
    _LADDERS[wl.name](lad, wl, window)
    return lad.metrics, lad.samples, lad.errors
